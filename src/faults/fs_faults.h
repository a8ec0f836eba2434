// Deterministic filesystem fault injection.
//
// PR 2's FaultPlan dirties the *data* the pipeline measures; this harness
// dirties the *storage operations* the pipeline persists through. A
// FaultFileSystem wraps a real core::FileSystem and numbers every
// mutating call (write_file, rename, remove, create_directories) with a
// monotonically increasing operation index; an FsFaultPlan says which
// indices fail and how:
//
//   enospc  permanent failure: a prefix of the data lands, then IoError
//   eio     transient failure: nothing lands, TransientIoError (a retry
//           gets a fresh op index and normally succeeds)
//   torn    silent corruption: a prefix of the data lands and the call
//           REPORTS SUCCESS — exactly what a crashed kernel flush looks
//           like; only end-to-end checksums can catch it
//   crash   a prefix lands, then InjectedCrash is thrown: in-process
//           simulation of dying mid-operation (rename: the rename never
//           happens — crash-before-publish)
//   kill    raise(SIGKILL): the real thing, for the crash/resume shell
//           tests; no destructor, no flush, no unwind
//
// Faults are positional, not random: "enospc@5" fires on mutating op 5
// wherever it lands. Under a multi-threaded run the interleaving decides
// which logical operation draws index 5 — which is the point: crash
// safety must hold at *any* operation, so the schedule is deterministic
// in count while the victim varies with scheduling.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fs.h"

namespace bblab::faults {

/// Thrown by FaultFileSystem to simulate the process dying mid-operation.
/// Deliberately NOT an IoError: retry logic must never swallow a crash,
/// and quarantine paths must not misfile it as a storage failure. Tests
/// catch it where a real crash would have killed the process; the CLI
/// converts it into an immediate _Exit.
class InjectedCrash : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct FsFault {
  enum class Kind { kEnospc, kEio, kTorn, kCrash, kKill };
  Kind kind{Kind::kEio};
  /// First mutating-operation index (0-based) this fault arms at.
  std::uint64_t at{0};
  /// How many operations it fires on (consecutive matching ops).
  int times{1};
};

[[nodiscard]] const char* fs_fault_kind_label(FsFault::Kind kind);

struct FsFaultPlan {
  std::vector<FsFault> faults;

  [[nodiscard]] bool empty() const { return faults.empty(); }
  /// "eio@3x2 enospc@10" — declaration order.
  [[nodiscard]] std::string summary() const;

  /// Parse "kind@index[xTIMES]" terms separated by commas, e.g.
  /// "eio@3x2,enospc@10,torn@4,crash@7,kill@2". Kinds: enospc, eio,
  /// torn, crash, kill. INDEX and TIMES are plain decimal digits (no
  /// sign, no whitespace); INDEX fits in 64 bits and TIMES is 1..INT_MAX.
  /// Throws InvalidArgument on malformed specs.
  [[nodiscard]] static FsFaultPlan parse(const std::string& spec);
};

/// A core::FileSystem that injects the plan's faults into a base
/// filesystem. Thread-safe: the op counter is atomic and each fault entry
/// fires at most `times` total across all threads.
class FaultFileSystem final : public core::FileSystem {
 public:
  /// Wraps `base` (default: the real filesystem). `base` must outlive
  /// this object.
  explicit FaultFileSystem(FsFaultPlan plan, core::FileSystem* base = nullptr);

  /// Mutating operations seen so far.
  [[nodiscard]] std::uint64_t ops() const {
    return next_op_.load(std::memory_order_relaxed);
  }

  bool exists(const std::filesystem::path& path) override;
  void create_directories(const std::filesystem::path& path) override;
  void write_file(const std::filesystem::path& path, std::string_view data) override;
  [[nodiscard]] std::string read_file(const std::filesystem::path& path) override;
  void rename(const std::filesystem::path& from,
              const std::filesystem::path& to) override;
  bool remove(const std::filesystem::path& path) override;

 private:
  struct Armed {
    FsFault fault;
    std::atomic<int> fired{0};
  };

  /// Claim the fault (if any) firing on the next op index. Also advances
  /// the op counter; returns the kind that fired or nullopt.
  [[nodiscard]] std::optional<FsFault::Kind> claim_fault();

  core::FileSystem* base_;
  std::vector<std::unique_ptr<Armed>> armed_;
  std::atomic<std::uint64_t> next_op_{0};
};

}  // namespace bblab::faults
