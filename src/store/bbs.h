// The .bbs binary columnar snapshot format.
//
// A snapshot is a durable, re-queryable serialization of a full
// StudyDataset — user records, plan catalogs, upgrade observations, the
// quarantine ledger, and the generating config — so figures, tables and
// scorecards can reload a simulated panel in milliseconds instead of
// re-simulating it. Design goals, in order:
//
//   1. Lossless: doubles round-trip bit-exactly (NaN payloads and -0.0
//      included), so a reloaded dataset is indistinguishable from the
//      fresh simulation it snapshotted.
//   2. Corruption-safe: every byte of the file is covered by either a
//      validated constant (magics, version, endian tag) or a 64-bit
//      checksum (section payloads, footer), and every load verifies all
//      of them. The checksum is core::checksum64, word-wise over four
//      lanes, so verification runs at memory speed. Any single-byte flip
//      is detected and surfaces as a typed SnapshotError — never a
//      crash, never silently wrong data.
//   3. Columnar: big sections store one field across all records
//      contiguously, and the reader decodes column-at-a-time straight
//      from the file's byte image into the destination vector — no
//      intermediate row objects and no per-section buffers. Each value
//      read is one bounds check plus one little-endian word load.
//   4. Seekable: a footer index maps section name -> (offset, size,
//      checksum), so `bblab cat` and partial readers locate any section
//      in O(1) without scanning the file.
//
// All multi-byte values are explicitly little-endian; the file is
// byte-identical across host endianness and the header carries an endian
// tag as a tripwire for foreign writers. See DESIGN.md §6 for the exact
// on-disk layout.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.h"
#include "core/fs.h"
#include "dataset/generator.h"
#include "store/mmap.h"

namespace bblab::store {

/// On-disk format version. Bump on any layout or checksum change; readers
/// reject other versions (kFormatMismatch) rather than guessing. v2 has
/// v1's layout with core::checksum64 in place of FNV-1a checksums.
inline constexpr std::uint32_t kFormatVersion = 2;

/// Typed rejection: what exactly is wrong with a snapshot, expressed in
/// the same QuarantineReason taxonomy lenient ingest uses —
/// kFormatMismatch for framing/magic/version damage, kChecksumMismatch
/// for payload damage, kBadValue for well-framed but semantically
/// invalid content (unknown enum value, unknown country code).
class SnapshotError : public IoError {
 public:
  SnapshotError(QuarantineReason reason, const std::string& message)
      : IoError{std::string{quarantine_reason_label(reason)} + ": " + message},
        reason_{reason} {}

  [[nodiscard]] QuarantineReason reason() const { return reason_; }

 private:
  QuarantineReason reason_;
};

/// Serialize a full dataset. The stream must be binary-mode.
void write_snapshot(std::ostream& out, const dataset::StudyDataset& ds);

/// Atomic file write: serialize to a process-unique `<path>.p<pid>.N.tmp`
/// in the same directory, then rename over `path` — a crashed writer
/// never leaves a torn snapshot where a reader (or the cache) will find
/// one, and concurrent writers of the same path cannot cross-scribble.
/// All I/O goes through `fs`, the injection point the fault-injection
/// harness (src/faults/fs_faults.h) and the retry layer hook into.
void write_snapshot_file(const std::filesystem::path& path,
                         const dataset::StudyDataset& ds,
                         core::FileSystem& fs = core::FileSystem::instance());

/// Deserialize a snapshot from its complete byte image (a mapping or a
/// buffer already read). MarketSnapshot::country pointers are rebound
/// into `world` (a snapshot referencing a country the world does not
/// contain is rejected with kBadValue). Throws SnapshotError on any
/// corruption or version mismatch. This is the one decoder:
/// SnapshotView runs it over the mapping.
[[nodiscard]] dataset::StudyDataset read_snapshot(
    std::string_view bytes, const market::World& world = market::World::builtin());

/// Map `path` and decode it (SnapshotView::open(path).dataset(world)).
/// A file that cannot be opened or mapped (missing, a pipe, a directory)
/// is an IoError, never a SnapshotError.
[[nodiscard]] dataset::StudyDataset read_snapshot_file(
    const std::filesystem::path& path,
    const market::World& world = market::World::builtin());

/// Footer-index entry, exposed for `bblab cat` and tests.
struct SectionInfo {
  std::string name;
  std::uint64_t offset{0};
  std::uint64_t size{0};
  std::uint64_t checksum{0};
};

struct SnapshotInfo {
  std::uint32_t version{0};
  std::uint64_t file_size{0};
  std::vector<SectionInfo> sections;
};

/// Zero-copy snapshot reader over a memory-mapped `.bbs` file.
///
/// Opening verifies the framing (header magic/version/endian tag) and
/// the footer index checksum in O(1) of file size; section payloads are
/// only touched when asked for. `section()` hands out a string_view
/// directly into the mapping — no per-section heap buffer — and
/// checksum-verifies the payload *before* returning it, so a truncated
/// or bit-flipped section is a typed SnapshotError at the call site and
/// corrupt bytes are never visible through a view. `dataset()` is
/// read_snapshot() over the mapping; it is what `bblab cat`, cache
/// loads, and the serve daemon's dataset LRU run on.
///
/// Move-only; the mapping (and every view into it) lives as long as the
/// SnapshotView. Thread-safe for concurrent reads: all state is
/// immutable after construction.
class SnapshotView {
 public:
  /// mmap `path` and verify its framing. Throws IoError when the file
  /// cannot be opened/mapped (including any non-regular file),
  /// SnapshotError when it is not a healthy snapshot.
  [[nodiscard]] static SnapshotView open(const std::filesystem::path& path);

  SnapshotView(SnapshotView&&) = default;
  SnapshotView& operator=(SnapshotView&&) = default;

  [[nodiscard]] const SnapshotInfo& info() const { return info_; }

  /// Checksum-verified zero-copy payload of one section. Throws
  /// SnapshotError (kFormatMismatch if absent, kChecksumMismatch if
  /// damaged). The view is valid for the life of this SnapshotView.
  [[nodiscard]] std::string_view section(const std::string& name) const;

  /// Decode only the `config` section (cheap: a few hundred bytes) —
  /// enough to fingerprint the snapshot without materializing tables.
  [[nodiscard]] dataset::StudyConfig config() const;

  /// Decode the full dataset from section views, with zero
  /// intermediate buffers.
  [[nodiscard]] dataset::StudyDataset dataset(
      const market::World& world = market::World::builtin()) const;

 private:
  /// Wrap an already-mapped file (verifies framing + footer index).
  explicit SnapshotView(MappedFile file);

  MappedFile file_;
  SnapshotInfo info_;
};

/// Order-sensitive bit-level content hash of a dataset: every field is
/// hashed by exact bit pattern (NaNs and -0.0 preserved, unlike
/// fingerprint hashing which canonicalizes). Two datasets hash equal iff
/// a snapshot round-trip of one reproduces the other exactly — the
/// equality the cache's byte-identical-output guarantee rests on.
[[nodiscard]] std::uint64_t content_hash(const dataset::StudyDataset& ds);

}  // namespace bblab::store
