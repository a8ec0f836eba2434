// Error handling primitives.
//
// broadband-lab uses exceptions for precondition violations and I/O
// failures (per C++ Core Guidelines E.2/E.3): analysis pipelines are batch
// jobs where unwinding to the top and reporting is exactly the right
// recovery. Hot simulator paths validate at construction time so the inner
// loops stay check-free.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace bblab {

/// Thrown when a caller violates a documented precondition.
class InvalidArgument : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown by stats kernels when an operation that must read at least one
/// value (quantile, ECDF evaluation, min/max) is applied to an empty
/// column — typically because every input was NaN-filtered away. A
/// subclass of InvalidArgument (it is a precondition violation) but
/// typed, so analysis drivers can distinguish "no data after filtering"
/// from a programming error and degrade gracefully.
class EmptyColumn : public InvalidArgument {
 public:
  using InvalidArgument::InvalidArgument;
};

/// Thrown on file / parse failures in the dataset layer. IoError itself
/// denotes a *permanent* failure (ENOSPC, EROFS, a missing file): retrying
/// the same operation cannot succeed, so callers degrade or abort.
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A *transient* I/O failure (EIO on flaky media, EAGAIN, EINTR storms,
/// fd exhaustion): the same operation may well succeed if retried. The
/// retry machinery in core/retry.h retries exactly this type — everything
/// else propagates immediately. Keeping the taxonomy in the type system
/// means a catch site never has to parse errno strings to decide.
class TransientIoError : public IoError {
 public:
  using IoError::IoError;
};

/// Thrown cooperatively when a unit of work (a run shard) overruns its
/// watchdog deadline. Deliberately NOT an IoError: a timeout is neither
/// transient (retrying a hung shard re-hangs it) nor a storage fault; it
/// is its own degradation path (quarantine the shard, complete the run).
class DeadlineExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when an analysis cannot proceed (e.g. empty matched set where the
/// study design requires pairs).
class AnalysisError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when the deterministic fault-injection layer (src/faults) fires a
/// planned hard failure. Kept distinct from IoError so quarantine reports
/// can attribute a failure to the plan rather than to a genuine bug.
class InjectedFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Why a unit (CSV row, simulated household, user record) was excluded from
/// a lenient run instead of aborting it — the typed taxonomy behind
/// core::QuarantineReport. The real study's inputs carried every one of
/// these pathologies (hosts churning out, unparseable rows, counters
/// resetting, users with too little coverage).
enum class QuarantineReason {
  kMalformedRow,          ///< CSV record that cannot be tokenized at all
  kWrongFieldCount,       ///< parsed, but the wrong number of columns
  kBadValue,              ///< a field failed numeric/typed conversion
  kDuplicateKey,          ///< a second row for an already-seen unique key
  kHouseholdFailure,      ///< a simulated household threw; unit isolated
  kInjectedFault,         ///< a fault-plan hard failure fired on purpose
  kInsufficientCoverage,  ///< below the minimum-coverage admission rule
  kChecksumMismatch,      ///< a binary snapshot section failed its checksum
  kFormatMismatch,        ///< a binary snapshot's framing/version is wrong
  kIoFailure,             ///< a shard exhausted its I/O retries (permanent)
  kDeadlineExceeded,      ///< a shard overran its watchdog deadline
};

/// Last enumerator, for tag-validation when decoding persisted reasons.
inline constexpr QuarantineReason kMaxQuarantineReason =
    QuarantineReason::kDeadlineExceeded;

[[nodiscard]] const char* quarantine_reason_label(QuarantineReason reason);

/// Validate a caller-supplied precondition; throws InvalidArgument.
///
/// Preconditions sit inside per-bin, per-flow and per-pair loops, so the
/// success path must cost one branch and allocate nothing: the message is
/// a view (normally a string literal) and becomes a std::string only
/// inside the throw. Never build a message before the check — a call like
/// `require(ok, "unknown " + key)` allocates on every call, even when it
/// passes. Where the message needs runtime data, test first and build the
/// message in the failure branch: `if (!ok) throw InvalidArgument{...}`.
inline void require(bool condition, std::string_view message) {
  if (!condition) throw InvalidArgument{std::string{message}};
}

}  // namespace bblab
