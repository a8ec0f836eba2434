#include "faults/fs_faults.h"

#include <csignal>
#include <limits>
#include <sstream>
#include <string_view>

#include "core/error.h"
#include "core/logging.h"
#include "core/parse.h"

namespace bblab::faults {

namespace {

[[nodiscard]] std::optional<FsFault::Kind> parse_kind(const std::string& name) {
  if (name == "enospc") return FsFault::Kind::kEnospc;
  if (name == "eio") return FsFault::Kind::kEio;
  if (name == "torn") return FsFault::Kind::kTorn;
  if (name == "crash") return FsFault::Kind::kCrash;
  if (name == "kill") return FsFault::Kind::kKill;
  return std::nullopt;
}

[[noreturn]] void bad_spec(const std::string& term) {
  throw InvalidArgument{
      "bad fs-fault term '" + term +
      "' (want kind@index[xTIMES] with kind one of enospc|eio|torn|crash|kill)"};
}

/// A decimal count written as digits only: no sign, no space, no other
/// character, and no value above `max`. nullopt otherwise.
[[nodiscard]] std::optional<std::uint64_t> parse_digits(std::string_view text,
                                                        std::uint64_t max) {
  const std::optional<std::uint64_t> value = parse_number<std::uint64_t>(text);
  if (!value || *value > max) return std::nullopt;
  return value;
}

[[nodiscard]] FsFault parse_term(const std::string& term) {
  const std::size_t at_pos = term.find('@');
  if (at_pos == std::string::npos || at_pos == 0) bad_spec(term);
  const std::optional<FsFault::Kind> kind = parse_kind(term.substr(0, at_pos));
  if (!kind) bad_spec(term);

  std::string_view rest = std::string_view{term}.substr(at_pos + 1);
  std::uint64_t times = 1;
  const std::size_t x_pos = rest.find('x');
  if (x_pos != std::string_view::npos) {
    const std::optional<std::uint64_t> parsed = parse_digits(
        rest.substr(x_pos + 1), static_cast<std::uint64_t>(std::numeric_limits<int>::max()));
    if (!parsed || *parsed < 1) bad_spec(term);
    times = *parsed;
    rest = rest.substr(0, x_pos);
  }
  const std::optional<std::uint64_t> at =
      parse_digits(rest, std::numeric_limits<std::uint64_t>::max());
  if (!at) bad_spec(term);
  return FsFault{*kind, *at, static_cast<int>(times)};
}

}  // namespace

const char* fs_fault_kind_label(FsFault::Kind kind) {
  switch (kind) {
    case FsFault::Kind::kEnospc:
      return "enospc";
    case FsFault::Kind::kEio:
      return "eio";
    case FsFault::Kind::kTorn:
      return "torn";
    case FsFault::Kind::kCrash:
      return "crash";
    case FsFault::Kind::kKill:
      return "kill";
  }
  return "?";
}

std::string FsFaultPlan::summary() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (i > 0) out << ' ';
    out << fs_fault_kind_label(faults[i].kind) << '@' << faults[i].at;
    if (faults[i].times != 1) out << 'x' << faults[i].times;
  }
  return out.str();
}

FsFaultPlan FsFaultPlan::parse(const std::string& spec) {
  FsFaultPlan plan;
  std::string term;
  std::istringstream in{spec};
  while (std::getline(in, term, ',')) {
    if (term.empty()) continue;
    plan.faults.push_back(parse_term(term));
  }
  return plan;
}

FaultFileSystem::FaultFileSystem(FsFaultPlan plan, core::FileSystem* base)
    : base_{base != nullptr ? base : &core::FileSystem::system()} {
  armed_.reserve(plan.faults.size());
  for (const FsFault& fault : plan.faults) {
    auto armed = std::make_unique<Armed>();
    armed->fault = fault;
    armed_.push_back(std::move(armed));
  }
}

std::optional<FsFault::Kind> FaultFileSystem::claim_fault() {
  const std::uint64_t op = next_op_.fetch_add(1, std::memory_order_relaxed);
  for (const std::unique_ptr<Armed>& armed : armed_) {
    if (op < armed->fault.at) continue;
    // Claim one of this fault's firings; back off if siblings already
    // used them all. fetch_add-then-check keeps the "at most `times`
    // firings total" invariant under concurrent mutating ops.
    if (armed->fired.fetch_add(1, std::memory_order_relaxed) < armed->fault.times) {
      return armed->fault.kind;
    }
    armed->fired.fetch_sub(1, std::memory_order_relaxed);
  }
  return std::nullopt;
}

bool FaultFileSystem::exists(const std::filesystem::path& path) {
  return base_->exists(path);  // reads don't consume op indices
}

std::string FaultFileSystem::read_file(const std::filesystem::path& path) {
  return base_->read_file(path);
}

void FaultFileSystem::create_directories(const std::filesystem::path& path) {
  const std::optional<FsFault::Kind> fault = claim_fault();
  if (fault) {
    switch (*fault) {
      case FsFault::Kind::kEnospc:
        throw IoError{"injected ENOSPC: create_directories " + path.string()};
      case FsFault::Kind::kEio:
        throw TransientIoError{"injected EIO: create_directories " +
                                     path.string()};
      case FsFault::Kind::kTorn:
        break;  // torn is meaningless for mkdir; fall through to success
      case FsFault::Kind::kCrash:
        throw InjectedCrash{"injected crash before create_directories " +
                            path.string()};
      case FsFault::Kind::kKill:
        std::raise(SIGKILL);
        break;
    }
  }
  base_->create_directories(path);
}

void FaultFileSystem::write_file(const std::filesystem::path& path,
                                 std::string_view data) {
  const std::optional<FsFault::Kind> fault = claim_fault();
  if (fault) {
    const std::string_view half = data.substr(0, data.size() / 2);
    switch (*fault) {
      case FsFault::Kind::kEnospc:
        base_->write_file(path, half);
        throw IoError{"injected ENOSPC: write " + path.string() + " after " +
                            std::to_string(half.size()) + " bytes"};
      case FsFault::Kind::kEio:
        throw TransientIoError{"injected EIO: write " + path.string()};
      case FsFault::Kind::kTorn:
        base_->write_file(path, half);
        return;  // silent short write: caller believes it succeeded
      case FsFault::Kind::kCrash:
        base_->write_file(path, half);
        throw InjectedCrash{"injected crash mid-write " + path.string()};
      case FsFault::Kind::kKill:
        base_->write_file(path, half);
        std::raise(SIGKILL);
        break;
    }
  }
  base_->write_file(path, data);
}

void FaultFileSystem::rename(const std::filesystem::path& from,
                             const std::filesystem::path& to) {
  const std::optional<FsFault::Kind> fault = claim_fault();
  if (fault) {
    switch (*fault) {
      case FsFault::Kind::kEnospc:
        throw IoError{"injected ENOSPC: rename " + from.string()};
      case FsFault::Kind::kEio:
        throw TransientIoError{"injected EIO: rename " + from.string()};
      case FsFault::Kind::kTorn:
        break;  // rename is atomic; torn degrades to success
      case FsFault::Kind::kCrash:
        // Crash *before* the rename: the tmp file exists, the published
        // name does not — the classic crash-before-publish window.
        throw InjectedCrash{"injected crash before rename " + from.string() +
                            " -> " + to.string()};
      case FsFault::Kind::kKill:
        std::raise(SIGKILL);
        break;
    }
  }
  base_->rename(from, to);
}

bool FaultFileSystem::remove(const std::filesystem::path& path) {
  const std::optional<FsFault::Kind> fault = claim_fault();
  if (fault) {
    switch (*fault) {
      case FsFault::Kind::kEnospc:
        throw IoError{"injected ENOSPC: remove " + path.string()};
      case FsFault::Kind::kEio:
        throw TransientIoError{"injected EIO: remove " + path.string()};
      case FsFault::Kind::kTorn:
        break;
      case FsFault::Kind::kCrash:
        throw InjectedCrash{"injected crash before remove " + path.string()};
      case FsFault::Kind::kKill:
        std::raise(SIGKILL);
        break;
    }
  }
  return base_->remove(path);
}

}  // namespace bblab::faults
