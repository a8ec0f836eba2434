#include "faults/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <string>

#include "core/error.h"
#include "core/hash.h"
#include "core/parse.h"

namespace bblab::faults {

namespace {

// Distinct fork salts so the series-fault and CSV-fault substreams of one
// plan never overlap even for pathological stream ids.
constexpr std::uint64_t kSeriesSalt = 0x5e21e5f4a17u;
constexpr std::uint64_t kCsvSalt = 0xc5bf0c0de17u;

/// `text` as a T (parse_number: the whole token, no blanks, no hex); a
/// floating-point value must also be finite.
template <typename T = double>
T parse_value(const std::string& key, const std::string& text) {
  const std::optional<T> v = parse_number<T>(text);
  if (!v || !std::isfinite(static_cast<double>(*v))) {
    throw InvalidArgument{"faults: bad value '" + text + "' for key '" + key + "'"};
  }
  return *v;
}

/// parse_value, then `valid(value)`; `range` names the accepted values.
template <typename Valid>
double parse_checked(const std::string& key, const std::string& text, const char* range,
                     Valid valid) {
  const double v = parse_value(key, text);
  if (!valid(v)) {
    throw InvalidArgument{"faults: value '" + text + "' for key '" + key +
                          "' is out of range (" + range + ")"};
  }
  return v;
}

double parse_probability(const std::string& key, const std::string& text) {
  return parse_checked(key, text, "a probability in [0, 1]",
                       [](double v) { return v >= 0.0 && v <= 1.0; });
}

double parse_hours(const std::string& key, const std::string& text) {
  return parse_checked(key, text, "hours > 0", [](double v) { return v > 0.0; });
}

}  // namespace

bool FaultPlan::any_series_faults() const {
  return churn_probability > 0 || blackout_probability > 0 ||
         reset_probability > 0 || spurious_wrap_probability > 0 ||
         clock_skew_probability > 0;
}

bool FaultPlan::any_csv_faults() const {
  return row_duplicate_probability > 0 || row_corrupt_probability > 0 ||
         row_truncate_probability > 0;
}

bool FaultPlan::empty() const {
  return !any_series_faults() && !any_csv_faults() &&
         household_failure_probability <= 0;
}

std::string FaultPlan::summary() const {
  if (empty()) return "no faults";
  std::ostringstream os;
  bool first = true;
  const auto emit = [&](const char* key, double value) {
    if (value <= 0) return;
    if (!first) os << ' ';
    os << key << '=' << value;
    first = false;
  };
  emit("churn", churn_probability);
  emit("blackout", blackout_probability);
  emit("reset", reset_probability);
  emit("wrap", spurious_wrap_probability);
  emit("skew", clock_skew_probability);
  emit("dup", row_duplicate_probability);
  emit("corrupt", row_corrupt_probability);
  emit("truncate", row_truncate_probability);
  emit("fail", household_failure_probability);
  return os.str();
}

void FaultPlan::fingerprint(core::Hasher& hasher) const {
  hasher.update_string("faults::FaultPlan");
  hasher.update_u64(seed);
  hasher.update_double(churn_probability);
  hasher.update_double(mean_outage_hours);
  hasher.update_double(blackout_probability);
  hasher.update_double(mean_blackout_hours);
  hasher.update_double(reset_probability);
  hasher.update_double(spurious_wrap_probability);
  hasher.update_double(clock_skew_probability);
  hasher.update_double(max_clock_skew_s);
  hasher.update_double(row_duplicate_probability);
  hasher.update_double(row_corrupt_probability);
  hasher.update_double(row_truncate_probability);
  hasher.update_double(household_failure_probability);
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  return parse(spec, FaultPlan{});
}

FaultPlan FaultPlan::parse(const std::string& spec, FaultPlan base) {
  FaultPlan plan = base;
  std::string token;
  std::istringstream in{spec};
  // Accept both "," and whitespace as pair separators.
  while (std::getline(in, token, ',')) {
    std::istringstream pairs{token};
    std::string pair;
    while (pairs >> pair) {
      const auto eq = pair.find('=');
      if (eq == std::string::npos) {
        throw InvalidArgument{"faults: expected key=value, got '" + pair + "'"};
      }
      const std::string key = pair.substr(0, eq);
      const std::string value = pair.substr(eq + 1);
      if (key == "seed") {
        plan.seed = parse_value<std::uint64_t>(key, value);
      } else if (key == "churn") {
        plan.churn_probability = parse_probability(key, value);
      } else if (key == "outage_h") {
        plan.mean_outage_hours = parse_hours(key, value);
      } else if (key == "blackout") {
        plan.blackout_probability = parse_probability(key, value);
      } else if (key == "blackout_h") {
        plan.mean_blackout_hours = parse_hours(key, value);
      } else if (key == "reset") {
        plan.reset_probability = parse_probability(key, value);
      } else if (key == "wrap") {
        plan.spurious_wrap_probability = parse_probability(key, value);
      } else if (key == "skew") {
        plan.clock_skew_probability = parse_probability(key, value);
      } else if (key == "skew_s") {
        plan.max_clock_skew_s = parse_checked(key, value, "seconds >= 0",
                                              [](double v) { return v >= 0.0; });
      } else if (key == "dup") {
        plan.row_duplicate_probability = parse_probability(key, value);
      } else if (key == "corrupt") {
        plan.row_corrupt_probability = parse_probability(key, value);
      } else if (key == "truncate") {
        plan.row_truncate_probability = parse_probability(key, value);
      } else if (key == "fail") {
        plan.household_failure_probability = parse_probability(key, value);
      } else {
        throw InvalidArgument{"faults: unknown key '" + key + "'"};
      }
    }
  }
  return plan;
}

bool HouseholdFaults::in_dropped(double t) const {
  return std::any_of(dropped.begin(), dropped.end(),
                     [t](const TimeWindow& w) { return w.contains(t); });
}

HouseholdFaults materialize(const FaultPlan& plan, std::uint64_t stream_id,
                            double t0, double t1) {
  // One substream per household, independent of thread schedule. Every
  // decision below is drawn unconditionally and in a fixed order so that
  // enabling one knob never shifts another knob's randomness.
  Rng rng = Rng{plan.seed}.fork(stream_id ^ kSeriesSalt);
  const double span = std::max(t1 - t0, 0.0);

  const bool churn = rng.bernoulli(plan.churn_probability);
  const double churn_start = t0 + span * rng.uniform();
  const double churn_len =
      rng.exponential(1.0 / (std::max(plan.mean_outage_hours, 1e-9) * 3600.0));

  const bool blackout = rng.bernoulli(plan.blackout_probability);
  const double blackout_start = t0 + span * rng.uniform();
  const double blackout_len =
      rng.exponential(1.0 / (std::max(plan.mean_blackout_hours, 1e-9) * 3600.0));

  const bool reset = rng.bernoulli(plan.reset_probability);
  const double reset_at = t0 + span * rng.uniform();

  const bool wrap = rng.bernoulli(plan.spurious_wrap_probability);
  const double wrap_at = t0 + span * rng.uniform();

  // The clock skew is drawn so that every later draw keeps its place,
  // but nothing reads it: the summaries never read a sample's timestamp.
  (void)rng.bernoulli(plan.clock_skew_probability);
  (void)rng.uniform(-plan.max_clock_skew_s, plan.max_clock_skew_s);

  const bool fail = rng.bernoulli(plan.household_failure_probability);

  HouseholdFaults out;
  if (churn && span > 0) {
    out.dropped.push_back({churn_start, std::min(churn_start + churn_len, t1)});
  }
  if (blackout && span > 0) {
    out.dropped.push_back(
        {blackout_start, std::min(blackout_start + blackout_len, t1)});
  }
  if (reset) out.reset_time = reset_at;
  if (wrap) out.spurious_wrap_time = wrap_at;
  out.fail_household = fail;
  return out;
}

std::string corrupt_csv(const std::string& text, const FaultPlan& plan,
                        std::uint64_t salt) {
  if (!plan.any_csv_faults() || text.empty()) return text;
  const Rng root = Rng{plan.seed}.fork(kCsvSalt ^ salt);

  std::string out;
  out.reserve(text.size() + text.size() / 8);
  std::size_t pos = 0;
  std::size_t line_index = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const bool has_nl = nl != std::string::npos;
    std::string line = text.substr(pos, (has_nl ? nl : text.size()) - pos);
    pos = has_nl ? nl + 1 : text.size();

    if (line_index == 0) {
      // Never damage the header: a lost header is total (not graceful)
      // degradation, and real collectors wrote it once per file.
      out += line;
      if (has_nl) out += '\n';
      ++line_index;
      continue;
    }

    // Per-line substream; draws are unconditional (see materialize()).
    Rng rng = root.fork(line_index);
    const bool duplicate = rng.bernoulli(plan.row_duplicate_probability);
    const bool corrupt = rng.bernoulli(plan.row_corrupt_probability);
    const std::uint64_t corrupt_pos = rng.next_u64();
    const bool truncate = rng.bernoulli(plan.row_truncate_probability);
    const std::uint64_t truncate_pos = rng.next_u64();

    if (duplicate) {
      out += line;
      out += '\n';
    }
    if (corrupt && !line.empty()) line[corrupt_pos % line.size()] = '#';
    if (truncate && !line.empty()) line.resize(truncate_pos % line.size());
    out += line;
    if (has_nl) out += '\n';
    ++line_index;
  }
  return out;
}

}  // namespace bblab::faults
