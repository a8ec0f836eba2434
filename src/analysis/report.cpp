#include "analysis/report.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <ostream>

namespace bblab::analysis {

void print_banner(std::ostream& out, const std::string& title) {
  out << "\n== " << title << " ==\n";
}

void print_series(std::ostream& out, const std::string& name, const BinSeries& series) {
  out << "  " << name << " (r=" << num(series.r) << ")\n";
  std::array<char, 160> buf{};
  for (const auto& p : series.points) {
    std::snprintf(buf.data(), buf.size(),
                  "    %9.3f Mbps -> %9.4f Mbps  ± %-8.4f (n=%zu)\n", p.capacity_mbps,
                  p.usage_mbps.mean, p.usage_mbps.half_width, p.users);
    out << buf.data();
  }
}

void print_ecdf(std::ostream& out, const std::string& name, const stats::Ecdf& ecdf,
                const std::string& unit) {
  out << "  " << name << " (n=" << ecdf.size();
  // Surface silently-missing data: an ECDF built from a column with NaN
  // entries dropped them, and a reader comparing n against the population
  // should see why. Zero drops (the common case) prints exactly as before.
  if (ecdf.dropped() > 0) out << ", " << ecdf.dropped() << " NaN dropped";
  out << (unit.empty() ? "" : ", " + unit) << "): " << ecdf.summary() << "\n";
}

void print_experiment(std::ostream& out, const causal::ExperimentResult& result) {
  out << "  " << result.to_string() << "\n";
}

void print_quarantine(std::ostream& out, const core::QuarantineReport& report,
                      std::size_t max_rows) {
  out << "  QC: " << report.summary() << " (failure rate "
      << pct(report.failure_rate()) << ")\n";
  if (report.empty()) return;
  constexpr std::array<QuarantineReason, 7> kAll{
      QuarantineReason::kMalformedRow,     QuarantineReason::kWrongFieldCount,
      QuarantineReason::kBadValue,         QuarantineReason::kDuplicateKey,
      QuarantineReason::kHouseholdFailure, QuarantineReason::kInjectedFault,
      QuarantineReason::kInsufficientCoverage};
  std::array<char, 200> buf{};
  for (const auto reason : kAll) {
    const std::size_t n = report.count(reason);
    if (n == 0) continue;
    std::snprintf(buf.data(), buf.size(), "    %-22s %zu\n",
                  quarantine_reason_label(reason), n);
    out << buf.data();
  }
  const std::size_t shown = std::min(max_rows, report.rows.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& row = report.rows[i];
    out << "    [" << row.index << "] " << quarantine_reason_label(row.reason)
        << ": " << row.detail;
    if (!row.raw.empty()) out << "  | " << row.raw;
    out << "\n";
  }
  if (report.rows.size() > shown) {
    out << "    ... " << report.rows.size() - shown << " more\n";
  }
}

std::string pct(double fraction, int decimals) {
  std::array<char, 48> buf{};
  std::snprintf(buf.data(), buf.size(), "%.*f%%", decimals, fraction * 100.0);
  return std::string{buf.data()};
}

std::string num(double value, int significant) {
  std::array<char, 48> buf{};
  std::snprintf(buf.data(), buf.size(), "%.*g", significant, value);
  return std::string{buf.data()};
}

}  // namespace bblab::analysis
