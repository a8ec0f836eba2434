#include "analysis/common.h"

#include <algorithm>
#include <cmath>

namespace bblab::analysis {

using dataset::UserRecord;

std::vector<RecordPtr> coverage_filter(std::span<const RecordPtr> records,
                                       const dataset::CoverageRule& rule,
                                       double bin_s, core::QuarantineReport* qc) {
  std::vector<RecordPtr> out;
  out.reserve(records.size());
  for (const auto* r : records) {
    if (rule.admits(r->usage, bin_s)) {
      out.push_back(r);
      if (qc != nullptr) qc->note_admitted();
    } else if (qc != nullptr) {
      qc->add(static_cast<std::size_t>(r->user_id),
              QuarantineReason::kInsufficientCoverage,
              "user " + std::to_string(r->user_id),
              std::to_string(r->usage.samples) + " samples below coverage floor");
    }
  }
  return out;
}

std::vector<RecordPtr> dasu_records(const dataset::StudyDataset& ds) {
  std::vector<RecordPtr> out;
  out.reserve(ds.dasu.size());
  for (const auto& r : ds.dasu) out.push_back(&r);
  return coverage_filter(out, ds.config.coverage, ds.config.dasu_bin_s);
}

std::vector<RecordPtr> fcc_records(const dataset::StudyDataset& ds) {
  std::vector<RecordPtr> out;
  out.reserve(ds.fcc.size());
  for (const auto& r : ds.fcc) out.push_back(&r);
  // FCC gateways report hourly totals regardless of the Dasu bin width.
  return coverage_filter(out, ds.config.coverage, 3600.0);
}

std::vector<RecordPtr> filter(
    std::span<const RecordPtr> records,
    const std::function<bool(const dataset::UserRecord&)>& keep) {
  std::vector<RecordPtr> out;
  for (const auto* r : records) {
    if (keep(*r)) out.push_back(r);
  }
  return out;
}

std::vector<double> column(
    std::span<const RecordPtr> records,
    const std::function<double(const dataset::UserRecord&)>& get) {
  std::vector<double> out;
  out.reserve(records.size());
  for (const auto* r : records) out.push_back(get(*r));
  return out;
}

RecordColumns extract_columns(std::span<const RecordPtr> records) {
  RecordColumns cols;
  const std::size_t n = records.size();
  cols.capacity_mbps.reserve(n);
  cols.rtt_ms.reserve(n);
  cols.loss_pct.reserve(n);
  cols.peak_utilization_no_bt.reserve(n);
  cols.year.reserve(n);
  cols.country.reserve(n);
  cols.user_id.reserve(n);
  for (const auto* r : records) {
    cols.capacity_mbps.push_back(r->capacity.mbps());
    cols.rtt_ms.push_back(r->rtt_ms);
    cols.loss_pct.push_back(r->loss * 100.0);
    cols.peak_utilization_no_bt.push_back(std::min(1.0, r->peak_utilization_no_bt()));
    cols.year.push_back(static_cast<std::uint64_t>(r->year));
    cols.country.push_back(pack_country(r->country_code));
    cols.user_id.push_back(r->user_id);
  }
  return cols;
}

std::uint64_t pack_country(std::string_view code) {
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < code.size() && i < 8; ++i) {
    key |= static_cast<std::uint64_t>(static_cast<unsigned char>(code[i]))
           << (8 * (7 - i));
  }
  return key;
}

std::vector<double> gather(std::span<const double> col,
                           std::span<const std::uint32_t> idx) {
  std::vector<double> out;
  out.reserve(idx.size());
  for (const std::uint32_t i : idx) out.push_back(col[i]);
  return out;
}

std::vector<std::vector<RecordPtr>> partition(std::span<const RecordPtr> records,
                                              const stats::EdgeBins& bands, Field field) {
  return partition(records, bands.count(), [&](const UserRecord& r) {
    return bands.bin_of(field_value(r, field)).value_or(bands.count());
  });
}

causal::UnitTable make_units(std::span<const RecordPtr> records, Field outcome,
                             std::span<const Field> covariates) {
  causal::UnitTable units{covariates.size()};
  units.reserve(records.size());
  std::vector<double> row(covariates.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const double y = field_value(*records[i], outcome);
    bool ok = std::isfinite(y);
    for (std::size_t j = 0; ok && j < covariates.size(); ++j) {
      row[j] = field_value(*records[i], covariates[j]);
      ok = std::isfinite(row[j]);
    }
    if (ok) units.push_back(y, row, i);
  }
  return units;
}

}  // namespace bblab::analysis
