// Text rendering for the artifact registry (analysis/render.h): every
// figure and table prints its series, ECDFs and experiment rows with
// these helpers, so the format is uniform across artifacts.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "analysis/figures.h"
#include "causal/experiment.h"
#include "core/quarantine.h"
#include "stats/ecdf.h"

namespace bblab::analysis {

/// "== Figure 2 — usage vs capacity ==" style banner.
void print_banner(std::ostream& out, const std::string& title);

/// A BinSeries as an aligned table of capacity -> usage ± CI.
void print_series(std::ostream& out, const std::string& name, const BinSeries& series);

/// An ECDF as quantile milestones.
void print_ecdf(std::ostream& out, const std::string& name, const stats::Ecdf& ecdf,
                const std::string& unit = "");

/// An experiment result as a table row.
void print_experiment(std::ostream& out, const causal::ExperimentResult& result);

/// A quarantine report as a QC summary table: per-reason counts plus up
/// to `max_rows` example rows with their raw text and diagnosis.
void print_quarantine(std::ostream& out, const core::QuarantineReport& report,
                      std::size_t max_rows = 10);

/// Format helpers.
[[nodiscard]] std::string pct(double fraction, int decimals = 1);
[[nodiscard]] std::string num(double value, int significant = 3);

}  // namespace bblab::analysis
