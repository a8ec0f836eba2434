#include "measurement/usage.h"

#include <span>

#include "stats/quantile.h"

namespace bblab::measurement {
namespace {

double sum_in_order(std::span<const double> xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum;
}

}  // namespace

UsageSummary summarize(SummaryColumns& columns) {
  UsageSummary s;
  s.samples = columns.down.size();
  s.samples_no_bt = columns.down_no_bt.size();
  if (s.samples == 0) return s;

  const auto n = static_cast<double>(s.samples);
  s.mean_down = Rate::from_bps(sum_in_order(columns.down) / n);
  s.mean_up = Rate::from_bps(sum_in_order(columns.up) / n);
  s.peak_down = Rate::from_bps(stats::quantile_select(columns.down, 0.95));
  s.peak_up = Rate::from_bps(stats::quantile_select(columns.up, 0.95));
  if (s.samples_no_bt > 0) {
    s.mean_down_no_bt = Rate::from_bps(sum_in_order(columns.down_no_bt) /
                                       static_cast<double>(s.samples_no_bt));
    s.peak_down_no_bt =
        Rate::from_bps(stats::quantile_select(columns.down_no_bt, 0.95));
  }
  return s;
}

}  // namespace bblab::measurement
