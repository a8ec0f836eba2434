// Property tests for the exact diurnal squeeze (netsim::DiurnalSqueeze).
//
// The squeeze decides `u < offset + scale * activity(t)` without
// evaluating the activity at most points. Its claim is exactness: every
// decision, every sample and every arrival equals what evaluating the
// activity at each point gives. These tests check that claim against
// in-test references of the direct loops, over random diurnal parameters
// (weekend lift below and above 1, night floor 0-0.9), phase shifts of
// +-12 h, bin widths of 1-3600 s and windows that cross midnight and the
// weekend boundaries.
#include "netsim/diurnal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "measurement/collectors.h"
#include "measurement/counters.h"
#include "netsim/workload.h"

namespace bblab {
namespace {

netsim::DiurnalParams random_params(Rng& rng, bool lift_above_one) {
  netsim::DiurnalParams p;
  p.peak_hour = rng.uniform(0.0, 24.0);
  p.night_floor = rng.uniform(0.0, 0.9);
  p.weekend_lift = lift_above_one ? rng.uniform(1.0, 2.0) : rng.uniform(0.3, 1.0);
  return p;
}

SimClock random_clock(Rng& rng) {
  return SimClock{2011, static_cast<int>(rng.uniform_int(0, 6))};
}

/// A whole day whose midnight starts or ends a weekend for `clock`.
std::int64_t weekend_edge_day(Rng& rng, const SimClock& clock) {
  while (true) {
    const std::int64_t day = rng.uniform_int(1, 3 * 364);
    const int dow = clock.weekday_of_day(day);
    if (dow == 4 || dow == 6) return day;  // Friday -> Saturday, Sunday -> Monday
  }
}

TEST(DiurnalSqueeze, DecisionsEqualDirectComparison) {
  Rng rng{20141105};
  for (int trial = 0; trial < 200; ++trial) {
    const auto params = random_params(rng, trial % 2 == 0);
    const netsim::DiurnalModel model{params, random_clock(rng)};
    const double phase = rng.uniform(-12.0, 12.0);
    const double offset = trial % 3 == 0 ? 0.0 : rng.uniform(0.0, 0.5);
    const double scale = trial % 3 == 0 ? 1.0 : 1.0 - offset;
    netsim::DiurnalSqueeze squeeze{params, offset, scale};
    // Mostly forward steps of seconds to hours, with day-long jumps and
    // the occasional step back (the squeeze takes any order).
    SimTime t = static_cast<double>(weekend_edge_day(rng, model.clock())) * kDay -
                rng.uniform(0.0, kDay);
    for (int i = 0; i < 2000; ++i) {
      const double kind = rng.uniform();
      if (kind < 0.9) {
        t += rng.exponential(1.0 / rng.uniform(1.0, 900.0));
      } else if (kind < 0.97) {
        t += rng.uniform(0.5, 2.0) * kDay;
      } else {
        t -= rng.uniform(0.0, 3.0 * kHour);
      }
      const double level = offset + scale * model.activity(t, phase);
      // Half the draws sit on or next to the threshold itself.
      double u = rng.uniform();
      const double pick = rng.uniform();
      if (pick < 0.15) {
        u = level;
      } else if (pick < 0.3) {
        u = std::nextafter(level, 0.0);
      } else if (pick < 0.45) {
        u = std::nextafter(level, 2.0);
      } else if (pick < 0.5) {
        u = level + rng.uniform(-1e-9, 1e-9);
      }
      const bool decided = squeeze.below(u, t, [&] { return model.activity(t, phase); });
      ASSERT_EQ(decided, u < level) << "trial " << trial << " step " << i << " t " << t;
    }
  }
}

TEST(DiurnalSqueeze, SkipsMostEvaluationsOnA30sGrid) {
  // Guards against a squeeze that is exact only because it always falls
  // back to the direct evaluation: on the Dasu grid most draws must be
  // decided without it.
  const netsim::DiurnalParams params;
  const netsim::DiurnalModel model{params, SimClock{2011}};
  netsim::DiurnalSqueeze squeeze{params, 0.25, 0.75};
  Rng rng{7};
  std::size_t evaluations = 0;
  constexpr std::size_t kPoints = 14 * 2880;  // two weeks of 30 s bins
  for (std::size_t i = 1; i <= kPoints; ++i) {
    const SimTime t = 30.0 * static_cast<double>(i);
    (void)squeeze.below(rng.uniform(), t, [&] {
      ++evaluations;
      return model.activity(t, 0.7);
    });
  }
  EXPECT_LT(evaluations, kPoints / 5);
  EXPECT_GE(evaluations, 14u);  // at least one anchor per day
}

// --- Dasu collector ----------------------------------------------------

/// One Dasu sample as the collector hands it to its sink.
struct DasuSample {
  SimTime time{0.0};
  double interval_s{0.0};
  Rate down;
  Rate up;
  bool bt_active{false};
};

/// The Dasu sampling loop as it reads with the activity evaluated at
/// every bin boundary.
std::vector<DasuSample> reference_collect(const measurement::DasuCollectorParams& p,
                                          const netsim::DiurnalModel& diurnal,
                                          const netsim::BinnedUsage& truth,
                                          double phase, Rng& rng) {
  using measurement::CounterKind;
  std::vector<DasuSample> series;
  if (truth.bins() == 0) return series;
  const measurement::CounterReader counter{
      rng.bernoulli(p.upnp_share) ? CounterKind::kUpnp32 : CounterKind::kNetstat64};
  double down_total = 0.0;
  double up_total = 0.0;
  double bt_seconds = 0.0;
  std::uint64_t last_down = counter.read(0.0);
  std::uint64_t last_up = counter.read(0.0);
  SimTime last_time = truth.start;
  for (std::size_t i = 0; i < truth.bins(); ++i) {
    down_total += truth.down_bytes[i];
    up_total += truth.up_bytes[i];
    bt_seconds += truth.bt_active_s[i];
    const SimTime boundary = truth.start + static_cast<double>(i + 1) * truth.bin_width_s;
    const double availability =
        p.availability_floor +
        (1.0 - p.availability_floor) * diurnal.activity(boundary, phase);
    if (!rng.bernoulli(availability)) continue;
    if (rng.bernoulli(p.sample_loss)) continue;
    const std::uint64_t down = counter.read(down_total);
    const std::uint64_t up = counter.read(up_total);
    const double interval = boundary - last_time;
    series.push_back(DasuSample{
        boundary, interval,
        rate_over(
            static_cast<double>(measurement::counter_delta(last_down, down, counter.bits())),
            interval),
        rate_over(
            static_cast<double>(measurement::counter_delta(last_up, up, counter.bits())),
            interval),
        bt_seconds > 0.0});
    last_down = down;
    last_up = up;
    last_time = boundary;
    bt_seconds = 0.0;
  }
  return series;
}

TEST(DiurnalSqueeze, DasuCollectorEqualsDirectLoop) {
  Rng rng{1105};
  for (int trial = 0; trial < 120; ++trial) {
    const auto params = random_params(rng, trial % 2 == 0);
    const netsim::DiurnalModel diurnal{params, random_clock(rng)};
    measurement::DasuCollectorParams cp;
    cp.availability_floor = rng.uniform(0.0, 0.6);
    cp.upnp_share = 0.5;
    cp.sample_loss = rng.uniform(0.0, 0.1);
    const measurement::DasuCollector collector{cp, diurnal};

    // A whole-second grid centred on a weekend-edge midnight, at most ten
    // days and 6000 bins long.
    netsim::BinnedUsage truth;
    truth.bin_width_s = static_cast<double>(rng.uniform_int(1, 3600));
    const auto bins = static_cast<std::size_t>(
        std::min(6000.0, std::ceil(10.0 * kDay / truth.bin_width_s)));
    const double span = static_cast<double>(bins) * truth.bin_width_s;
    const double edge = static_cast<double>(weekend_edge_day(rng, diurnal.clock())) * kDay;
    truth.start = std::max(0.0, edge - std::floor(rng.uniform(0.2, 0.8) * span));
    for (std::size_t i = 0; i < bins; ++i) {
      truth.down_bytes.push_back(rng.bernoulli(0.2) ? 0.0 : rng.lognormal(15.0, 2.0));
      truth.up_bytes.push_back(rng.lognormal(12.0, 1.5));
      truth.bt_active_s.push_back(rng.bernoulli(0.3) ? rng.uniform(0.5, 1.0) : 0.0);
    }
    const double phase = rng.uniform(-12.0, 12.0);

    const std::uint64_t seed = rng.next_u64();
    Rng direct_rng{seed};
    Rng series_rng{seed};
    const auto expected = reference_collect(cp, diurnal, truth, phase, direct_rng);
    std::vector<DasuSample> series;
    collector.sample(truth, phase, series_rng,
                     [&](SimTime time, double interval_s, Rate down, Rate up,
                         bool bt_active) {
                       series.push_back(DasuSample{time, interval_s, down, up, bt_active});
                     });

    ASSERT_EQ(series.size(), expected.size()) << "trial " << trial;
    for (std::size_t i = 0; i < series.size(); ++i) {
      const auto& a = series[i];
      const auto& b = expected[i];
      ASSERT_EQ(a.time, b.time) << "trial " << trial << " sample " << i;
      ASSERT_EQ(a.interval_s, b.interval_s);
      ASSERT_EQ(a.down.bps(), b.down.bps());
      ASSERT_EQ(a.up.bps(), b.up.bps());
      ASSERT_EQ(a.bt_active, b.bt_active);
    }
    const std::uint64_t next = direct_rng.next_u64();
    EXPECT_EQ(series_rng.next_u64(), next) << "draw counts differ, trial " << trial;
  }
}

// --- Workload thinning --------------------------------------------------

/// Non-homogeneous Poisson arrivals by thinning, evaluating the activity
/// at every candidate.
std::vector<SimTime> reference_arrivals(const netsim::DiurnalModel& diurnal,
                                        double peak_per_hour, SimTime t0, SimTime t1,
                                        double phase, Rng& rng) {
  std::vector<SimTime> out;
  const double rate_per_s = peak_per_hour / kHour;
  SimTime t = t0;
  while (true) {
    t += rng.exponential(rate_per_s);
    if (t >= t1) break;
    if (rng.uniform() < diurnal.activity(t, phase)) out.push_back(t);
  }
  return out;
}

enum class Stream { kWeb, kVideo, kBulk, kBitTorrent, kVoip, kUpdate };

/// Constants and params under which only `stream` draws arrivals, at
/// about `per_hour` candidates per hour; returns the peak rate the
/// generator computes for it, by the generator's own expression.
double isolate(Stream stream, double per_hour, netsim::WorkloadConstants& c,
               netsim::WorkloadParams& p) {
  c.web_sessions_per_hour_peak = stream == Stream::kWeb ? per_hour : 0.0;
  c.video_sessions_per_hour_peak = stream == Stream::kVideo ? per_hour : 0.0;
  c.bulk_sessions_per_hour_peak = stream == Stream::kBulk ? per_hour : 0.0;
  c.voip_sessions_per_hour_peak = stream == Stream::kVoip ? per_hour : 0.0;
  // The update rate is per day and scaled by sqrt(heavy_intensity) = 1.
  c.update_sessions_per_day = stream == Stream::kUpdate ? 24.0 * per_hour : 0.0;
  p.bt_sessions_per_day = stream == Stream::kBitTorrent ? 24.0 * per_hour : 0.0;
  p.intensity = 1.0;
  p.heavy_intensity = 1.0;
  switch (stream) {
    case Stream::kUpdate:
      return c.update_sessions_per_day / 24.0 *
             std::sqrt(std::max(0.1, p.heavy_intensity));
    case Stream::kBitTorrent: return p.bt_sessions_per_day / 24.0;
    default: return per_hour;  // a per-hour constant times intensity 1
  }
}

/// The arrival times of `stream` among generated flows.
std::vector<SimTime> arrivals_of(Stream stream, const std::vector<netsim::Flow>& flows) {
  using netsim::AppKind;
  std::vector<SimTime> out;
  for (const auto& f : flows) {
    if (f.direction != netsim::Direction::kDown) continue;
    const bool match = [&] {
      switch (stream) {
        case Stream::kWeb: return f.app == AppKind::kWeb;
        case Stream::kVideo: return f.app == AppKind::kVideo;
        case Stream::kBulk: return f.app == AppKind::kBulk;
        case Stream::kBitTorrent: return f.app == AppKind::kBitTorrent;
        case Stream::kVoip: return f.app == AppKind::kVoip;
        case Stream::kUpdate: return f.app == AppKind::kBackground && f.volume_bound();
      }
      return false;
    }();
    if (match) out.push_back(f.start);
  }
  return out;
}

TEST(DiurnalSqueeze, GeneratedArrivalsEqualDirectThinning) {
  Rng rng{2014};
  std::vector<netsim::Flow> flows;
  std::vector<SimTime> scratch;
  for (int trial = 0; trial < 180; ++trial) {
    const auto params = random_params(rng, trial % 2 == 0);
    const netsim::DiurnalModel diurnal{params, random_clock(rng)};
    const auto stream = static_cast<Stream>(trial % 6);
    const double per_hour = std::exp(rng.uniform(std::log(0.05), std::log(200.0)));
    netsim::WorkloadConstants constants;
    netsim::WorkloadParams wp;
    const double peak_per_hour = isolate(stream, per_hour, constants, wp);
    wp.phase_shift_hours = rng.uniform(-12.0, 12.0);
    const netsim::WorkloadGenerator gen{diurnal, netsim::TcpModel{}, constants};
    netsim::AccessLink link;
    link.down = Rate::from_mbps(rng.uniform(1.0, 50.0));

    // Windows of up to three days around a weekend-edge midnight, at
    // arbitrary (not whole-second) times.
    const double edge = static_cast<double>(weekend_edge_day(rng, diurnal.clock())) * kDay;
    const SimTime t0 = edge - rng.uniform(0.0, 1.5 * kDay);
    const SimTime t1 = edge + rng.uniform(0.1, 1.5) * kDay;

    const std::uint64_t seed = rng.next_u64();
    Rng direct_rng{seed};
    Rng gen_rng{seed};
    const auto expected =
        reference_arrivals(diurnal, peak_per_hour, t0, t1, wp.phase_shift_hours, direct_rng);
    gen.generate(wp, link, t0, t1, gen_rng, flows, scratch);
    const auto got = arrivals_of(stream, flows);
    ASSERT_EQ(got.size(), expected.size()) << "trial " << trial;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], expected[i]) << "trial " << trial << " arrival " << i;
    }
    // The buffer-filling and the returning generate are one implementation.
    Rng copy_rng{seed};
    const auto copied = gen.generate(wp, link, t0, t1, copy_rng);
    ASSERT_EQ(copied.size(), flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
      EXPECT_EQ(copied[i].start, flows[i].start);
      EXPECT_EQ(copied[i].volume_bytes, flows[i].volume_bytes);
      EXPECT_EQ(copied[i].duration_s, flows[i].duration_s);
    }
  }
}

}  // namespace
}  // namespace bblab
