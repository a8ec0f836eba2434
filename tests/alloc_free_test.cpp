// Allocation regression checks for the simulate hot path. This binary
// replaces the global operator new with a counting one, so a check reads
// "this many heap allocations happened between two points". Sanitizer
// builds install their own allocator, so CMake leaves this test out of
// them (and out of the sanitizer-smoke labels).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/error.h"
#include "core/rng.h"
#include "core/time.h"
#include "measurement/collectors.h"
#include "measurement/counters.h"
#include "measurement/pipeline.h"
#include "netsim/diurnal.h"
#include "netsim/fluid.h"
#include "netsim/workload.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace bblab {
namespace {

std::size_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

TEST(AllocFree, CountingAllocatorSeesAllocations) {
  // Guard against a vacuous pass: the hook must observe real allocations.
  const std::size_t before = allocations();
  void* volatile block = ::operator new(64);
  const std::size_t after = allocations();
  ::operator delete(block);
  EXPECT_EQ(after - before, 1u);
}

TEST(AllocFree, PassingRequireAllocatesNothing) {
  // Messages far beyond the small-string buffer: building a std::string
  // from any of them would allocate.
  volatile bool ok = true;
  const std::size_t before = allocations();
  for (int i = 0; i < 10000; ++i) {
    require(ok, "AllocFree: a precondition message long enough to need the heap");
    require(ok && i >= 0, "AllocFree: a second, equally long precondition message here");
  }
  const std::size_t after = allocations();
  EXPECT_EQ(after - before, 0u);
  EXPECT_THROW(require(!ok, "AllocFree: failing checks still throw"), InvalidArgument);
}

TEST(AllocFree, CounterReadsAllocateNothing) {
  const measurement::CounterReader counter{measurement::CounterKind::kUpnp32};
  std::uint64_t sink = 0;
  const std::size_t before = allocations();
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t reading = counter.read(1e6 * i);
    sink += measurement::counter_delta(sink & 0xFFFFFFFFULL, reading, counter.bits());
  }
  const std::size_t after = allocations();
  EXPECT_EQ(after - before, 0u);
  EXPECT_NE(sink, 0u);
}

TEST(AllocFree, WarmFusedDasuSummaryAllocatesNothing) {
  // An 864-bin household (0.3 days of 30 s bins) with BitTorrent in some
  // bins. The first call sizes the scratch columns; later households of
  // the same size must not touch the heap.
  constexpr std::size_t kBins = 864;
  netsim::BinnedUsage truth;
  truth.start = 40 * kDay;
  truth.bin_width_s = 30.0;
  Rng truth_rng{864};
  for (std::size_t i = 0; i < kBins; ++i) {
    truth.down_bytes.push_back(truth_rng.lognormal(14.0, 2.0));
    truth.up_bytes.push_back(truth_rng.lognormal(11.0, 1.5));
    truth.bt_active_s.push_back(i % 7 == 0 ? 30.0 : 0.0);
  }
  const netsim::DiurnalModel diurnal{netsim::DiurnalParams{}, SimClock{2011}};
  measurement::DasuCollectorParams params;
  params.upnp_share = 0.5;
  const measurement::DasuCollector collector{params, diurnal};
  measurement::SummaryColumns scratch;
  Rng warm{1};
  (void)collector.collect_summary(truth, 0.5, warm, scratch);

  for (std::uint64_t seed = 2; seed < 12; ++seed) {
    Rng rng{seed};
    const std::size_t before = allocations();
    const auto summary = collector.collect_summary(truth, 0.5, rng, scratch);
    const std::size_t after = allocations();
    EXPECT_EQ(after - before, 0u) << "seed " << seed;
    EXPECT_GT(summary.samples, 0u);
    EXPECT_LT(summary.samples_no_bt, summary.samples);
  }
}

TEST(AllocFree, WarmHouseholdAllocatesOnlyItsFluidOutput) {
  // A warm HouseholdWorkspace holds the workload's flow and arrival
  // buffers, so a later simulate_household allocates nothing in workload
  // generation or collection: its whole count equals what the fluid step
  // alone allocates for the same flows (the bins it returns).
  const netsim::DiurnalModel diurnal{netsim::DiurnalParams{}, SimClock{2011}};
  const netsim::WorkloadGenerator workload{diurnal};
  const measurement::DasuCollector dasu{measurement::DasuCollectorParams{}, diurnal};
  measurement::PipelineToolkit kit;
  kit.workload = &workload;
  kit.dasu = &dasu;
  measurement::HouseholdTask task;
  task.workload.bt_sessions_per_day = 3.0;
  task.t0 = 40 * kDay;
  task.bins = 864;
  const SimTime t1 = task.t0 + static_cast<double>(task.bins) * task.bin_width_s;
  const netsim::FluidLinkSimulator sim{task.link, kit.tcp};

  measurement::HouseholdWorkspace ws;
  for (std::uint64_t seed = 1; seed < 12; ++seed) {  // warm for every seed
    Rng rng{seed};
    (void)measurement::simulate_household(kit, task, rng, &ws);
  }
  for (std::uint64_t seed = 1; seed < 12; ++seed) {
    Rng probe{seed};
    std::size_t before = allocations();
    workload.generate(task.workload, task.link, task.t0, t1, probe, ws.flows, ws.arrivals);
    EXPECT_EQ(allocations() - before, 0u) << "generate, seed " << seed;
    EXPECT_GT(ws.flows.size(), 10u);
    before = allocations();
    const auto truth = sim.run(ws.flows, task.t0, task.bins, task.bin_width_s, ws.fluid);
    const std::size_t fluid_output = allocations() - before;

    Rng rng{seed};
    before = allocations();
    const auto result = measurement::simulate_household(kit, task, rng, &ws);
    const std::size_t household = allocations() - before;
    EXPECT_EQ(household, fluid_output) << "seed " << seed;
    EXPECT_EQ(result.truth.down_bytes, truth.down_bytes);
    EXPECT_GT(result.summary.samples, 0u);
  }
}

}  // namespace
}  // namespace bblab
