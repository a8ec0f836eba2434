// Snapshot-store benchmarks: what does the .bbs format and the artifact
// cache actually buy over re-simulating?
//
//   BM_ColdSimulate    full StudyGenerator run (the price of a cache miss)
//   BM_SnapshotWrite   serializing the generated dataset to disk
//   BM_SnapshotLoad    reloading it via istream (the pre-mmap baseline)
//   BM_ViewLoad        reloading it via mmap + SnapshotView (what
//                      `bblab cat` and the serve daemon use now)
//   BM_ViewConfig      config-only decode through the footer index —
//                      the fingerprint probe the serve LRU issues per
//                      request, without touching the record sections
//   BM_CacheHit        a full hit through ArtifactCache: generate() with
//                      every shard already published (markets rebuilt,
//                      each segment verified and merged)
//
// Arg is population scale in thousandths: 100 -> scale 0.1 (~7k simulated
// household-windows across the three study years), 1600 -> scale 1.6
// (~100k). Each benchmark reports the window count it covered; the
// headline comparison is SnapshotLoad vs ColdSimulate at the 100k scale.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <map>

#include "core/logging.h"
#include "dataset/generator.h"
#include "store/bbs.h"
#include "store/cache.h"

namespace {

using namespace bblab;

dataset::StudyConfig store_config(double scale) {
  dataset::StudyConfig config;
  config.seed = 2014;
  config.threads = 0;  // all cores; the dataset is identical for any value
  config.population_scale = scale;
  config.window_days = 0.1;
  return config;
}

std::size_t household_windows(const dataset::StudyDataset& ds) {
  // Each upgrade pair is two simulated windows (before + after).
  return ds.dasu.size() + ds.fcc.size() + 2 * ds.upgrades.size();
}

/// Generate (once per scale) the dataset the serialization benchmarks
/// reuse, so their setup cost is paid outside the timed loops.
const dataset::StudyDataset& dataset_at(double scale) {
  static std::map<double, dataset::StudyDataset> generated;
  auto it = generated.find(scale);
  if (it == generated.end()) {
    it = generated
             .emplace(scale, dataset::StudyGenerator{market::World::builtin(),
                                                     store_config(scale)}
                                 .generate())
             .first;
  }
  return it->second;
}

std::filesystem::path bench_dir() {
  const auto dir =
      std::filesystem::temp_directory_path() / "bblab_perf_store";
  std::filesystem::create_directories(dir);
  return dir;
}

void BM_ColdSimulate(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 1000.0;
  std::size_t windows = 0;
  for (auto _ : state) {
    const auto ds = dataset::StudyGenerator{market::World::builtin(),
                                            store_config(scale)}
                        .generate();
    windows = household_windows(ds);
    benchmark::DoNotOptimize(ds);
  }
  state.counters["household_windows"] = static_cast<double>(windows);
}
BENCHMARK(BM_ColdSimulate)
    ->Arg(100)
    ->Arg(1600)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_SnapshotWrite(benchmark::State& state) {
  const auto& ds = dataset_at(static_cast<double>(state.range(0)) / 1000.0);
  const auto path = bench_dir() / "write.bbs";
  for (auto _ : state) {
    store::write_snapshot_file(path, ds);
  }
  state.counters["household_windows"] =
      static_cast<double>(household_windows(ds));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() *
                                std::filesystem::file_size(path)));
}
BENCHMARK(BM_SnapshotWrite)->Arg(100)->Arg(1600)->Unit(benchmark::kMillisecond);

void BM_SnapshotLoad(benchmark::State& state) {
  const auto& ds = dataset_at(static_cast<double>(state.range(0)) / 1000.0);
  const auto path = bench_dir() / "load.bbs";
  store::write_snapshot_file(path, ds);
  for (auto _ : state) {
    const auto back = store::read_snapshot_file(path);
    benchmark::DoNotOptimize(back);
  }
  state.counters["household_windows"] =
      static_cast<double>(household_windows(ds));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() *
                                std::filesystem::file_size(path)));
}
BENCHMARK(BM_SnapshotLoad)->Arg(100)->Arg(1600)->Unit(benchmark::kMillisecond);

void BM_ViewLoad(benchmark::State& state) {
  const auto& ds = dataset_at(static_cast<double>(state.range(0)) / 1000.0);
  const auto path = bench_dir() / "view.bbs";
  store::write_snapshot_file(path, ds);
  for (auto _ : state) {
    const auto view = store::SnapshotView::open(path);
    const auto back = view.dataset();
    benchmark::DoNotOptimize(back);
  }
  state.counters["household_windows"] =
      static_cast<double>(household_windows(ds));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() *
                                std::filesystem::file_size(path)));
}
BENCHMARK(BM_ViewLoad)->Arg(100)->Arg(1600)->Unit(benchmark::kMillisecond);

void BM_ViewConfig(benchmark::State& state) {
  const auto& ds = dataset_at(static_cast<double>(state.range(0)) / 1000.0);
  const auto path = bench_dir() / "view_cfg.bbs";
  store::write_snapshot_file(path, ds);
  for (auto _ : state) {
    const auto view = store::SnapshotView::open(path);
    const auto config = view.config();
    benchmark::DoNotOptimize(config);
  }
  state.counters["household_windows"] =
      static_cast<double>(household_windows(ds));
}
BENCHMARK(BM_ViewConfig)->Arg(100)->Arg(1600)->Unit(benchmark::kMillisecond);

void BM_CacheHit(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 1000.0;
  const store::ArtifactCache cache{bench_dir() / "cache"};
  const dataset::StudyGenerator gen{market::World::builtin(), store_config(scale)};
  const auto ds = gen.generate({.store = &cache});  // publishes every shard
  for (auto _ : state) {
    const auto hit = gen.generate({.store = &cache});
    benchmark::DoNotOptimize(hit);
  }
  state.counters["household_windows"] =
      static_cast<double>(household_windows(ds));
}
BENCHMARK(BM_CacheHit)->Arg(100)->Arg(1600)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bblab::set_log_level(bblab::LogLevel::kWarn);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::error_code ec;
  std::filesystem::remove_all(
      std::filesystem::temp_directory_path() / "bblab_perf_store", ec);
  return 0;
}
