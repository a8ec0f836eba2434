// Microbenchmarks for the SoA stats core: the batched/branchless kernels
// (radix sorts and permutations, merge-ECDF evaluation, batched
// quantiles, shared-tail binomial tests, block moments) on the column
// sizes the analysis layer actually sees (figure columns are 10^3..10^5
// rows locally, 10^6+ at M-Lab scale).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "stats/binomial.h"
#include "stats/column.h"
#include "stats/descriptive.h"
#include "stats/ecdf.h"

namespace {

using namespace bblab;

std::vector<double> lognormal_column(std::size_t n, double nan_share = 0.0) {
  Rng rng{17};
  std::vector<double> xs(n);
  for (auto& x : xs) {
    x = rng.uniform() < nan_share ? std::nan("") : rng.lognormal(1.0, 1.4);
  }
  return xs;
}

std::vector<std::uint64_t> user_id_column(std::size_t n) {
  // Ids as the generator emits them: clustered per country block with
  // repeats (several yearly records per user).
  Rng rng{23};
  std::vector<std::uint64_t> ids(n);
  for (auto& id : ids) {
    const auto block = static_cast<std::uint64_t>(rng.uniform(0.0, 30.0));
    id = block * 1000000 + static_cast<std::uint64_t>(rng.uniform(0.0, 5000.0));
  }
  return ids;
}

// --- sorting ---------------------------------------------------------------

void BM_SortDoubleRadix(benchmark::State& state) {
  const auto xs = lognormal_column(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto copy = xs;
    stats::radix_sort(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortDoubleRadix)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_SortedFiniteWithNans(benchmark::State& state) {
  // The full column-construction path: branchless NaN compaction + sort.
  const auto xs =
      lognormal_column(static_cast<std::size_t>(state.range(0)), 0.02);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::sorted_finite(xs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortedFiniteWithNans)->Arg(65536)->Arg(1 << 20);

// --- user-id merge keys ----------------------------------------------------

void BM_SortPermutationRadix(benchmark::State& state) {
  const auto ids = user_id_column(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::sort_permutation(ids));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortPermutationRadix)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_GroupByKey(benchmark::State& state) {
  const auto ids = user_id_column(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::group_by_key(ids));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByKey)->Arg(65536)->Arg(1 << 20);

// --- ECDF evaluation by linear merge --------------------------------------

void BM_EcdfEvalBatch(benchmark::State& state) {
  const stats::Ecdf ecdf{lognormal_column(262144)};
  const auto m = static_cast<std::size_t>(state.range(0));
  std::vector<double> queries(m);
  for (std::size_t i = 0; i < m; ++i) {
    queries[i] = 0.01 + 40.0 * static_cast<double>(i) / static_cast<double>(m);
  }
  std::vector<double> out(m);
  for (auto _ : state) {
    ecdf.evaluate_sorted(queries, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EcdfEvalBatch)->Arg(64)->Arg(1024)->Arg(16384);

// --- quantiles from one sorted column -------------------------------------

void BM_QuantilesBatchSorted(benchmark::State& state) {
  const stats::SortedColumn col{lognormal_column(262144)};
  const std::vector<double> qs{0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99};
  for (auto _ : state) {
    benchmark::DoNotOptimize(col.quantiles(qs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(qs.size()));
}
BENCHMARK(BM_QuantilesBatchSorted);

// --- binomial tails: one shared descending accumulation -------------------

void BM_BinomialBatch(benchmark::State& state) {
  const std::uint64_t trials = 1000000;
  const auto m = static_cast<std::size_t>(state.range(0));
  Rng rng{31};
  std::vector<std::uint64_t> ks(m);
  for (auto& k : ks) {
    k = static_cast<std::uint64_t>(rng.uniform(499000.0, 505000.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::binomial_p_greater_batch(ks, trials));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BinomialBatch)->Arg(16)->Arg(256);

// --- running moments: block add -------------------------------------------

void BM_RunningStatsBlockAdd(benchmark::State& state) {
  const auto xs = lognormal_column(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::accumulate(xs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RunningStatsBlockAdd)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
