// Pins every matched natural experiment the paper's figures and tables run
// (Fig. 6, Tables 2, 3, 6, 7 and 8) bit for bit. The balance SMDs sum over
// the matched pairs in greedy order, so the digest fixes the pair set and
// the pair order as well as the verdicts.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "analysis/figures.h"
#include "analysis/tables.h"
#include "core/hash.h"
#include "dataset/generator.h"

namespace bblab::analysis {
namespace {

std::uint64_t bits_of(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

void hash_result(core::Hasher& h, const causal::ExperimentResult& r) {
  h.update_string(r.name);
  h.update_u64(r.treated_pool);
  h.update_u64(r.control_pool);
  h.update_u64(r.pairs);
  h.update_u64(r.test.successes);
  h.update_u64(r.test.trials);
  h.update_u64(bits_of(r.test.p_value));
  h.update_u64(r.balance.size());
  for (const double smd : r.balance) h.update_u64(bits_of(smd));
}

// Digest of every ExperimentResult that fig6, tab2, tab3, tab6, tab7 and
// tab8 return on a small study generated at `seed`.
std::uint64_t experiment_digest(std::uint64_t seed) {
  dataset::StudyConfig config;
  config.seed = seed;
  config.threads = 2;
  config.population_scale = 0.04;
  config.window_days = 0.2;
  config.fcc_users = 150;
  config.fcc_window_days = 0.5;
  config.first_year = 2011;
  config.last_year = 2012;
  const auto ds = dataset::StudyGenerator{market::World::builtin(), config}.generate();

  core::Hasher h;
  for (const auto& r : fig6_longitudinal(ds).year_experiments) hash_result(h, r);
  const auto tab2 = tab2_capacity_matching(ds);
  for (const auto& row : tab2.dasu) hash_result(h, row.result);
  for (const auto& row : tab2.fcc) hash_result(h, row.result);
  const auto tab3 = tab3_price_experiment(ds);
  hash_result(h, tab3.mid);
  hash_result(h, tab3.high);
  const auto tab6 = tab6_upgrade_cost_experiment(ds);
  for (const auto* r : {&tab6.with_bt_mid, &tab6.with_bt_high, &tab6.no_bt_mid,
                        &tab6.no_bt_high}) {
    hash_result(h, *r);
  }
  const auto tab7 = tab7_latency_experiment(ds);
  for (const auto& row : tab7.rows) hash_result(h, row.result);
  hash_result(h, tab7.us_vs_india);
  for (const auto& row : tab8_loss_experiment(ds)) hash_result(h, row.result);
  return h.digest();
}

// Recorded from the sort-all-feasible-pairs greedy matcher that the
// heap-driven kernel replaced. libstdc++-specific for the same reason as
// ChoiceCalibration.GoldenMultiplierDigest: build_markets salts market
// RNGs with std::hash<std::string>.
TEST(ExperimentDigest, GoldenMatchedResults) {
  EXPECT_EQ(experiment_digest(1), 0x8787de2c5be323b6ULL);
  EXPECT_EQ(experiment_digest(42), 0x191d3a2cd76aaa99ULL);
  EXPECT_EQ(experiment_digest(2014), 0xb8e228380bf98a7eULL);
}

}  // namespace
}  // namespace bblab::analysis
