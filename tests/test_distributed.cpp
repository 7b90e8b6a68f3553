// End-to-end distributed runs: the reduced multi-rank result must equal the
// single-node engine result (the decomposition is exact — no approximation
// is introduced by partitioning + halo exchange).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>

#include "core/engine.hpp"
#include "dist/runner.hpp"
#include "sim/generators.hpp"
#include "test_helpers.hpp"

namespace c = galactos::core;
namespace d = galactos::dist;
namespace s = galactos::sim;
using galactos::testing::expect_results_match;

namespace {

c::EngineConfig base_config() {
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(2.0, 18.0, 3);
  cfg.lmax = 4;
  cfg.threads = 1;
  return cfg;
}

}  // namespace

class DistributedVsSingle : public ::testing::TestWithParam<int> {};

TEST_P(DistributedVsSingle, ResultsIdentical) {
  const int nranks = GetParam();
  const s::Catalog full = s::uniform_box(1200, s::Aabb::cube(70), 55);

  const c::ZetaResult single = c::Engine(base_config()).run(full);

  d::DistRunConfig dcfg;
  dcfg.engine = base_config();
  dcfg.ranks = nranks;
  std::vector<d::RankReport> reports;
  const c::ZetaResult dist = d::run_distributed(full, dcfg, &reports);

  expect_results_match(dist, single, 1e-10, 1e-10);
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(nranks));
  std::uint64_t owned = 0;
  for (const auto& r : reports) {
    owned += r.owned;
    EXPECT_GT(r.total_seconds, 0.0);
  }
  EXPECT_EQ(owned, full.size());
}

INSTANTIATE_TEST_SUITE_P(RankSweep, DistributedVsSingle,
                         ::testing::Values(1, 2, 3, 5, 6));

// Both partition policies must leave the decomposition exact: every
// (ranks, policy, leaf size) combination matches the single-node engine to
// 1e-10 — the two-pass pipeline runs its boundary leaves as a separate
// traversal after the halo arrives, at the default leaf size and over 5-
// and 1-point leaves.
class DistributedPipeline
    : public ::testing::TestWithParam<std::tuple<
          int, d::PartitionPolicy, galactos::testing::PipelineCase>> {};

TEST_P(DistributedPipeline, MatchesSingleNode) {
  const auto [nranks, policy, pipeline] = GetParam();
  const s::Catalog full = galactos::testing::clumpy_catalog(1100, 65.0, 54);

  const c::ZetaResult single = c::Engine(base_config()).run(full);

  d::DistRunConfig dcfg;
  dcfg.engine = base_config();
  dcfg.ranks = nranks;
  dcfg.partition = policy;
  pipeline.apply(dcfg);
  std::vector<d::RankReport> reports;
  const c::ZetaResult dist = d::run_distributed(full, dcfg, &reports);

  expect_results_match(dist, single, 1e-10, 1e-10);

  // Extended RankReport accounting: the pipeline phases are all measured,
  // the two-pass split is reported, and pair_imbalance is the same
  // max/mean on every rank.
  std::uint64_t max_pairs = 0, sum_pairs = 0;
  for (const auto& r : reports) {
    EXPECT_GE(r.halo_seconds, 0.0);
    EXPECT_GE(r.index_build_seconds, 0.0);
    if (r.owned > 0) {
      EXPECT_GT(r.index_build_seconds, 0.0);
      EXPECT_GT(r.owned_pass_seconds, 0.0);
      EXPECT_GT(r.secondary_pass_seconds, 0.0);
      EXPECT_GT(r.halo_hidden_seconds, 0.0);
      EXPECT_NEAR(r.engine_seconds,
                  r.owned_pass_seconds + r.secondary_pass_seconds, 1e-12);
      EXPECT_GT(r.owned_pass_leaves + r.secondary_pass_leaves, 0u);
    }
    EXPECT_LE(r.boundary_primaries, r.owned);
    EXPECT_EQ(r.boundary_primaries > 0, r.secondary_pass_leaves > 0);
    max_pairs = std::max(max_pairs, r.pairs);
    sum_pairs += r.pairs;
  }
  const double mean_pairs =
      static_cast<double>(sum_pairs) / static_cast<double>(nranks);
  for (const auto& r : reports) {
    EXPECT_GE(r.pair_imbalance, 1.0 - 1e-12);
    EXPECT_NEAR(r.pair_imbalance,
                static_cast<double>(max_pairs) / mean_pairs, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyOverlapSweep, DistributedPipeline,
    ::testing::Combine(
        ::testing::Values(2, 3, 4, 8),
        ::testing::Values(d::PartitionPolicy::kPrimaryBalanced,
                          d::PartitionPolicy::kPairWeighted),
        ::testing::ValuesIn(galactos::testing::kPipelineCases)));

TEST(Distributed, ClusteredCatalogNonPowerOfTwo) {
  const s::Catalog full = galactos::testing::clumpy_catalog(900, 60.0, 56);
  const c::ZetaResult single = c::Engine(base_config()).run(full);
  d::DistRunConfig dcfg;
  dcfg.engine = base_config();
  dcfg.ranks = 7;
  const c::ZetaResult dist = d::run_distributed(full, dcfg);
  expect_results_match(dist, single, 1e-10, 1e-10);
}

TEST(Distributed, WeightedCatalog) {
  s::Catalog full = s::uniform_box(700, s::Aabb::cube(50), 57);
  for (std::size_t i = 0; i < full.size(); ++i)
    full.w[i] = (i % 3 == 0) ? -0.5 : 1.25;  // negative weights (randoms)
  const c::ZetaResult single = c::Engine(base_config()).run(full);
  d::DistRunConfig dcfg;
  dcfg.engine = base_config();
  dcfg.ranks = 4;
  const c::ZetaResult dist = d::run_distributed(full, dcfg);
  expect_results_match(dist, single, 1e-10, 1e-10);
}

TEST(Distributed, RadialLineOfSight) {
  const s::Catalog full = s::uniform_box(600, s::Aabb::cube(40), 58);
  c::EngineConfig ecfg = base_config();
  ecfg.los = c::LineOfSight::kRadial;
  ecfg.observer = {-100, -100, -100};
  const c::ZetaResult single = c::Engine(ecfg).run(full);
  d::DistRunConfig dcfg;
  dcfg.engine = ecfg;
  dcfg.ranks = 3;
  const c::ZetaResult dist = d::run_distributed(full, dcfg);
  expect_results_match(dist, single, 1e-10, 1e-10);
}

TEST(Distributed, PairCountsBalanceReported) {
  const s::Catalog full = s::uniform_box(2000, s::Aabb::cube(80), 59);
  d::DistRunConfig dcfg;
  dcfg.engine = base_config();
  dcfg.ranks = 4;
  std::vector<d::RankReport> reports;
  (void)d::run_distributed(full, dcfg, &reports);
  std::uint64_t total_pairs = 0;
  for (const auto& r : reports) total_pairs += r.pairs;
  // Compare against the single-node pair count.
  c::EngineStats stats;
  (void)c::Engine(base_config()).run(full, nullptr, &stats);
  EXPECT_EQ(total_pairs, stats.pairs);
}

TEST(Distributed, MoreRanksThanGalaxiesStillCorrect) {
  const s::Catalog full = s::uniform_box(20, s::Aabb::cube(10), 60);
  c::EngineConfig ecfg;
  ecfg.bins = c::RadialBins(0.5, 6.0, 2);
  ecfg.lmax = 2;
  ecfg.threads = 1;
  const c::ZetaResult single = c::Engine(ecfg).run(full);
  d::DistRunConfig dcfg;
  dcfg.engine = ecfg;
  dcfg.ranks = 6;
  const c::ZetaResult dist = d::run_distributed(full, dcfg);
  expect_results_match(dist, single, 1e-10, 1e-10);
}
