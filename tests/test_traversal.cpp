// The leaf-blocked traversal (paper §3.3) against direct summation.
//
// The traversal prunes node-vs-node, feeds the kernel from one shared
// neighbor block per leaf and pushes each primary's accepted pairs through
// MultipoleAccumulator::push. baseline::direct_summation shares none of
// that: it tests every pair by brute force and evaluates Y_lm per
// secondary. The sweep covers double/mixed × plane-parallel/radial LOS ×
// all/subset primaries (the distributed-runner path) × the default and a
// small leaf size (many ragged leaves, long leaf gathers) × the clumpy
// catalog and a dense uniform one, whose outer shells hold several hundred
// pairs per primary, so full buckets flush before each bin's final one. The
// catalogs are snapped to a 1/64 grid (snapped_to_grid), so mixed
// precision accepts exactly the double pair set and the same tolerance
// applies.
#include <gtest/gtest.h>

#include <tuple>

#include "baseline/brute3pcf.hpp"
#include "core/engine.hpp"
#include "sim/generators.hpp"
#include "test_helpers.hpp"

namespace b = galactos::baseline;
namespace c = galactos::core;
namespace s = galactos::sim;
using galactos::testing::expect_results_match;

namespace {

c::EngineConfig traversal_config() {
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(2.0, 18.0, 5);
  cfg.lmax = 4;
  cfg.threads = 3;
  return cfg;
}

// Runs the engine and direct summation on identical inputs: identical pair
// sets (exact n_pairs) and agreement to 1e-9 on every coefficient. Returns
// the engine's stats. `oracle_primaries` defaults to the engine's list; it
// differs only where the engine skips a primary (radial LOS, primary at
// the observer).
c::EngineStats expect_matches_direct(
    const c::EngineConfig& cfg, const s::Catalog& cat,
    const std::vector<std::int64_t>* primaries,
    const std::vector<std::int64_t>* oracle_primaries = nullptr) {
  b::OracleConfig ocfg;
  ocfg.bins = cfg.bins;
  ocfg.lmax = cfg.lmax;
  ocfg.los = cfg.los;
  ocfg.observer = cfg.observer;
  ocfg.include_degenerate = !cfg.subtract_self_pairs;
  c::EngineStats st;
  const c::ZetaResult got = c::Engine(cfg).run(cat, primaries, &st);
  const c::ZetaResult ref = b::direct_summation(
      cat, ocfg, oracle_primaries ? oracle_primaries : primaries);

  EXPECT_EQ(got.n_pairs, ref.n_pairs);
  EXPECT_EQ(got.n_primaries, ref.n_primaries);
  EXPECT_GE(st.candidates, st.pairs);
  expect_results_match(got, ref, 1e-9, 1e-9);
  return st;
}

}  // namespace

class TraversalEquivalence
    : public ::testing::TestWithParam<
          std::tuple<c::TreePrecision, c::LineOfSight, bool, int, bool>> {};

TEST_P(TraversalEquivalence, MatchesDirectSummation) {
  const auto [precision, los, subset, leaf_size, dense] = GetParam();
  const s::Catalog cat = galactos::testing::snapped_to_grid(
      dense ? s::uniform_box(1500, s::Aabb::cube(30), 27)
            : galactos::testing::clumpy_catalog(900, 60.0, 21));
  c::EngineConfig cfg = traversal_config();
  cfg.tree.precision = precision;
  cfg.tree.leaf_size = leaf_size;
  cfg.los = los;
  // Observer outside the box so every radial LOS is well defined.
  cfg.observer = {-40.0, -40.0, -40.0};

  std::vector<std::int64_t> prims;
  const std::vector<std::int64_t>* pp = nullptr;
  if (subset) {
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(cat.size());
         i += 3)
      prims.push_back(i);
    pp = &prims;
  }
  const c::EngineStats st = expect_matches_direct(cfg, cat, pp);
  if (dense) {
    EXPECT_GT(st.full_flushes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TraversalEquivalence,
    ::testing::Combine(
        ::testing::Values(c::TreePrecision::kDouble,
                          c::TreePrecision::kMixed),
        ::testing::Values(c::LineOfSight::kPlaneParallelZ,
                          c::LineOfSight::kRadial),
        ::testing::Bool(), ::testing::Values(32, 5), ::testing::Bool()));

TEST(Traversal, OddLeafSizesMatch) {
  // Odd leaf sizes and an n that is not a power of two exercise ragged
  // leaves; leaf_size = 1 makes every leaf a single primary (a candidate
  // block gathered around a box the size of a point).
  const s::Catalog cat = s::uniform_box(257, s::Aabb::cube(40), 22);
  for (int leaf_size : {1, 7, 33}) {
    c::EngineConfig cfg = traversal_config();
    cfg.tree.leaf_size = leaf_size;
    expect_matches_direct(cfg, cat, nullptr);
  }
}

TEST(Traversal, CoincidentPointsMatch) {
  // A clump of exactly coincident galaxies (r2 == 0 pairs must be skipped,
  // and the k-d tree keeps them as one over-full leaf) plus one loner.
  s::Catalog cat;
  for (int i = 0; i < 20; ++i) cat.push_back(5.0, 5.0, 5.0);
  cat.push_back(10.0, 5.0, 5.0);
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(1.0, 8.0, 2);
  cfg.lmax = 2;
  cfg.tree.leaf_size = 4;
  cfg.threads = 1;
  EXPECT_EQ(expect_matches_direct(cfg, cat, nullptr).pairs, 40u);
}

TEST(Traversal, RadialSubsetSkipsPrimaryAtObserver) {
  s::Catalog cat = s::uniform_box(60, s::Aabb::cube(20), 23);
  cat.push_back(0.0, 0.0, 0.0);  // exactly at the observer
  c::EngineConfig cfg = traversal_config();
  cfg.threads = 1;
  cfg.los = c::LineOfSight::kRadial;
  cfg.observer = {0, 0, 0};
  // Stride-2 subset; cat.size() is odd so it includes the observer point,
  // which has no line of sight: the engine skips it, and the oracle is
  // given the subset without it.
  const std::int64_t at_observer = static_cast<std::int64_t>(cat.size()) - 1;
  std::vector<std::int64_t> prims, oracle_prims;
  for (std::int64_t i = 0; i <= at_observer; i += 2) {
    prims.push_back(i);
    if (i != at_observer) oracle_prims.push_back(i);
  }
  ASSERT_EQ(prims.back(), at_observer);
  EXPECT_EQ(
      expect_matches_direct(cfg, cat, &prims, &oracle_prims).primaries_skipped,
      1u);
}

TEST(Traversal, FewerLeavesThanThreads) {
  // Fewer leaves than threads: most threads get no leaf at all.
  const s::Catalog cat = s::uniform_box(50, s::Aabb::cube(15), 26);
  c::EngineConfig cfg = traversal_config();
  cfg.threads = 8;
  expect_matches_direct(cfg, cat, nullptr);
}

TEST(Traversal, SelfPairSubtractionAgrees) {
  const s::Catalog cat = galactos::testing::clumpy_catalog(300, 35.0, 24);
  c::EngineConfig cfg = traversal_config();
  cfg.subtract_self_pairs = true;
  expect_matches_direct(cfg, cat, nullptr);
}
