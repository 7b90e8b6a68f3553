// Leaf-blocked vs per-primary traversal equivalence (paper §3.3).
//
// The leaf-blocked driver prunes node-vs-node instead of point-vs-node and
// feeds the kernel from one shared neighbor block per leaf, pushing each
// primary's accepted pairs through MultipoleAccumulator::push; per-primary
// pair sequences are bitwise identical to the per-primary driver, so the
// two modes may differ only by cross-primary FP reassociation. The sweep
// covers KdTree/CellGrid × double/mixed × plane-parallel/radial LOS ×
// all/subset primaries (the distributed-runner path).
#include <gtest/gtest.h>

#include <tuple>

#include "core/engine.hpp"
#include "sim/generators.hpp"
#include "test_helpers.hpp"

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

// Runs both traversal modes on identical inputs and checks the strong
// equivalences: exact pair counts (identical accepted pair sets) and
// reassociation-level agreement on every output coefficient.
void expect_modes_agree(c::EngineConfig cfg, const s::Catalog& cat,
                        const std::vector<std::int64_t>* primaries) {
  cfg.tree.traversal = c::TraversalMode::kPerPrimary;
  c::EngineStats spp;
  const c::ZetaResult pp = c::Engine(cfg).run(cat, primaries, &spp);
  cfg.tree.traversal = c::TraversalMode::kLeafBlocked;
  c::EngineStats slb;
  const c::ZetaResult lb = c::Engine(cfg).run(cat, primaries, &slb);

  EXPECT_EQ(pp.n_pairs, lb.n_pairs);
  EXPECT_EQ(pp.n_primaries, lb.n_primaries);
  EXPECT_EQ(spp.primaries_skipped, slb.primaries_skipped);
  EXPECT_GE(slb.candidates, slb.pairs);
  expect_results_match(pp, lb, 1e-10, 1e-10);
}

}  // namespace

class TraversalEquivalence
    : public ::testing::TestWithParam<
          std::tuple<c::NeighborIndex, c::TreePrecision, c::LineOfSight,
                     bool>> {};

TEST_P(TraversalEquivalence, LeafBlockedMatchesPerPrimary) {
  const auto [index, precision, los, subset] = GetParam();
  const s::Catalog cat = galactos::testing::clumpy_catalog(900, 60.0, 21);
  c::EngineConfig cfg = traversal_config();
  cfg.tree.index = index;
  cfg.tree.precision = precision;
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
  expect_modes_agree(cfg, cat, pp);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TraversalEquivalence,
    ::testing::Combine(
        ::testing::Values(c::NeighborIndex::kKdTree,
                          c::NeighborIndex::kCellGrid),
        ::testing::Values(c::TreePrecision::kDouble,
                          c::TreePrecision::kMixed),
        ::testing::Values(c::LineOfSight::kPlaneParallelZ,
                          c::LineOfSight::kRadial),
        ::testing::Bool()));

TEST(Traversal, LeafBlockedIsTheDefault) {
  EXPECT_EQ(c::EngineConfig{}.tree.traversal, c::TraversalMode::kLeafBlocked);
}

TEST(Traversal, OddLeafSizesMatch) {
  // Odd leaf sizes and an n that is not a power of two exercise ragged
  // leaves; leaf_size = 1 makes every leaf a single primary (the blocked
  // driver degenerates to per-primary with a box the size of a point).
  const s::Catalog cat = s::uniform_box(257, s::Aabb::cube(40), 22);
  for (int leaf_size : {1, 7, 33}) {
    c::EngineConfig cfg = traversal_config();
    cfg.tree.leaf_size = leaf_size;
    expect_modes_agree(cfg, cat, nullptr);
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
  cfg.threads = 1;  // so the few-leaf fallback keeps the blocked driver
  expect_modes_agree(cfg, cat, nullptr);

  cfg.tree.traversal = c::TraversalMode::kLeafBlocked;
  const c::ZetaResult res = c::Engine(cfg).run(cat);
  EXPECT_EQ(res.n_pairs, 40u);
}

TEST(Traversal, RadialSubsetSkipsPrimaryAtObserver) {
  s::Catalog cat = s::uniform_box(60, s::Aabb::cube(20), 23);
  cat.push_back(0.0, 0.0, 0.0);  // exactly at the observer
  c::EngineConfig cfg = traversal_config();
  cfg.threads = 1;  // so the few-leaf fallback keeps the blocked driver
  cfg.los = c::LineOfSight::kRadial;
  cfg.observer = {0, 0, 0};
  // Stride-2 subset; cat.size() is odd so it includes the observer point.
  std::vector<std::int64_t> prims;
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(cat.size());
       i += 2)
    prims.push_back(i);
  expect_modes_agree(cfg, cat, &prims);
}

TEST(Traversal, TinyCatalogManyThreadsFallsBack) {
  // Fewer leaves than 2x threads: the blocked driver falls back to
  // per-primary instead of idling most threads; results are unchanged.
  const s::Catalog cat = s::uniform_box(50, s::Aabb::cube(15), 26);
  c::EngineConfig cfg = traversal_config();
  cfg.threads = 8;
  expect_modes_agree(cfg, cat, nullptr);
}

TEST(Traversal, SelfPairSubtractionAgrees) {
  const s::Catalog cat = galactos::testing::clumpy_catalog(300, 35.0, 24);
  c::EngineConfig cfg = traversal_config();
  cfg.subtract_self_pairs = true;
  expect_modes_agree(cfg, cat, nullptr);
}

TEST(Traversal, LeafBlockedStaticScheduleBitwiseReproducible) {
  const s::Catalog cat = s::uniform_box(800, s::Aabb::cube(60), 25);
  c::EngineConfig cfg = traversal_config();
  cfg.tree.schedule = c::OmpSchedule::kStatic;
  c::Engine engine(cfg);
  const c::ZetaResult a = engine.run(cat);
  const c::ZetaResult b = engine.run(cat);
  expect_results_match(a, b, 0.0, 1e-300);  // bitwise-identical expected
}
