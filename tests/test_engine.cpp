// Engine behaviour tests: run-to-run determinism, thread invariance,
// primary subsets, weights, stats plumbing, configuration checks.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "sim/generators.hpp"
#include "test_helpers.hpp"

namespace c = galactos::core;
namespace s = galactos::sim;
using galactos::testing::expect_results_match;

namespace {

c::EngineConfig small_config() {
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(2.0, 30.0, 4);
  cfg.lmax = 4;
  cfg.threads = 2;
  return cfg;
}

}  // namespace

TEST(Engine, DeterministicAcrossRunsSingleThread) {
  // One thread visits the leaves in index order, so the accumulation order
  // is fixed and results are bitwise reproducible.
  const s::Catalog cat = s::uniform_box(800, s::Aabb::cube(60), 5);
  c::EngineConfig cfg = small_config();
  cfg.threads = 1;
  c::Engine engine(cfg);
  const c::ZetaResult a = engine.run(cat);
  const c::ZetaResult b = engine.run(cat);
  expect_results_match(a, b, 0.0, 0.0);  // bitwise
  EXPECT_EQ(a.n_pairs, b.n_pairs);
}

TEST(Engine, DeterministicAcrossRunsDynamicSchedule) {
  // Dynamic scheduling reassigns primaries between runs; only the FP
  // summation order changes, so agreement holds to reassociation level.
  const s::Catalog cat = s::uniform_box(800, s::Aabb::cube(60), 5);
  c::Engine engine(small_config());
  const c::ZetaResult a = engine.run(cat);
  const c::ZetaResult b = engine.run(cat);
  expect_results_match(a, b, 1e-10, 1e-10);
}

TEST(Engine, ThreadCountDoesNotChangeResult) {
  const s::Catalog cat = galactos::testing::clumpy_catalog(600, 50.0, 8);
  c::EngineConfig cfg = small_config();
  cfg.threads = 1;
  const c::ZetaResult one = c::Engine(cfg).run(cat);
  cfg.threads = 4;
  const c::ZetaResult four = c::Engine(cfg).run(cat);
  // Merge order differs => only FP-reassociation differences allowed.
  expect_results_match(one, four, 1e-10, 1e-10);
}

TEST(Engine, MixedPrecisionCloseToDouble) {
  const s::Catalog cat = s::uniform_box(1000, s::Aabb::cube(80), 13);
  c::EngineConfig cfg = small_config();
  cfg.tree.precision = c::TreePrecision::kDouble;
  const c::ZetaResult dd = c::Engine(cfg).run(cat);
  cfg.tree.precision = c::TreePrecision::kMixed;
  const c::ZetaResult mm = c::Engine(cfg).run(cat);
  // Float separations shift bin assignments of knife-edge pairs; overall
  // statistics must agree to float-ish precision.
  EXPECT_EQ(dd.n_primaries, mm.n_primaries);
  const double rel_pairs =
      std::abs(static_cast<double>(dd.n_pairs) -
               static_cast<double>(mm.n_pairs)) /
      static_cast<double>(dd.n_pairs);
  EXPECT_LT(rel_pairs, 1e-3);
  for (int b1 = 0; b1 < 4; ++b1)
    for (int b2 = b1; b2 < 4; ++b2) {
      const auto a = dd.zeta_m(b1, b2, 2, 2, 1);
      const auto b = mm.zeta_m(b1, b2, 2, 2, 1);
      const double scale = std::max(1.0, std::abs(a));
      EXPECT_NEAR(std::abs(a - b) / scale, 0.0, 1e-3) << b1 << "," << b2;
    }
}

TEST(Engine, PrimarySubsetMatchesManualSplit) {
  // Primaries {evens} + primaries {odds} must sum to all-primaries result.
  const s::Catalog cat = s::uniform_box(400, s::Aabb::cube(40), 14);
  c::EngineConfig cfg = small_config();
  c::Engine engine(cfg);
  std::vector<std::int64_t> evens, odds;
  for (std::int64_t i = 0; i < 400; ++i) (i % 2 ? odds : evens).push_back(i);
  c::ZetaResult re = engine.run(cat, &evens);
  const c::ZetaResult ro = engine.run(cat, &odds);
  const c::ZetaResult all = engine.run(cat);
  re.accumulate(ro);
  expect_results_match(re, all, 1e-10, 1e-10);
}

TEST(Engine, WeightsScaleLinearly) {
  // Doubling every weight scales zeta (3 weights) by 8 and pairs (2) by 4.
  s::Catalog cat = s::uniform_box(300, s::Aabb::cube(35), 15);
  c::EngineConfig cfg = small_config();
  const c::ZetaResult base = c::Engine(cfg).run(cat);
  for (auto& w : cat.w) w *= 2.0;
  const c::ZetaResult doubled = c::Engine(cfg).run(cat);
  for (int b1 = 0; b1 < cfg.bins.count(); ++b1) {
    EXPECT_NEAR(doubled.pair_counts[b1], 4.0 * base.pair_counts[b1],
                1e-9 * (1 + std::abs(base.pair_counts[b1])));
    for (int b2 = b1; b2 < cfg.bins.count(); ++b2) {
      const auto a = base.zeta_m(b1, b2, 1, 1, 0);
      const auto b = doubled.zeta_m(b1, b2, 1, 1, 0);
      EXPECT_NEAR(std::abs(b - 8.0 * a), 0.0, 1e-9 * (1 + std::abs(a)));
    }
  }
}

TEST(Engine, StatsArePopulated) {
  const s::Catalog cat = s::uniform_box(500, s::Aabb::cube(40), 16);
  c::EngineConfig cfg = small_config();
  c::EngineStats stats;
  const c::ZetaResult res = c::Engine(cfg).run(cat, nullptr, &stats);
  EXPECT_GT(stats.pairs, 0u);
  EXPECT_EQ(stats.pairs, res.n_pairs);
  EXPECT_GE(stats.candidates, stats.pairs);
  EXPECT_GT(stats.kernel_flop_count, 0.0);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_FALSE(stats.pairs_per_thread.empty());
  std::uint64_t sum = 0;
  for (auto p : stats.pairs_per_thread) sum += p;
  EXPECT_EQ(sum, stats.pairs);
  EXPECT_GT(stats.phases.get("multipole kernel"), 0.0);
  EXPECT_GT(stats.phases.get("index build"), 0.0);
}

// Every touched (primary, bin) is one epilogue: the count matches a brute
// force over the catalog, and the flush split bounds the pair count (full
// buckets hold kBucketCapacity pairs, final partial ones fewer). The outer
// shells hold well over one bucket per primary, so full flushes run.
TEST(Engine, EpilogueCountersMatchBruteForce) {
  const s::Catalog cat = s::uniform_box(400, s::Aabb::cube(40), 21);
  c::EngineConfig cfg = small_config();
  std::uint64_t expect = 0;
  for (std::size_t p = 0; p < cat.size(); ++p) {
    std::vector<bool> hit(cfg.bins.count(), false);
    for (std::size_t j = 0; j < cat.size(); ++j) {
      if (j == p) continue;
      const double r = std::sqrt((cat.position(j) - cat.position(p)).norm2());
      const int bin = cfg.bins.bin_of(r);
      if (bin >= 0) hit[bin] = true;
    }
    for (bool h : hit) expect += h;
  }
  const std::uint64_t cap = c::kBucketCapacity;
  c::EngineStats st;
  c::Engine(cfg).run(cat, nullptr, &st);
  EXPECT_GT(st.full_flushes, 0u);
  EXPECT_EQ(st.bin_epilogues, expect);
  EXPECT_LE(st.partial_flushes, st.bin_epilogues);
  EXPECT_LE(st.bin_epilogues, st.full_flushes + st.partial_flushes);
  EXPECT_GE(st.pairs, st.full_flushes * cap + st.partial_flushes);
  EXPECT_LE(st.pairs, st.full_flushes * cap + st.partial_flushes * (cap - 1));
}

// A stats object reused for a tiny run after a big one reports the tiny
// run alone: every entry point resets it, phase times included.
TEST(Engine, ReusedStatsAreOverwritten) {
  c::EngineConfig cfg = small_config();
  cfg.bins = c::RadialBins(2.0, 10.0, 4);
  const s::Catalog big = s::uniform_box(20000, s::Aabb::cube(100), 19);
  const s::Catalog tiny = s::uniform_box(200, s::Aabb::cube(20), 20);
  const c::Engine engine(cfg);

  c::EngineStats st;
  (void)engine.run(big, nullptr, &st);
  const double big_total = st.phases.total();
  const std::uint64_t big_pairs = st.pairs;
  const c::ZetaResult res = engine.run(tiny, nullptr, &st);
  EXPECT_LT(st.phases.total(), big_total);
  EXPECT_EQ(st.pairs, res.n_pairs);
  EXPECT_LT(st.pairs, big_pairs);
}

TEST(Engine, PairCountMatchesExpectation) {
  // For a uniform box, pairs within [rmin, rmax) per primary ~ n * V_shell.
  const double side = 100.0;
  const std::size_t n = 20000;
  const s::Catalog cat = s::uniform_box(n, s::Aabb::cube(side), 17);
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(2.0, 12.0, 2);
  cfg.lmax = 0;
  const c::ZetaResult res = c::Engine(cfg).run(cat);
  const double nbar = n / (side * side * side);
  double vshell = 0;
  for (int b = 0; b < 2; ++b) vshell += cfg.bins.shell_volume(b);
  const double expect = static_cast<double>(n) * nbar * vshell;
  // Non-periodic box: primaries near faces lose neighbors. For rmax/side
  // = 0.12 the depletion is ~13% (measured 0.866); require the count to
  // sit between that edge-depleted value and the bulk expectation.
  const double ratio = static_cast<double>(res.n_pairs) / expect;
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.001);
}

TEST(Engine, RadialModeSkipsPrimaryAtObserver) {
  s::Catalog cat = s::uniform_box(50, s::Aabb::cube(20), 18);
  cat.push_back(0.0, 0.0, 0.0);  // exactly at the observer
  c::EngineConfig cfg = small_config();
  cfg.los = c::LineOfSight::kRadial;
  cfg.observer = {0, 0, 0};
  c::EngineStats stats;
  const c::ZetaResult res = c::Engine(cfg).run(cat, nullptr, &stats);
  EXPECT_EQ(stats.primaries_skipped, 1u);
  EXPECT_EQ(res.n_primaries, 50u);
}

TEST(Engine, RejectsInvalidInput) {
  c::EngineConfig cfg = small_config();
  c::Engine engine(cfg);
  const s::Catalog empty;
  EXPECT_THROW(engine.run(empty), std::logic_error);
  const s::Catalog cat = s::uniform_box(10, s::Aabb::cube(5), 1);
  std::vector<std::int64_t> bad{42};
  EXPECT_THROW(engine.run(cat, &bad), std::logic_error);
  std::vector<std::int64_t> dup{3, 3};
  EXPECT_THROW(engine.run(cat, &dup), std::logic_error);
  cfg.lmax = -1;
  EXPECT_THROW(c::Engine{cfg}, std::logic_error);
}

// A negative thread count is an error, not OpenMP's default (0 is).
TEST(Engine, RejectsNegativeThreads) {
  c::EngineConfig cfg = small_config();
  cfg.threads = -3;
  EXPECT_THROW(c::Engine{cfg}, std::logic_error);
  cfg.threads = 0;
  EXPECT_NO_THROW(c::Engine{cfg});
}

// The zero result a rank without an index reports has the config's shape.
TEST(Engine, EmptyResultMatchesShape) {
  const c::EngineConfig cfg = small_config();
  const c::ZetaResult z = c::Engine(cfg).empty_result();
  EXPECT_EQ(z.lmax, cfg.lmax);
  EXPECT_EQ(z.bins.count(), cfg.bins.count());
  EXPECT_EQ(z.n_primaries, 0u);
  EXPECT_EQ(z.sum_primary_weight, 0.0);
}

TEST(Engine, CoincidentGalaxiesAreSkippedNotCrashed) {
  s::Catalog cat;
  for (int i = 0; i < 20; ++i) cat.push_back(5.0, 5.0, 5.0);
  cat.push_back(10.0, 5.0, 5.0);
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(1.0, 8.0, 2);
  cfg.lmax = 2;
  const c::ZetaResult res = c::Engine(cfg).run(cat);
  // Only the pairs between the clump and the lone galaxy are binned
  // (distance 5); clump-internal pairs have r == 0.
  EXPECT_EQ(res.n_pairs, 40u);  // 20 from the loner + 1 each from 20 clumped
}
