// Engine staged pipeline (build_index → run_indexed, or build_index →
// run_owned_pass → run_secondary_pass(halo)):
//   * with no secondaries the staged paths must be BITWISE identical to
//     Engine::run over the same catalog whenever every leaf runs in one
//     pass, for every precision/leaf-size combination (it is the same code
//     over the same index), and otherwise match it to summation order;
//   * with halo points indexed as secondaries, the pair set must equal a
//     run over the combined catalog restricted to owned primaries — only
//     FP accumulation order may differ (candidate order changes), so
//     results match to tight tolerance and pair counts match exactly;
//   * a split with interior and boundary leaves must match the one-pass
//     run over the same halo (every leaf in the secondary pass, under the
//     empty bound) to summation order, with the stats of its passes adding
//     up to the one-pass run's.
// The Dense cases run the StagedEngine tests on catalogs with six times the
// points: primaries then push more than kBucketCapacity pairs into the
// outer bins, so full buckets flush before each bin's final one, in every
// pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "sim/generators.hpp"
#include "test_helpers.hpp"

namespace c = galactos::core;
namespace s = galactos::sim;
using galactos::testing::expect_results_match;

namespace {

struct StagedCase {
  c::TreePrecision precision;
  int leaf_size;  // 5: many ragged leaves and long leaf gathers
  int density = 1;  // multiplies the point count of every catalog
};

std::string case_name(const ::testing::TestParamInfo<StagedCase>& info) {
  // The "KdTree" prefix and "LeafBlocked" keep the default-leaf case names
  // stable from when the index and the traversal were axes of this sweep.
  std::string n = "KdTree";
  n += info.param.precision == c::TreePrecision::kDouble ? "Double" : "Mixed";
  n += "LeafBlocked";
  if (info.param.leaf_size != 32)
    n += "Leaf" + std::to_string(info.param.leaf_size);
  if (info.param.density != 1) n += "Dense";
  return n;
}

// The SecondaryBound of an owned slab: every halo point lies outside it.
c::Engine::SecondaryBound bound_of(const s::Aabb& slab) {
  return {slab.lo, slab.hi};
}

// The weakest valid promise: an empty box (lo > hi) has no interior leaf,
// so the owned pass runs nothing and the secondary pass runs every leaf.
const c::Engine::SecondaryBound kEmptyBound{{1, 1, 1}, {0, 0, 0}};

// The strongest: all of space, so every leaf is interior and the owned pass
// runs them all. Only valid with no secondaries.
constexpr double kInf = std::numeric_limits<double>::infinity();
const c::Engine::SecondaryBound kWholeSpace{{-kInf, -kInf, -kInf},
                                            {kInf, kInf, kInf}};

// run_owned_pass has no overload without a bound.
template <typename S, typename = void>
struct CanRunUnbounded : std::false_type {};
template <typename S>
struct CanRunUnbounded<
    S, std::void_t<decltype(std::declval<S&>().run_owned_pass())>>
    : std::true_type {};
static_assert(!CanRunUnbounded<c::Engine::Staged>::value,
              "run_owned_pass must require a SecondaryBound");

// The one-pass run over owned + halo: the empty bound defers every leaf to
// the secondary pass, which runs them in run_indexed's order against owned
// and halo candidates. `stats` receives pass 2's stats; pass 1 runs none.
c::ZetaResult one_pass_with_halo(const c::Engine& engine,
                                 const s::Catalog& owned,
                                 const s::Catalog& halo,
                                 c::EngineStats* stats = nullptr) {
  c::Engine::Staged staged = engine.build_index(owned);
  c::EngineStats pass1;
  staged.run_owned_pass(kEmptyBound, &pass1);
  EXPECT_EQ(pass1.leaves, 0u);
  return staged.run_secondary_pass(halo, stats);
}

c::EngineConfig make_config(const StagedCase& p) {
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(2.0, 16.0, 4);
  cfg.lmax = 4;
  cfg.threads = 1;
  cfg.tree.precision = p.precision;
  cfg.tree.leaf_size = p.leaf_size;
  return cfg;
}

}  // namespace

class StagedEngine : public ::testing::TestWithParam<StagedCase> {
 protected:
  static s::Catalog catalog(std::size_t n, const s::Aabb& box,
                            std::uint64_t seed) {
    return s::uniform_box(n * GetParam().density, box, seed);
  }
  // A dense case must flush full buckets in the run `st` counts.
  static void expect_full_flushes(const c::EngineStats& st) {
    if (GetParam().density > 1) {
      EXPECT_GT(st.full_flushes, 0u);
    }
  }
};

TEST_P(StagedEngine, NoSecondariesBitwiseMatchesRun) {
  const c::EngineConfig cfg = make_config(GetParam());
  const s::Catalog cat = catalog(900, s::Aabb::cube(50), 61);

  const c::Engine engine(cfg);
  c::EngineStats fused_stats;
  const c::ZetaResult fused = engine.run(cat, nullptr, &fused_stats);

  c::Engine::Staged staged = engine.build_index(cat);
  c::EngineStats stats;
  const c::ZetaResult piped = staged.run_indexed(nullptr, &stats);

  expect_results_match(piped, fused, 0.0, 0.0);  // bitwise
  EXPECT_EQ(piped.n_pairs, fused.n_pairs);
  EXPECT_GT(stats.pairs, 0u);
  EXPECT_EQ(stats.full_flushes, fused_stats.full_flushes);
  expect_full_flushes(stats);
}

// The catalog ignores the density: its 1e-12 relative bound is met by
// coefficients that cancel to near zero only at this background's scale (at
// 2-6 times the uniform points their summation-order noise reaches 1e-11
// to 1e-10), so the Dense cases repeat the sparse ones. Full buckets come
// from tight clumps instead: every primary in an owned clump sees more
// than kBucketCapacity points of a halo clump across the face in one bin.
TEST_P(StagedEngine, SecondariesMatchFusedCombinedRun) {
  const c::EngineConfig cfg = make_config(GetParam());
  // Owned points in the left half of the box, halo in the right half with
  // plenty of cross-boundary pairs inside R_max.
  s::Catalog owned =
      s::uniform_box(500, s::Aabb{{0, 0, 0}, {25, 50, 50}}, 62);
  s::Catalog halo =
      s::uniform_box(500, s::Aabb{{25, 0, 0}, {50, 50, 50}}, 63);
  // 140 points in unit cubes: owned clumps 3 below the face, halo clumps
  // ~7 away across it (the [5.5, 9) bin), off-axis so that no coefficient
  // vanishes by symmetry.
  const auto clump = [](double x, double y, double z, std::uint64_t seed) {
    return s::uniform_box(
        140, s::Aabb{{x - 0.5, y - 0.5, z - 0.5}, {x + 0.5, y + 0.5, z + 0.5}},
        seed);
  };
  owned.append(clump(22, 20, 30, 64));
  owned.append(clump(22, 32, 14, 65));
  halo.append(clump(27, 23, 34, 66));
  halo.append(clump(26, 36, 19, 67));

  s::Catalog combined = owned;
  combined.append(halo);
  std::vector<std::int64_t> primaries(owned.size());
  std::iota(primaries.begin(), primaries.end(), 0);

  const c::Engine engine(cfg);
  c::EngineStats fused_stats;
  const c::ZetaResult fused = engine.run(combined, &primaries, &fused_stats);

  c::EngineStats staged_stats;
  const c::ZetaResult piped =
      one_pass_with_halo(engine, owned, halo, &staged_stats);

  // Identical pair sets (candidate order may differ → FP tolerance).
  EXPECT_EQ(staged_stats.pairs, fused_stats.pairs);
  EXPECT_GT(fused_stats.full_flushes, 0u);
  EXPECT_EQ(staged_stats.full_flushes, fused_stats.full_flushes);
  expect_results_match(piped, fused, 1e-12, 1e-12);
}

TEST_P(StagedEngine, SecondariesNeverActAsPrimaries) {
  const c::EngineConfig cfg = make_config(GetParam());
  const s::Catalog owned = catalog(300, s::Aabb::cube(30), 64);
  const s::Catalog halo = catalog(400, s::Aabb::cube(30), 65);

  const c::Engine engine(cfg);
  c::EngineStats stats;
  const c::ZetaResult r = one_pass_with_halo(engine, owned, halo, &stats);
  EXPECT_EQ(r.n_primaries, owned.size());
  expect_full_flushes(stats);
}

// Two-pass pipeline, no secondaries ever indexed, under an all-interior
// bound: the owned pass runs every leaf in run_indexed's order and the
// secondary pass none, so together they must reproduce run_indexed (and
// hence Engine::run) BITWISE — the merge runs in the same thread-id order.
TEST_P(StagedEngine, TwoPassNoSecondariesBitwiseMatchesRun) {
  const c::EngineConfig cfg = make_config(GetParam());
  const s::Catalog cat = catalog(900, s::Aabb::cube(50), 61);

  const c::Engine engine(cfg);
  c::EngineStats fused_stats;
  const c::ZetaResult fused = engine.run(cat, nullptr, &fused_stats);

  c::Engine::Staged staged = engine.build_index(cat);
  c::EngineStats pass1, pass2;
  staged.run_owned_pass(kWholeSpace, &pass1);
  const c::ZetaResult piped = staged.run_secondary_pass(s::Catalog{}, &pass2);

  expect_results_match(piped, fused, 0.0, 0.0);  // bitwise
  EXPECT_EQ(piped.n_pairs, fused.n_pairs);
  EXPECT_EQ(pass1.pairs, fused_stats.pairs);
  EXPECT_EQ(pass1.leaves, fused_stats.leaves);
  EXPECT_EQ(pass1.full_flushes, fused_stats.full_flushes);
  expect_full_flushes(pass1);
  EXPECT_EQ(pass2.pairs, 0u);  // no boundary leaf → nothing left to run
  EXPECT_EQ(pass2.leaves, 0u);
}

// The same without secondaries under a bound with interior AND boundary
// leaves: every primary is computed once, in one of the passes, so pair
// and primary counts are exact and the stats of the passes add up to the
// fused run's; only the order in which primaries reach zeta changes
// (interior leaves first).
TEST_P(StagedEngine, TwoPassMixedBoundNoSecondariesMatchesRun) {
  const c::EngineConfig cfg = make_config(GetParam());
  const s::Aabb box = s::Aabb::cube(90);
  const s::Catalog cat = catalog(2400, box, 61);

  const c::Engine engine(cfg);
  c::EngineStats fused_stats;
  const c::ZetaResult fused = engine.run(cat, nullptr, &fused_stats);

  c::Engine::Staged staged = engine.build_index(cat);
  c::EngineStats pass1, pass2;
  staged.run_owned_pass(bound_of(box), &pass1);
  const c::ZetaResult piped = staged.run_secondary_pass(s::Catalog{}, &pass2);

  EXPECT_GT(pass1.leaves, 0u);  // interior leaves ran in the owned pass
  EXPECT_GT(pass2.leaves, 0u);  // boundary leaves in the secondary pass
  EXPECT_EQ(pass1.leaves + pass2.leaves, fused_stats.leaves);
  EXPECT_EQ(pass1.primaries + pass2.primaries, cat.size());
  EXPECT_EQ(pass1.pairs + pass2.pairs, fused_stats.pairs);
  EXPECT_EQ(pass1.candidates + pass2.candidates, fused_stats.candidates);
  EXPECT_EQ(pass1.full_flushes + pass2.full_flushes, fused_stats.full_flushes);
  expect_full_flushes(pass1);
  expect_full_flushes(pass2);
  EXPECT_EQ(piped.n_pairs, fused.n_pairs);
  EXPECT_EQ(piped.n_primaries, fused.n_primaries);
  // Coefficients that cancel to near zero (odd-l 2PCF moments, odd cross
  // terms) carry rounding noise of the result's scale, not their own: the
  // absolute floor is 1e-13 of the largest pair count.
  const double scale =
      *std::max_element(fused.pair_counts.begin(), fused.pair_counts.end());
  expect_results_match(piped, fused, 1e-13, 1e-13 * scale);
}

// Two-pass with a genuine halo: the owned pass runs the leaves the halo
// cannot reach, the secondary pass the rest against owned and halo points
// together. Must agree with the one-pass run (union candidates per leaf)
// to tight tolerance, with exactly the same pair and candidate counts
// split across the passes.
TEST_P(StagedEngine, TwoPassWithSecondariesMatchesRunIndexed) {
  const c::EngineConfig cfg = make_config(GetParam());
  const s::Catalog owned =
      catalog(500, s::Aabb{{0, 0, 0}, {25, 50, 50}}, 62);
  const s::Catalog halo =
      catalog(500, s::Aabb{{25, 0, 0}, {50, 50, 50}}, 63);

  const c::Engine engine(cfg);
  c::EngineStats fused_stats;
  const c::ZetaResult fused =
      one_pass_with_halo(engine, owned, halo, &fused_stats);

  c::Engine::Staged staged = engine.build_index(owned);
  c::EngineStats pass1, pass2;
  staged.run_owned_pass(bound_of({{0, 0, 0}, {25, 50, 50}}), &pass1);
  const c::ZetaResult piped = staged.run_secondary_pass(halo, &pass2);

  EXPECT_EQ(pass1.pairs + pass2.pairs, fused_stats.pairs);
  EXPECT_EQ(pass1.candidates + pass2.candidates, fused_stats.candidates);
  EXPECT_EQ(pass1.leaves + pass2.leaves, fused_stats.leaves);
  EXPECT_EQ(pass1.full_flushes + pass2.full_flushes, fused_stats.full_flushes);
  expect_full_flushes(pass2);
  EXPECT_GT(pass2.pairs, 0u);  // the halo really contributes
  EXPECT_EQ(piped.n_pairs, fused.n_pairs);
  EXPECT_EQ(piped.n_primaries, fused.n_primaries);
  expect_results_match(piped, fused, 1e-11, 1e-11);
}

// Halo points scattered INSIDE the owned volume (no clean boundary): only
// an empty bound is a valid promise here, so every leaf is a boundary leaf
// and runs in the secondary pass. The reference is Engine::run over the
// combined catalog with the owned points as primaries.
TEST_P(StagedEngine, TwoPassInterleavedHaloMatchesRunIndexed) {
  const c::EngineConfig cfg = make_config(GetParam());
  const s::Catalog owned = catalog(400, s::Aabb::cube(40), 68);
  const s::Catalog halo = catalog(300, s::Aabb::cube(40), 69);

  const c::Engine engine(cfg);
  s::Catalog combined = owned;
  combined.append(halo);
  std::vector<std::int64_t> primaries(owned.size());
  std::iota(primaries.begin(), primaries.end(), 0);
  const c::ZetaResult fused = engine.run(combined, &primaries);

  c::Engine::Staged staged = engine.build_index(owned);
  staged.run_owned_pass(kEmptyBound);
  c::EngineStats stats;
  const c::ZetaResult piped = staged.run_secondary_pass(halo, &stats);

  expect_full_flushes(stats);
  expect_results_match(piped, fused, 1e-11, 1e-11);
}

// Halo points ON the bound's face keep the promise (only a secondary
// strictly inside breaks it), also where the face is not representable in
// float and a mixed-precision index rounds those points below it: the
// check compares against the bound rounded the same way, so a valid run is
// never rejected.
TEST_P(StagedEngine, TwoPassHaloOnBoundFaceIsValid) {
  const c::EngineConfig cfg = make_config(GetParam());
  // A face just above a float: float(face) < face, so float(x) < face for
  // a halo point at x == face.
  const double face = static_cast<double>(25.0f) + 1e-9;
  ASSERT_LT(static_cast<double>(static_cast<float>(face)), face);
  const s::Catalog owned =
      catalog(400, s::Aabb{{0, 0, 0}, {face, 50, 50}}, 77);
  s::Catalog halo =
      catalog(300, s::Aabb{{face, 0, 0}, {50, 50, 50}}, 78);
  for (int i = 0; i < 40; ++i) halo.push_back(face, 1.25 * i, 50 - 1.2 * i);

  const c::Engine engine(cfg);
  const c::ZetaResult fused = one_pass_with_halo(engine, owned, halo);

  const double inf = std::numeric_limits<double>::infinity();
  c::Engine::Staged staged = engine.build_index(owned);
  staged.run_owned_pass({{-inf, -inf, -inf}, {face, inf, inf}});
  c::ZetaResult piped;
  c::EngineStats stats;
  ASSERT_NO_THROW(piped = staged.run_secondary_pass(halo, &stats));
  EXPECT_EQ(piped.n_pairs, fused.n_pairs);
  expect_full_flushes(stats);
  expect_results_match(piped, fused, 1e-11, 1e-11);
}

// A BROKEN promise (secondaries inside the bound box) is an error, raised
// from the calling thread before pass 2 runs a leaf; the parked state is
// consumed, so the handle accepts a fresh, valid round.
TEST_P(StagedEngine, TwoPassViolatedBoundThrows) {
  const c::EngineConfig cfg = make_config(GetParam());
  const s::Catalog owned = catalog(400, s::Aabb::cube(40), 68);
  const s::Catalog halo = catalog(300, s::Aabb::cube(40), 69);
  const c::Engine engine(cfg);
  const c::ZetaResult fused = one_pass_with_halo(engine, owned, halo);

  // Promise a huge box (every leaf is interior → the owned pass runs them
  // all without the halo) that every secondary then violates by lying
  // inside it.
  const c::Engine::SecondaryBound bound{{-200, -200, -200}, {200, 200, 200}};
  c::Engine::Staged staged = engine.build_index(owned);
  staged.run_owned_pass(bound);
  EXPECT_THROW(staged.run_secondary_pass(halo), std::logic_error);

  staged.run_owned_pass(kEmptyBound);
  c::EngineStats stats;
  expect_results_match(staged.run_secondary_pass(halo, &stats), fused, 1e-11,
                       1e-11);
  expect_full_flushes(stats);
}

// The halo is indexed inside run_secondary_pass and freed with it: a later
// round on the same handle sees none of it. A round without a halo, every
// leaf in the owned pass, is then bitwise identical to Engine::run over the
// owned points, and a repeat of the halo round repeats its bits.
TEST_P(StagedEngine, TwoPassHaloDoesNotOutliveItsPass) {
  const c::EngineConfig cfg = make_config(GetParam());
  const s::Aabb slab{{0, 0, 0}, {25, 50, 50}};
  const s::Catalog owned = catalog(500, slab, 62);
  const s::Catalog halo =
      catalog(500, s::Aabb{{25, 0, 0}, {50, 50, 50}}, 63);
  const c::Engine engine(cfg);

  c::Engine::Staged staged = engine.build_index(owned);
  staged.run_owned_pass(bound_of(slab));
  const c::ZetaResult first = staged.run_secondary_pass(halo);

  staged.run_owned_pass(kWholeSpace);
  c::EngineStats bare_stats;
  const c::ZetaResult bare =
      staged.run_secondary_pass(s::Catalog{}, &bare_stats);
  EXPECT_EQ(bare_stats.leaves, 0u);  // every leaf ran in the owned pass
  expect_results_match(bare, engine.run(owned), 0.0, 0.0);  // bitwise
  EXPECT_GT(first.n_pairs, bare.n_pairs);  // the halo did add pairs

  staged.run_owned_pass(bound_of(slab));
  c::EngineStats again_stats;
  const c::ZetaResult again = staged.run_secondary_pass(halo, &again_stats);
  expect_results_match(again, first, 0.0, 0.0);  // bitwise
  EXPECT_EQ(again.n_pairs, first.n_pairs);
  expect_full_flushes(again_stats);
}

// Each pass reports the index it stands on as its "index build" phase:
// run_indexed and the owned pass the primary index, built once by
// build_index, and the secondary pass the halo index it builds itself.
TEST_P(StagedEngine, PassStatsReportTheirIndexBuilds) {
  const c::EngineConfig cfg = make_config(GetParam());
  const s::Aabb slab{{0, 0, 0}, {25, 50, 50}};
  const s::Catalog owned = catalog(500, slab, 62);
  const s::Catalog halo =
      catalog(500, s::Aabb{{25, 0, 0}, {50, 50, 50}}, 63);
  const c::Engine engine(cfg);

  c::Engine::Staged staged = engine.build_index(owned);
  c::EngineStats indexed, pass1, pass2;
  (void)staged.run_indexed(nullptr, &indexed);
  staged.run_owned_pass(bound_of(slab), &pass1);
  (void)staged.run_secondary_pass(halo, &pass2);

  const double primary_build = indexed.phases.get("index build");
  EXPECT_GT(primary_build, 0.0);
  EXPECT_EQ(pass1.phases.get("index build"), primary_build);
  EXPECT_GT(pass2.phases.get("index build"), 0.0);
  // The owned pass ran without the halo; pass 2 added the halo's pairs.
  EXPECT_GT(pass1.pairs + pass2.pairs, indexed.pairs);
}

// run_indexed's primary subset (the survey estimator's data and random
// primaries): disjoint subsets covering the catalog add up to the run over
// all of it — exactly in pairs, candidates and primaries, to summation
// order in the coefficients. The catalog ignores the density: the odd
// multipoles of a self-correlation cancel to zero, and the rounding noise
// they keep grows with the pair count (at six times the points it reaches
// 1e-10), so the Dense cases repeat the sparse ones.
TEST_P(StagedEngine, PrimarySubsetsPartitionTheRun) {
  const c::EngineConfig cfg = make_config(GetParam());
  const s::Catalog cat = s::uniform_box(900, s::Aabb::cube(50), 71);
  const c::Engine engine(cfg);
  const c::Engine::Staged staged = engine.build_index(cat);

  std::vector<std::int64_t> thirds, rest;
  for (std::size_t i = 0; i < cat.size(); ++i)
    (i % 3 == 0 ? thirds : rest).push_back(static_cast<std::int64_t>(i));

  c::EngineStats all_stats, a_stats, b_stats;
  const c::ZetaResult all = staged.run_indexed(nullptr, &all_stats);
  c::ZetaResult split = staged.run_indexed(&thirds, &a_stats);
  EXPECT_EQ(split.n_primaries, thirds.size());
  split.accumulate(staged.run_indexed(&rest, &b_stats));

  EXPECT_EQ(a_stats.pairs + b_stats.pairs, all_stats.pairs);
  EXPECT_EQ(a_stats.candidates + b_stats.candidates, all_stats.candidates);
  EXPECT_EQ(a_stats.primaries + b_stats.primaries, all_stats.primaries);
  EXPECT_EQ(split.n_pairs, all.n_pairs);
  expect_results_match(split, all, 1e-11, 1e-11);
}

const StagedCase kCases[] = {
    {c::TreePrecision::kDouble, 32},    {c::TreePrecision::kMixed, 32},
    {c::TreePrecision::kDouble, 5},     {c::TreePrecision::kMixed, 5},
    {c::TreePrecision::kDouble, 32, 6}, {c::TreePrecision::kMixed, 32, 6}};
INSTANTIATE_TEST_SUITE_P(AllCombos, StagedEngine, ::testing::ValuesIn(kCases),
                         case_name);

// The Dense cases flush full buckets in both passes only without a halo
// (their 25-wide owned slab has no interior leaf). Here a halo lies beyond
// x = 40 and the leaves more than R_max below that face are interior: both
// passes flush full buckets, as many in sum as the one-pass run.
TEST(StagedEngineApi, FullBucketsFlushInEveryPass) {
  for (c::TreePrecision precision :
       {c::TreePrecision::kDouble, c::TreePrecision::kMixed}) {
    SCOPED_TRACE(precision == c::TreePrecision::kDouble ? "double" : "mixed");
    const c::Engine engine(make_config({precision, 32}));
    const s::Catalog owned =
        s::uniform_box(3000, s::Aabb{{0, 0, 0}, {40, 40, 40}}, 81);
    const s::Catalog halo =
        s::uniform_box(1500, s::Aabb{{40, 0, 0}, {60, 40, 40}}, 82);

    c::EngineStats halo_stats;
    const c::ZetaResult ref =
        one_pass_with_halo(engine, owned, halo, &halo_stats);

    c::Engine::Staged split = engine.build_index(owned);
    c::EngineStats p1, p2;
    split.run_owned_pass({{-kInf, -kInf, -kInf}, {40, kInf, kInf}}, &p1);
    const c::ZetaResult piped = split.run_secondary_pass(halo, &p2);
    EXPECT_GT(p1.full_flushes, 0u);
    EXPECT_GT(p2.full_flushes, 0u);
    EXPECT_EQ(p1.full_flushes + p2.full_flushes, halo_stats.full_flushes);
    EXPECT_EQ(p1.pairs + p2.pairs, halo_stats.pairs);
    expect_results_match(piped, ref, 1e-11, 1e-11);
  }
}

TEST(StagedEngineApi, MisuseThrows) {
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(1.0, 8.0, 2);
  cfg.lmax = 2;
  cfg.threads = 1;
  const s::Catalog cat = s::uniform_box(100, s::Aabb::cube(15), 67);
  const c::Engine engine(cfg);

  c::Engine::Staged empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW(empty.run_indexed(), std::logic_error);
  EXPECT_THROW(engine.build_index(s::Catalog{}), std::logic_error);

  c::Engine::Staged staged = engine.build_index(cat);

  // Primaries must index the OWNED catalog only.
  std::vector<std::int64_t> bad{static_cast<std::int64_t>(cat.size())};
  EXPECT_THROW(staged.run_indexed(&bad), std::logic_error);
}

TEST(StagedEngineApi, TwoPassMisuseThrows) {
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(1.0, 8.0, 2);
  cfg.lmax = 2;
  cfg.threads = 1;
  const s::Catalog cat = s::uniform_box(100, s::Aabb::cube(15), 73);
  const c::Engine engine(cfg);

  const c::Engine::SecondaryBound bound = bound_of(s::Aabb::cube(15));

  c::Engine::Staged empty;
  EXPECT_THROW(empty.run_owned_pass(bound), std::logic_error);
  EXPECT_THROW(empty.run_secondary_pass(s::Catalog{}), std::logic_error);

  c::Engine::Staged staged = engine.build_index(cat);
  // Secondary pass before any owned pass.
  EXPECT_THROW(staged.run_secondary_pass(s::Catalog{}), std::logic_error);
  staged.run_owned_pass(bound);
  // Owned pass twice without completing; fused run mid-pipeline.
  EXPECT_THROW(staged.run_owned_pass(bound), std::logic_error);
  EXPECT_THROW(staged.run_indexed(), std::logic_error);
  (void)staged.run_secondary_pass(s::Catalog{});
  // The parked state was consumed: a fresh round is legal again.
  staged.run_owned_pass(bound);
  (void)staged.run_secondary_pass(s::Catalog{});
}

// The owned pass invokes the caller's poll hook between leaf batches — the
// distributed runner uses it to progress outstanding halo receives.
TEST(StagedEngineApi, OwnedPassInvokesPollHook) {
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(1.0, 10.0, 3);
  cfg.lmax = 2;
  cfg.threads = 1;
  cfg.tree.leaf_size = 8;  // plenty of leaves so the stride fires repeatedly
  const s::Catalog cat = s::uniform_box(3000, s::Aabb::cube(60), 74);
  const c::Engine engine(cfg);

  c::Engine::Staged staged = engine.build_index(cat);
  int polls = 0;
  staged.run_owned_pass(kWholeSpace, nullptr, [&polls] { ++polls; });
  EXPECT_GT(polls, 0);

  // Every leaf ran in the owned pass: still bitwise.
  const c::ZetaResult piped = staged.run_secondary_pass(s::Catalog{});
  expect_results_match(piped, engine.run(cat), 0.0, 0.0);
}

// The self-pair correction splits additively across the passes: owned
// self terms in pass 1, halo self terms in pass 2.
TEST(StagedEngineApi, TwoPassSubtractSelfPairsMatchesFused) {
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(1.0, 10.0, 3);
  cfg.lmax = 3;
  cfg.threads = 1;
  cfg.subtract_self_pairs = true;
  const s::Catalog owned =
      s::uniform_box(250, s::Aabb{{0, 0, 0}, {15, 30, 30}}, 75);
  const s::Catalog halo =
      s::uniform_box(250, s::Aabb{{15, 0, 0}, {30, 30, 30}}, 76);
  const c::Engine engine(cfg);
  const c::ZetaResult fused = one_pass_with_halo(engine, owned, halo);

  c::Engine::Staged staged = engine.build_index(owned);
  staged.run_owned_pass(bound_of({{0, 0, 0}, {15, 30, 30}}));
  const c::ZetaResult piped = staged.run_secondary_pass(halo);

  expect_results_match(piped, fused, 1e-11, 1e-11);
}

// An empty halo indexes nothing: with the empty bound every leaf runs in
// the secondary pass, and the result stays bitwise equal to the run with
// no secondaries.
TEST(StagedEngineApi, TwoPassEmptyHaloIsBitwiseNoop) {
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(1.0, 8.0, 2);
  cfg.lmax = 2;
  cfg.threads = 1;
  const s::Catalog cat = s::uniform_box(200, s::Aabb::cube(20), 66);
  const c::Engine engine(cfg);

  c::Engine::Staged staged = engine.build_index(cat);
  staged.run_owned_pass(kEmptyBound);
  expect_results_match(staged.run_secondary_pass(s::Catalog{}),
                       engine.run(cat), 0.0, 0.0);
}
