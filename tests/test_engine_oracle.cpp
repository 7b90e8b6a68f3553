// The decisive correctness tests: the optimized engine against the O(N^3)
// triplet oracle and the independent direct-summation implementation,
// across line-of-sight modes, weights, self-pair handling and lmax.
#include <gtest/gtest.h>

#include "baseline/brute3pcf.hpp"
#include "core/engine.hpp"
#include "sim/generators.hpp"
#include "test_helpers.hpp"

namespace b = galactos::baseline;
namespace c = galactos::core;
namespace s = galactos::sim;
using galactos::testing::expect_results_match;

namespace {

c::EngineConfig engine_cfg(const b::OracleConfig& o) {
  c::EngineConfig cfg;
  cfg.bins = o.bins;
  cfg.lmax = o.lmax;
  cfg.los = o.los;
  cfg.observer = o.observer;
  cfg.subtract_self_pairs = !o.include_degenerate;
  cfg.threads = 2;
  return cfg;
}

}  // namespace

struct OracleCase {
  const char* name;
  int n;
  int lmax;
  bool radial;
  bool degenerate;
  std::uint64_t seed;
  // Zero every fourth weight and stack extra galaxies on existing
  // positions: zero-weight pairs must count without moving zeta, and the
  // r = 0 pairs between coincident galaxies must drop.
  bool zero_weight_coincident = false;
};

namespace {

s::Catalog oracle_catalog(const OracleCase& tc) {
  s::Catalog cat = galactos::testing::clumpy_catalog(tc.n, 40.0, tc.seed);
  if (!tc.zero_weight_coincident) return cat;
  for (std::size_t i = 0; i < cat.size(); i += 4) cat.w[i] = 0.0;
  const std::size_t n = cat.size();
  for (std::size_t i = 1; i < n; i += 7)
    cat.push_back(cat.position(i), 0.25 + 0.1 * static_cast<double>(i % 3));
  return cat;
}

}  // namespace

class EngineVsOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(EngineVsOracle, MatchesBruteForceTriplets) {
  const OracleCase& tc = GetParam();
  b::OracleConfig ocfg;
  ocfg.bins = c::RadialBins(2.0, 25.0, 3);
  ocfg.lmax = tc.lmax;
  ocfg.include_degenerate = tc.degenerate;
  if (tc.radial) {
    ocfg.los = c::LineOfSight::kRadial;
    ocfg.observer = {-40.0, -35.0, -50.0};
  }
  const s::Catalog cat = oracle_catalog(tc);

  const c::ZetaResult oracle = b::brute_force_triplets(cat, ocfg);
  const c::ZetaResult engine = c::Engine(engine_cfg(ocfg)).run(cat);
  EXPECT_EQ(engine.n_pairs, oracle.n_pairs);
  expect_results_match(engine, oracle, 1e-9, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineVsOracle,
    ::testing::Values(
        OracleCase{"plane_l2", 90, 2, false, true, 101},
        OracleCase{"plane_l4", 90, 4, false, true, 102},
        OracleCase{"plane_l4_self", 90, 4, false, false, 103},
        OracleCase{"radial_l3", 80, 3, true, true, 104},
        OracleCase{"radial_l3_self", 80, 3, true, false, 105},
        OracleCase{"plane_l6", 70, 6, false, true, 106},
        // The lmax x LOS x self-pair grid, down to the monopole and up to
        // the paper's lmax 10.
        OracleCase{"plane_l0", 90, 0, false, true, 111},
        OracleCase{"plane_l0_self", 90, 0, false, false, 112},
        OracleCase{"radial_l0", 90, 0, true, true, 113},
        OracleCase{"radial_l0_self", 90, 0, true, false, 114},
        OracleCase{"plane_l1", 90, 1, false, true, 115},
        OracleCase{"plane_l1_self", 90, 1, false, false, 116},
        OracleCase{"radial_l1", 90, 1, true, true, 117},
        OracleCase{"radial_l1_self", 90, 1, true, false, 118},
        OracleCase{"plane_l5", 80, 5, false, true, 119},
        OracleCase{"plane_l5_self", 80, 5, false, false, 120},
        OracleCase{"radial_l5", 80, 5, true, true, 121},
        OracleCase{"radial_l5_self", 80, 5, true, false, 122},
        OracleCase{"plane_l8", 60, 8, false, true, 123},
        OracleCase{"plane_l8_self", 60, 8, false, false, 124},
        OracleCase{"radial_l8", 60, 8, true, true, 125},
        OracleCase{"radial_l8_self", 60, 8, true, false, 126},
        OracleCase{"plane_l10", 50, 10, false, true, 127},
        OracleCase{"plane_l10_self", 50, 10, false, false, 128},
        OracleCase{"radial_l10", 50, 10, true, true, 129},
        OracleCase{"radial_l10_self", 50, 10, true, false, 130},
        OracleCase{"zero_weight_coincident_plane_l5", 80, 5, false, true, 131,
                   true},
        OracleCase{"zero_weight_coincident_radial_l4_self", 80, 4, true,
                   false, 132, true}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return info.param.name;
    });

struct DirectCase {
  const char* name;
  int n;
  int lmax;
  int nbins;
  bool radial;
  bool self;
  c::TreePrecision precision;
  bool subset;  // stride-3 primary subset instead of every galaxy
  std::uint64_t seed;
};

class EngineVsDirect : public ::testing::TestWithParam<DirectCase> {};

TEST_P(EngineVsDirect, MatchesDirectSummation) {
  const DirectCase& tc = GetParam();
  b::OracleConfig ocfg;
  ocfg.bins = c::RadialBins(1.5, 28.0, tc.nbins);
  ocfg.lmax = tc.lmax;
  ocfg.include_degenerate = !tc.self;
  if (tc.radial) {
    ocfg.los = c::LineOfSight::kRadial;
    ocfg.observer = {-30.0, -30.0, -30.0};
  }
  const s::Catalog cat = galactos::testing::clumpy_catalog(tc.n, 45.0, tc.seed);

  std::vector<std::int64_t> prims;
  const std::vector<std::int64_t>* pp = nullptr;
  if (tc.subset) {
    for (std::int64_t i = 0; i < tc.n; i += 3) prims.push_back(i);
    pp = &prims;
  }

  c::EngineConfig ecfg = engine_cfg(ocfg);
  ecfg.tree.precision = tc.precision;
  const c::ZetaResult direct = b::direct_summation(cat, ocfg, pp);
  const c::ZetaResult engine = c::Engine(ecfg).run(cat, pp);
  const double tol = tc.precision == c::TreePrecision::kMixed ? 2e-3 : 1e-9;
  if (tc.precision == c::TreePrecision::kMixed) {
    // Mixed mode can flip knife-edge bin assignments; compare only the
    // aggregate: total pairs within one part in 1e3 and isotropic monopole.
    const double rel =
        std::abs(static_cast<double>(engine.n_pairs) -
                 static_cast<double>(direct.n_pairs)) /
        static_cast<double>(direct.n_pairs);
    EXPECT_LT(rel, 1e-3);
    const double a = engine.isotropic(0, 0, tc.nbins - 1);
    const double d = direct.isotropic(0, 0, tc.nbins - 1);
    EXPECT_NEAR(a, d, tol * std::max({1.0, std::abs(a), std::abs(d)}));
  } else {
    expect_results_match(engine, direct, tol, tol);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineVsDirect,
    ::testing::Values(
        DirectCase{"plane_l10", 400, 10, 4, false, false,
                   c::TreePrecision::kDouble, false, 201},
        DirectCase{"plane_l10_running", 400, 10, 4, false, false,
                   c::TreePrecision::kDouble, false, 202},
        DirectCase{"radial_l5", 350, 5, 5, true, false,
                   c::TreePrecision::kDouble, false, 203},
        DirectCase{"subset_l6", 300, 6, 3, false, false,
                   c::TreePrecision::kDouble, true, 204},
        DirectCase{"self_l4", 300, 4, 4, false, true,
                   c::TreePrecision::kDouble, false, 205},
        DirectCase{"radial_self_l4", 250, 4, 3, true, true,
                   c::TreePrecision::kDouble, false, 206},
        DirectCase{"mixed_l6", 500, 6, 4, false, false,
                   c::TreePrecision::kMixed, false, 207},
        DirectCase{"plane_l0", 300, 0, 3, false, false,
                   c::TreePrecision::kDouble, false, 208}),
    [](const ::testing::TestParamInfo<DirectCase>& info) {
      return info.param.name;
    });

// The two-pass pipeline against evidence that shares none of its code:
// split a clumpy catalog at the plane x = cut, run run_owned_pass +
// run_secondary_pass once with each side owned and the other as halo (the
// owned half-space as the SecondaryBound), and add the two results. Every
// (primary, secondary) pair is then evaluated exactly once, so the sum
// must match direct summation over the union. Mixed-precision cases run
// on the catalog snapped to the 1/64 grid, where their pair set is exact.
struct TwoPassCase {
  const char* name;
  bool radial;
  bool self;
  c::TreePrecision precision = c::TreePrecision::kDouble;
};

class TwoPassVsDirect : public ::testing::TestWithParam<TwoPassCase> {};

TEST_P(TwoPassVsDirect, PlaneSplitMatchesDirectSummation) {
  const TwoPassCase& tc = GetParam();
  b::OracleConfig ocfg;
  ocfg.bins = c::RadialBins(2.0, 14.0, 3);
  ocfg.lmax = 4;
  ocfg.include_degenerate = !tc.self;
  if (tc.radial) {
    ocfg.los = c::LineOfSight::kRadial;
    ocfg.observer = {-40.0, -35.0, -50.0};
  }
  const double side = 40.0, cut = side / 2;
  s::Catalog cat = galactos::testing::clumpy_catalog(150, side, 401);
  if (tc.precision == c::TreePrecision::kMixed)
    cat = galactos::testing::snapped_to_grid(std::move(cat));
  s::Catalog left, right;
  for (std::size_t i = 0; i < cat.size(); ++i)
    (cat.position(i).x < cut ? left : right).push_back(cat.position(i),
                                                       cat.w[i]);
  ASSERT_GT(left.size(), 20u);
  ASSERT_GT(right.size(), 20u);
  const double far = 1e3;
  const c::Engine::SecondaryBound left_slab{{-far, -far, -far},
                                            {cut, far, far}};
  const c::Engine::SecondaryBound right_slab{{cut, -far, -far},
                                             {far, far, far}};

  c::EngineConfig ecfg = engine_cfg(ocfg);
  ecfg.tree.precision = tc.precision;
  const c::Engine engine(ecfg);
  auto two_pass = [&](const s::Catalog& owned, const s::Catalog& halo,
                      const c::Engine::SecondaryBound& bound) {
    c::Engine::Staged staged = engine.build_index(owned);
    staged.run_owned_pass(bound);
    return staged.run_secondary_pass(halo);
  };
  c::ZetaResult split = two_pass(left, right, left_slab);
  split.accumulate(two_pass(right, left, right_slab));

  const c::ZetaResult direct = b::direct_summation(cat, ocfg);
  EXPECT_EQ(split.n_pairs, direct.n_pairs);
  expect_results_match(split, direct, 1e-9, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TwoPassVsDirect,
    ::testing::Values(
        TwoPassCase{"plane", false, false},
        TwoPassCase{"plane_self", false, true},
        TwoPassCase{"radial", true, false},
        TwoPassCase{"radial_self", true, true},
        TwoPassCase{"plane_mixed", false, false, c::TreePrecision::kMixed},
        TwoPassCase{"radial_self_mixed", true, true,
                    c::TreePrecision::kMixed}),
    [](const ::testing::TestParamInfo<TwoPassCase>& info) {
      return info.param.name;
    });

TEST(OracleConsistency, TripletsAgreeWithDirectSummation) {
  // The two oracles must agree with each other, both with and without
  // degenerate triplets.
  const s::Catalog cat = galactos::testing::clumpy_catalog(70, 30.0, 301);
  b::OracleConfig ocfg;
  ocfg.bins = c::RadialBins(1.0, 20.0, 3);
  ocfg.lmax = 3;
  for (bool degenerate : {true, false}) {
    ocfg.include_degenerate = degenerate;
    const c::ZetaResult a = b::brute_force_triplets(cat, ocfg);
    const c::ZetaResult d = b::direct_summation(cat, ocfg);
    expect_results_match(a, d, 1e-9, 1e-9);
  }
}

TEST(OracleConsistency, DegenerateTermsOnlyAffectDiagonal) {
  const s::Catalog cat = galactos::testing::clumpy_catalog(80, 30.0, 302);
  b::OracleConfig ocfg;
  ocfg.bins = c::RadialBins(1.0, 20.0, 3);
  ocfg.lmax = 3;
  ocfg.include_degenerate = true;
  const c::ZetaResult with = b::brute_force_triplets(cat, ocfg);
  ocfg.include_degenerate = false;
  const c::ZetaResult without = b::brute_force_triplets(cat, ocfg);
  for (int b1 = 0; b1 < 3; ++b1)
    for (int b2 = b1 + 1; b2 < 3; ++b2)
      for (int l = 0; l <= 3; ++l)
        EXPECT_NEAR(std::abs(with.zeta_m(b1, b2, l, l, 0) -
                             without.zeta_m(b1, b2, l, l, 0)),
                    0.0, 1e-12)
            << b1 << "," << b2;
  // And the diagonal must differ (degenerate terms are positive for l=l',
  // m=0 sums over real |Y|^2 ... not strictly, but for l=0 they are).
  EXPECT_GT(std::abs(with.zeta_m(0, 0, 0, 0, 0) -
                     without.zeta_m(0, 0, 0, 0, 0)),
            1e-6);
}
