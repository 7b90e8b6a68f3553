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
};

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
  const s::Catalog cat = galactos::testing::clumpy_catalog(tc.n, 40.0, tc.seed);

  const c::ZetaResult oracle = b::brute_force_triplets(cat, ocfg);
  const c::ZetaResult engine = c::Engine(engine_cfg(ocfg)).run(cat);
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
        OracleCase{"plane_l6", 70, 6, false, true, 106}),
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
    staged.extend_with_secondaries(halo);
    return staged.run_secondary_pass();
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
