// Deeper engine coverage: log-spaced bins against the oracle, degenerate
// configurations, odd multipoles under radial LOS, primary/secondary
// asymmetry, and the kernel overwrite fast path used since the accumulator
// stopped zeroing lanes.
#include <gtest/gtest.h>

#include "baseline/brute3pcf.hpp"
#include "core/engine.hpp"
#include "core/kernel.hpp"
#include "dist/runner.hpp"
#include "math/rng.hpp"
#include "sim/generators.hpp"
#include "test_helpers.hpp"

namespace b = galactos::baseline;
namespace c = galactos::core;
namespace m = galactos::math;
namespace s = galactos::sim;
using galactos::testing::expect_results_match;

TEST(KernelOverwrite, FirstFlushStoresInsteadOfAccumulating) {
  const int lmax = 4;
  const int nslots = m::basis_size(lmax);
  m::Rng rng(5);
  std::vector<double> ux(32), uy(32), uz(32), w(32);
  for (int i = 0; i < 32; ++i) {
    rng.unit_vector(ux[i], uy[i], uz[i]);
    w[i] = rng.uniform(0.5, 1.5);
  }
  // Poison the accumulator; overwrite must ignore the garbage.
  std::vector<double> acc(static_cast<std::size_t>(nslots) * c::kLanes, 1e30);
  std::vector<double> ref(nslots, 0.0);
  c::kernel_reference(ux.data(), uy.data(), uz.data(), w.data(), 32, lmax,
                      ref.data());
  for (int ilp : {1, 2, 4}) {
    std::fill(acc.begin(), acc.end(), 1e30);
    c::kernel_running_product(ux.data(), uy.data(), uz.data(), w.data(), 32,
                              lmax, acc.data(), ilp, /*overwrite=*/true);
    for (int t = 0; t < nslots; ++t) {
      double sum = 0;
      for (int l = 0; l < c::kLanes; ++l) sum += acc[t * c::kLanes + l];
      EXPECT_NEAR(sum, ref[t], 1e-11 * (1 + std::abs(ref[t])))
          << "ilp=" << ilp << " t=" << t;
    }
  }
}

TEST(EngineMore, LogBinsMatchOracle) {
  const s::Catalog cat = galactos::testing::clumpy_catalog(300, 40.0, 61);
  b::OracleConfig ocfg;
  ocfg.bins = c::RadialBins(1.0, 25.0, 5, c::BinSpacing::kLog);
  ocfg.lmax = 4;
  const c::ZetaResult oracle = b::direct_summation(cat, ocfg);

  c::EngineConfig ecfg;
  ecfg.bins = ocfg.bins;
  ecfg.lmax = ocfg.lmax;
  const c::ZetaResult engine = c::Engine(ecfg).run(cat);
  expect_results_match(engine, oracle, 1e-9, 1e-9);
}

TEST(EngineMore, SingleBinSingleL) {
  const s::Catalog cat = s::uniform_box(200, s::Aabb::cube(20), 62);
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(1.0, 8.0, 1);
  cfg.lmax = 0;
  const c::ZetaResult res = c::Engine(cfg).run(cat);
  // zeta^0_00(0,0) = sum_p w (counts/sqrt(4pi))^2 > 0.
  EXPECT_GT(res.zeta_m(0, 0, 0, 0, 0).real(), 0.0);
  EXPECT_EQ(res.zeta_m(0, 0, 0, 0, 0).imag(), 0.0);
}

TEST(EngineMore, OddMultipolesVanishInPlaneParallelPairStats) {
  // For a statistically reflection-symmetric box, xi_1 and xi_3 (odd
  // Legendre moments of mu) are consistent with zero; even ones are not
  // exactly zero at finite N but the odd/even contrast must be strong.
  const s::Catalog cat = s::uniform_box(20000, s::Aabb::cube(80), 63);
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(3.0, 12.0, 2);
  cfg.lmax = 4;
  const c::ZetaResult res = c::Engine(cfg).run(cat);
  for (int bin = 0; bin < 2; ++bin) {
    const double count = res.pair_counts[bin];
    EXPECT_LT(std::abs(res.xi_raw_at(1, bin)) / count, 0.02) << bin;
    EXPECT_LT(std::abs(res.xi_raw_at(3, bin)) / count, 0.02) << bin;
  }
}

TEST(EngineMore, HaloSecondariesContributeButDoNotAverage) {
  // Mimic the distributed setup: the same catalog, but only half the
  // galaxies are primaries; all must still be visible as secondaries.
  const s::Catalog cat = s::uniform_box(500, s::Aabb::cube(40), 64);
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(2.0, 15.0, 3);
  cfg.lmax = 2;
  std::vector<std::int64_t> half;
  for (std::int64_t i = 0; i < 250; ++i) half.push_back(i);
  const c::ZetaResult res = c::Engine(cfg).run(cat, &half);
  EXPECT_EQ(res.n_primaries, 250u);
  // Pair count must reflect all 500 potential secondaries per primary:
  // roughly half the all-primaries count.
  const c::ZetaResult all = c::Engine(cfg).run(cat);
  EXPECT_NEAR(static_cast<double>(res.n_pairs) /
                  static_cast<double>(all.n_pairs),
              0.5, 0.05);
}

TEST(EngineMore, RotationInvarianceOfIsotropicProjection) {
  // Rigidly rotating the whole catalog about the observer changes the
  // anisotropic coefficients but not the isotropic projection.
  const s::Catalog cat = galactos::testing::clumpy_catalog(400, 30.0, 65);
  s::Catalog rot;
  for (std::size_t i = 0; i < cat.size(); ++i)
    rot.push_back(cat.z[i], cat.x[i], cat.y[i], cat.w[i]);  // cyclic axes

  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(2.0, 18.0, 3);
  cfg.lmax = 4;
  const c::ZetaResult a = c::Engine(cfg).run(cat);
  const c::ZetaResult bres = c::Engine(cfg).run(rot);
  for (int b1 = 0; b1 < 3; ++b1)
    for (int b2 = b1; b2 < 3; ++b2)
      for (int l = 0; l <= 4; ++l) {
        const double ia = a.isotropic(l, b1, b2);
        const double ib = bres.isotropic(l, b1, b2);
        EXPECT_NEAR(ia, ib, 1e-8 * std::max({1.0, std::abs(ia)}))
            << l << " " << b1 << b2;
      }
}

TEST(EngineMore, LmaxTruncationIsConsistent) {
  // Running at lmax=2 must reproduce the lmax=6 run's coefficients for all
  // l, l' <= 2 exactly (the power sums nest).
  const s::Catalog cat = galactos::testing::clumpy_catalog(300, 30.0, 66);
  c::EngineConfig lo;
  lo.bins = c::RadialBins(2.0, 15.0, 3);
  lo.lmax = 2;
  c::EngineConfig hi = lo;
  hi.lmax = 6;
  const c::ZetaResult rlo = c::Engine(lo).run(cat);
  const c::ZetaResult rhi = c::Engine(hi).run(cat);
  for (int b1 = 0; b1 < 3; ++b1)
    for (int b2 = b1; b2 < 3; ++b2)
      for (int l = 0; l <= 2; ++l)
        for (int lp = 0; lp <= 2; ++lp)
          for (int mm = 0; mm <= std::min(l, lp); ++mm) {
            const auto zl = rlo.zeta_m(b1, b2, l, lp, mm);
            const auto zh = rhi.zeta_m(b1, b2, l, lp, mm);
            EXPECT_NEAR(std::abs(zl - zh), 0.0,
                        1e-10 * (1 + std::abs(zl)))
                << b1 << b2 << l << lp << mm;
          }
}

TEST(EngineMore, DistributedWithClusteredData) {
  // Levy-flight clustering stresses the partitioner's load balancing the
  // way the paper's §5.3 describes; the result must still be exact.
  const s::Aabb box = s::Aabb::cube(60);
  s::LevyFlightParams p;
  p.r0 = 0.3;
  const s::Catalog cat = s::levy_flight(1500, box, 67, p);
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(1.0, 10.0, 3);
  cfg.lmax = 3;
  cfg.threads = 1;
  const c::ZetaResult single = c::Engine(cfg).run(cat);

  galactos::dist::DistRunConfig dcfg;
  dcfg.engine = cfg;
  dcfg.ranks = 5;
  std::vector<galactos::dist::RankReport> reports;
  const c::ZetaResult dist =
      galactos::dist::run_distributed(cat, dcfg, &reports);
  expect_results_match(dist, single, 1e-10, 1e-10);

  // Primaries stay balanced even though the data is strongly clustered.
  std::uint64_t mn = UINT64_MAX, mx = 0;
  for (const auto& r : reports) {
    mn = std::min(mn, r.owned);
    mx = std::max(mx, r.owned);
  }
  EXPECT_LE(mx - mn, 2u);
}
