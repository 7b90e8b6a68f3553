// Baseline algorithms: the isotropic Legendre 3PCF (S&E 2015) against the
// engine's isotropic projection (an exact mathematical identity), and the
// brute-force 2PCF against the engine's xi byproduct.
#include <gtest/gtest.h>

#include "baseline/brute2pcf.hpp"
#include "baseline/brute3pcf.hpp"
#include "baseline/legendre_iso.hpp"
#include "core/engine.hpp"
#include "math/legendre.hpp"
#include "sim/generators.hpp"
#include "test_helpers.hpp"

namespace b = galactos::baseline;
namespace c = galactos::core;
namespace s = galactos::sim;

TEST(LegendreIso, MatchesEngineIsotropicProjection) {
  // sum_m a_lm(b1) a*_lm(b2) is rotation invariant, so the anisotropic
  // engine's diagonal m-sum must equal the isotropic algorithm exactly
  // (both keep degenerate j == k terms here).
  const s::Catalog cat = galactos::testing::clumpy_catalog(500, 50.0, 41);
  b::LegendreIsoConfig icfg;
  icfg.bins = c::RadialBins(2.0, 30.0, 4);
  icfg.lmax = 6;
  icfg.threads = 2;
  const b::LegendreIsoResult iso = b::legendre_isotropic_3pcf(cat, icfg);

  c::EngineConfig ecfg;
  ecfg.bins = icfg.bins;
  ecfg.lmax = icfg.lmax;
  ecfg.threads = 2;
  const c::ZetaResult aniso = c::Engine(ecfg).run(cat);

  EXPECT_EQ(iso.n_primaries, aniso.n_primaries);
  EXPECT_EQ(iso.n_pairs, aniso.n_pairs);
  for (int b1 = 0; b1 < 4; ++b1)
    for (int b2 = b1; b2 < 4; ++b2)
      for (int l = 0; l <= icfg.lmax; ++l) {
        const double a = aniso.isotropic(l, b1, b2);
        const double i = iso.zeta_l(l, b1, b2);
        EXPECT_NEAR(a, i, 1e-9 * std::max({1.0, std::abs(a), std::abs(i)}))
            << "l=" << l << " b1=" << b1 << " b2=" << b2;
      }
}

TEST(LegendreIso, RotatedCatalogGivesSameMultipoles) {
  // Isotropic statistic: rigidly rotating the whole catalog must not change
  // zeta_l.
  const s::Catalog cat = galactos::testing::clumpy_catalog(300, 40.0, 43);
  s::Catalog rotated;
  // Rotate 90 degrees about z: (x,y,z) -> (-y,x,z).
  for (std::size_t i = 0; i < cat.size(); ++i)
    rotated.push_back(-cat.y[i], cat.x[i], cat.z[i], cat.w[i]);

  b::LegendreIsoConfig cfg;
  cfg.bins = c::RadialBins(2.0, 25.0, 3);
  cfg.lmax = 4;
  const auto a = b::legendre_isotropic_3pcf(cat, cfg);
  const auto r = b::legendre_isotropic_3pcf(rotated, cfg);
  for (int b1 = 0; b1 < 3; ++b1)
    for (int b2 = b1; b2 < 3; ++b2)
      for (int l = 0; l <= 4; ++l)
        EXPECT_NEAR(a.zeta_l(l, b1, b2), r.zeta_l(l, b1, b2),
                    1e-9 * std::max(1.0, std::abs(a.zeta_l(l, b1, b2))));
}

TEST(LegendreIso, MatchesBruteForceTriplets) {
  // Independent of the k-d tree: every primary scans the whole catalog, and
  // N_l(b1, b2) = sum_p w_p sum_{j in b1, k in b2} w_j w_k P_l(u_j . u_k)
  // over ordered secondary pairs (j == k included), the addition theorem
  // applied to the a_lm contraction.
  const s::Catalog cat = galactos::testing::clumpy_catalog(120, 30.0, 45);
  b::LegendreIsoConfig cfg;
  cfg.bins = c::RadialBins(1.5, 14.0, 3);
  cfg.lmax = 5;
  cfg.threads = 2;
  const b::LegendreIsoResult iso = b::legendre_isotropic_3pcf(cat, cfg);

  const int nb = cfg.bins.count();
  const int nl = cfg.lmax + 1;
  std::vector<double> ref(static_cast<std::size_t>(nb * nb * nl), 0.0);
  std::vector<double> scale(static_cast<std::size_t>(nb * nb), 0.0);
  std::uint64_t pairs = 0;
  for (std::size_t p = 0; p < cat.size(); ++p) {
    std::vector<double> ux, uy, uz, w;
    std::vector<int> bin;
    std::vector<double> wsum(nb, 0.0);
    for (std::size_t j = 0; j < cat.size(); ++j) {
      const double dx = cat.x[j] - cat.x[p], dy = cat.y[j] - cat.y[p],
                   dz = cat.z[j] - cat.z[p];
      const double r = std::sqrt(dx * dx + dy * dy + dz * dz);
      const int bj = j == p || r <= 0.0 ? -1 : cfg.bins.bin_of(r);
      if (bj < 0) continue;
      ux.push_back(dx / r);
      uy.push_back(dy / r);
      uz.push_back(dz / r);
      w.push_back(cat.w[j]);
      bin.push_back(bj);
      wsum[bj] += cat.w[j];
      ++pairs;
    }
    for (std::size_t j = 0; j < w.size(); ++j)
      for (std::size_t k = 0; k < w.size(); ++k) {
        const double mu = ux[j] * ux[k] + uy[j] * uy[k] + uz[j] * uz[k];
        for (int l = 0; l < nl; ++l)
          ref[static_cast<std::size_t>((bin[j] * nb + bin[k]) * nl + l)] +=
              cat.w[p] * w[j] * w[k] * galactos::math::legendre_p(l, mu);
      }
    for (int b1 = 0; b1 < nb; ++b1)
      for (int b2 = 0; b2 < nb; ++b2)
        scale[static_cast<std::size_t>(b1 * nb + b2)] +=
            cat.w[p] * wsum[b1] * wsum[b2];
  }

  EXPECT_EQ(iso.n_primaries, cat.size());
  EXPECT_EQ(iso.n_pairs, pairs);
  for (int b1 = 0; b1 < nb; ++b1)
    for (int b2 = b1; b2 < nb; ++b2) {
      // |P_l| <= 1, so the sum of |terms| bounds every multipole.
      const double tol =
          1e-10 * std::max(1.0, scale[static_cast<std::size_t>(b1 * nb + b2)]);
      for (int l = 0; l < nl; ++l)
        EXPECT_NEAR(
            iso.zeta_l(l, b1, b2),
            ref[static_cast<std::size_t>((b1 * nb + b2) * nl + l)], tol)
            << "l=" << l << " b1=" << b1 << " b2=" << b2;
    }
}

TEST(LegendreIso, EmptyCatalogGivesZeros) {
  b::LegendreIsoConfig cfg;
  cfg.bins = c::RadialBins(1.0, 10.0, 3);
  cfg.lmax = 3;
  const b::LegendreIsoResult iso =
      b::legendre_isotropic_3pcf(s::Catalog{}, cfg);
  EXPECT_EQ(iso.n_primaries, 0u);
  EXPECT_EQ(iso.n_pairs, 0u);
  EXPECT_EQ(iso.sum_primary_weight, 0.0);
  ASSERT_EQ(iso.multipoles.size(), 6u * 4u);
  for (double v : iso.multipoles) EXPECT_EQ(v, 0.0);
}

TEST(Brute2Pcf, MatchesEngineXiByproduct) {
  const s::Catalog cat = galactos::testing::clumpy_catalog(400, 40.0, 47);
  b::Brute2PcfConfig bcfg;
  bcfg.bins = c::RadialBins(2.0, 22.0, 4);
  bcfg.lmax = 4;
  const auto brute = b::brute_force_2pcf(cat, bcfg);

  c::EngineConfig ecfg;
  ecfg.bins = bcfg.bins;
  ecfg.lmax = bcfg.lmax;
  const c::ZetaResult engine = c::Engine(ecfg).run(cat);

  for (int bin = 0; bin < 4; ++bin) {
    EXPECT_NEAR(engine.pair_counts[bin], brute.counts[bin],
                1e-9 * (1 + std::abs(brute.counts[bin])));
    for (int l = 0; l <= 4; ++l)
      EXPECT_NEAR(engine.xi_raw_at(l, bin), brute.raw(l, bin),
                  1e-9 * (1 + std::abs(brute.raw(l, bin))))
          << "l=" << l << " bin=" << bin;
  }
}

TEST(Brute2Pcf, RadialModeMatchesEngine) {
  const s::Catalog cat = galactos::testing::clumpy_catalog(300, 30.0, 53);
  b::Brute2PcfConfig bcfg;
  bcfg.bins = c::RadialBins(1.0, 15.0, 3);
  bcfg.lmax = 3;
  bcfg.los = c::LineOfSight::kRadial;
  bcfg.observer = {-20, -20, -20};
  const auto brute = b::brute_force_2pcf(cat, bcfg);

  c::EngineConfig ecfg;
  ecfg.bins = bcfg.bins;
  ecfg.lmax = bcfg.lmax;
  ecfg.los = c::LineOfSight::kRadial;
  ecfg.observer = bcfg.observer;
  const c::ZetaResult engine = c::Engine(ecfg).run(cat);
  for (int bin = 0; bin < 3; ++bin)
    for (int l = 0; l <= 3; ++l)
      EXPECT_NEAR(engine.xi_raw_at(l, bin), brute.raw(l, bin),
                  1e-9 * (1 + std::abs(brute.raw(l, bin))));
}

TEST(BruteTriplets, RefusesHugeCatalogs) {
  const s::Catalog cat = s::uniform_box(3000, s::Aabb::cube(10), 1);
  b::OracleConfig cfg;
  EXPECT_THROW(b::brute_force_triplets(cat, cfg), std::logic_error);
}
