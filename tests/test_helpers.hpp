// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/kernel.hpp"
#include "core/zeta.hpp"
#include "math/rng.hpp"
#include "math/sph_table.hpp"
#include "sim/catalog.hpp"
#include "sim/generators.hpp"

namespace galactos::testing {

// Relative-or-absolute closeness for quantities spanning many magnitudes.
inline void expect_close(double a, double b, double rel, double abs_floor,
                         const std::string& what) {
  const double tol = std::max(abs_floor, rel * std::max(std::abs(a),
                                                        std::abs(b)));
  EXPECT_NEAR(a, b, tol) << what;
}

// Compares every zeta coefficient, the pair counts and the 2PCF moments of
// two results. `rel` is the relative tolerance; `abs_floor` guards
// near-zero coefficients.
inline void expect_results_match(const core::ZetaResult& a,
                                 const core::ZetaResult& b, double rel,
                                 double abs_floor) {
  ASSERT_EQ(a.lmax, b.lmax);
  ASSERT_EQ(a.bins.count(), b.bins.count());
  EXPECT_EQ(a.n_primaries, b.n_primaries);
  expect_close(a.sum_primary_weight, b.sum_primary_weight, rel, abs_floor,
               "sum_primary_weight");
  const int nb = a.bins.count();
  for (int b1 = 0; b1 < nb; ++b1) {
    expect_close(a.pair_counts[b1], b.pair_counts[b1], rel, abs_floor,
                 "pair_counts[" + std::to_string(b1) + "]");
    for (int l = 0; l <= a.lmax; ++l)
      expect_close(a.xi_raw_at(l, b1), b.xi_raw_at(l, b1), rel, abs_floor,
                   "xi_raw l=" + std::to_string(l));
  }
  for (int b1 = 0; b1 < nb; ++b1)
    for (int b2 = b1; b2 < nb; ++b2)
      for (int l = 0; l <= a.lmax; ++l)
        for (int lp = 0; lp <= a.lmax; ++lp)
          for (int m = 0; m <= std::min(l, lp); ++m) {
            const auto za = a.zeta_m(b1, b2, l, lp, m);
            const auto zb = b.zeta_m(b1, b2, l, lp, m);
            const std::string what =
                "zeta(b1=" + std::to_string(b1) + ",b2=" + std::to_string(b2) +
                ",l=" + std::to_string(l) + ",lp=" + std::to_string(lp) +
                ",m=" + std::to_string(m) + ")";
            expect_close(za.real(), zb.real(), rel, abs_floor, what + ".re");
            expect_close(za.imag(), zb.imag(), rel, abs_floor, what + ".im");
          }
}

// Indices of galaxies at least `margin` away from every face of `box` —
// primaries whose R_max spheres lie fully inside the data volume, so
// shell-count expectations hold without edge corrections.
inline std::vector<std::int64_t> interior_primaries(const sim::Catalog& c,
                                                    const sim::Aabb& box,
                                                    double margin) {
  return sim::interior_indices(c, box, margin);
}

// Small clustered-ish catalog: uniform plus a few tight clumps, exercising
// uneven bin occupancy.
inline sim::Catalog clumpy_catalog(std::size_t n, double side,
                                   std::uint64_t seed) {
  math::Rng rng(seed);
  sim::Catalog c;
  c.reserve(n);
  const std::size_t nclump = std::max<std::size_t>(1, n / 10);
  std::size_t i = 0;
  while (i < n) {
    // Clump center.
    const double cx = rng.uniform(0, side);
    const double cy = rng.uniform(0, side);
    const double cz = rng.uniform(0, side);
    const std::size_t k = std::min<std::size_t>(n - i, 1 + rng.uniform_u64(8));
    for (std::size_t j = 0; j < k; ++j, ++i) {
      c.push_back(std::clamp(cx + rng.normal(0, side / 30), 0.0, side),
                  std::clamp(cy + rng.normal(0, side / 30), 0.0, side),
                  std::clamp(cz + rng.normal(0, side / 30), 0.0, side),
                  0.5 + rng.uniform());  // nontrivial weights
    }
    (void)nclump;
  }
  return c;
}

// The IEEE bit pattern of a double, so equality checks see -0 vs +0.
inline std::uint64_t bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

// One bin's power sums the way the accumulator computed them before the
// lane reduction was fused into the kernel: capacity-sized buckets of the
// pairs, each zero-padded to kLanes and run through the raw bucket kernel
// into the lane block (the first one overwriting), then one standalone
// reduction per monomial with the tree ((0+1)+(2+3))+((4+5)+(6+7)). The
// fused epilogue must reproduce it bit for bit.
inline std::vector<double> unfused_power_sums(const core::KernelConfig& cfg,
                                              const double* ux,
                                              const double* uy,
                                              const double* uz,
                                              const double* w, int n) {
  const int cap = cfg.bucket_capacity;
  const int nmono = math::monomial_count(cfg.lmax);
  std::vector<double> acc(static_cast<std::size_t>(nmono) * core::kLanes);
  std::vector<double> bx, by, bz, bw, zs(2 * static_cast<std::size_t>(cap));
  for (int i0 = 0; i0 < n; i0 += cap) {
    const int cnt = std::min(cap, n - i0);
    const int padded = (cnt + core::kLanes - 1) / core::kLanes * core::kLanes;
    bx.assign(padded, 0.0);
    by.assign(padded, 0.0);
    bz.assign(padded, 0.0);
    bw.assign(padded, 0.0);
    std::copy(ux + i0, ux + i0 + cnt, bx.begin());
    std::copy(uy + i0, uy + i0 + cnt, by.begin());
    std::copy(uz + i0, uz + i0 + cnt, bz.begin());
    std::copy(w + i0, w + i0 + cnt, bw.begin());
    if (cfg.scheme == core::KernelScheme::kRunningProduct)
      core::kernel_running_product(bx.data(), by.data(), bz.data(), bw.data(),
                                   padded, cfg.lmax, acc.data(), cfg.ilp,
                                   i0 == 0);
    else
      core::kernel_zbuffered(bx.data(), by.data(), bz.data(), bw.data(),
                             padded, cfg.lmax, acc.data(), zs.data(),
                             i0 == 0);
  }
  std::vector<double> s(nmono);
  for (int t = 0; t < nmono; ++t) {
    const double* a = acc.data() + static_cast<std::size_t>(t) * core::kLanes;
    s[t] = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
  }
  return s;
}

// Per-bin oracle of the bins-as-lanes a_lm: SphHarmTable::
// alm_from_power_sums on bin b's column of bin-interleaved sums
// S[t * stride + b].
inline std::vector<std::complex<double>> per_bin_alm(
    const math::SphHarmTable& table, const std::vector<double>& sums,
    std::size_t stride, int b) {
  const int nmono = math::monomial_count(table.lmax());
  std::vector<double> col(nmono);
  for (int t = 0; t < nmono; ++t)
    col[t] = sums[static_cast<std::size_t>(t) * stride + b];
  std::vector<std::complex<double>> alm(math::nlm(table.lmax()));
  table.alm_from_power_sums(col.data(), alm.data());
  return alm;
}

}  // namespace galactos::testing
