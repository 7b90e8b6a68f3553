// 2PCF accumulator: Legendre moments from the m = 0 power sums T[0,k].
#include <gtest/gtest.h>

#include <cmath>

#include "core/kernel.hpp"
#include "core/twopcf.hpp"
#include "math/legendre.hpp"
#include "math/rng.hpp"
#include "math/sph_table.hpp"

namespace c = galactos::core;
namespace m = galactos::math;

TEST(TwoPcf, MatchesDirectLegendreSums) {
  const int lmax = 6, nbins = 3;
  const int nslots = m::basis_size(lmax);
  c::TwoPcfAccumulator acc(lmax, nbins);
  m::Rng rng(3);

  // Direct reference.
  std::vector<double> ref(static_cast<std::size_t>(lmax + 1) * nbins, 0.0);
  std::vector<double> ref_counts(nbins, 0.0);

  for (int primary = 0; primary < 4; ++primary) {
    const double wp = rng.uniform(0.5, 1.5);
    for (int bin = 0; bin < nbins; ++bin) {
      std::vector<double> S(nslots, 0.0);
      const int npts = 5 + static_cast<int>(rng.uniform_u64(10));
      for (int p = 0; p < npts; ++p) {
        double x, y, z;
        rng.unit_vector(x, y, z);
        const double w = rng.uniform(0.1, 2.0);
        // accumulate power sums
        c::kernel_reference(&x, &y, &z, &w, 1, lmax, S.data());
        ref_counts[bin] += wp * w;
        for (int l = 0; l <= lmax; ++l)
          ref[static_cast<std::size_t>(l) * nbins + bin] +=
              wp * w * m::legendre_p(l, z);
      }
      acc.add_primary_bin(wp, bin, S.data());
    }
  }
  for (int bin = 0; bin < nbins; ++bin) {
    EXPECT_NEAR(acc.counts()[bin], ref_counts[bin],
                1e-11 * (1 + std::abs(ref_counts[bin])));
    for (int l = 0; l <= lmax; ++l) {
      const double got = acc.xi_raw()[static_cast<std::size_t>(l) * nbins + bin];
      const double want = ref[static_cast<std::size_t>(l) * nbins + bin];
      EXPECT_NEAR(got, want, 1e-10 * (1 + std::abs(want)))
          << "l=" << l << " bin=" << bin;
    }
  }
}

TEST(TwoPcf, CountsEqualMonopole) {
  const int lmax = 4, nbins = 2;
  c::TwoPcfAccumulator acc(lmax, nbins);
  std::vector<double> S(m::basis_size(lmax), 0.0);
  S[m::basis_slot(lmax, 0, 0)] = 7.5;  // sum of weights
  S[m::basis_slot(lmax, 0, 1)] = 1.25;
  S[m::basis_slot(lmax, 1, 0)] = 99.0;  // Re T[1,0]: not a 2PCF term
  acc.add_primary_bin(2.0, 1, S.data());
  EXPECT_DOUBLE_EQ(acc.counts()[1], 15.0);
  EXPECT_DOUBLE_EQ(acc.xi_raw()[static_cast<std::size_t>(0) * nbins + 1],
                   15.0);
  // Dipole = sum w mu = T[0,1].
  EXPECT_DOUBLE_EQ(acc.xi_raw()[static_cast<std::size_t>(1) * nbins + 1],
                   2.5);
}

TEST(TwoPcf, MergeEqualsSequential) {
  const int lmax = 3, nbins = 2;
  const int nslots = m::basis_size(lmax);
  c::TwoPcfAccumulator a(lmax, nbins), b(lmax, nbins), both(lmax, nbins);
  std::vector<double> S1(nslots, 0.5), S2(nslots, 1.5);
  a.add_primary_bin(1.0, 0, S1.data());
  b.add_primary_bin(2.0, 1, S2.data());
  both.add_primary_bin(1.0, 0, S1.data());
  both.add_primary_bin(2.0, 1, S2.data());
  a.merge(b);
  for (std::size_t i = 0; i < a.xi_raw().size(); ++i)
    EXPECT_DOUBLE_EQ(a.xi_raw()[i], both.xi_raw()[i]);
  for (int i = 0; i < nbins; ++i)
    EXPECT_DOUBLE_EQ(a.counts()[i], both.counts()[i]);
}
