// Spherical-harmonic machinery: monomial maps, Y_lm tables, orthonormality,
// the addition theorem, power-sum reconstruction and the recurrence
// evaluator — the math the whole estimator rests on.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "core/alm.hpp"
#include "core/kernel.hpp"
#include "math/legendre.hpp"
#include "math/rng.hpp"
#include "math/sph_table.hpp"
#include "math/ylm_recurrence.hpp"
#include "test_helpers.hpp"

namespace c = galactos::core;
namespace m = galactos::math;
using cd = std::complex<double>;

namespace {

// Reference Y_lm via associated Legendre + explicit phase.
cd ylm_reference(int l, int mm, double theta, double phi) {
  const int ma = std::abs(mm);
  const double norm = std::sqrt((2.0 * l + 1) / (4 * M_PI) *
                                m::factorial(l - ma) / m::factorial(l + ma));
  const double p = m::assoc_legendre_p(l, ma, std::cos(theta));
  cd y = norm * p * std::exp(cd(0.0, ma * phi));
  if (mm < 0) {
    y = std::conj(y);
    if (ma % 2 == 1) y = -y;
  }
  return y;
}

}  // namespace

TEST(MonomialMap, CountMatchesFormula) {
  for (int lmax : {0, 1, 2, 5, 10, 12}) {
    m::MonomialMap map(lmax);
    EXPECT_EQ(map.size(), m::monomial_count(lmax));
  }
  EXPECT_EQ(m::monomial_count(10), 286);  // the paper's number
}

TEST(MonomialMap, IndexRoundTrip) {
  m::MonomialMap map(10);
  for (int i = 0; i < map.size(); ++i) {
    const auto [a, b, c] = map.abc(i);
    EXPECT_EQ(map.index(a, b, c), i);
    EXPECT_LE(a + b + c, 10);
  }
}

TEST(MonomialMap, OrderingIsNestedLoops) {
  // The kernel relies on the exact a->b->c nesting.
  m::MonomialMap map(4);
  int idx = 0;
  for (int a = 0; a <= 4; ++a)
    for (int b = 0; a + b <= 4; ++b)
      for (int c = 0; a + b + c <= 4; ++c) {
        const auto t = map.abc(idx);
        EXPECT_EQ(t.a, a);
        EXPECT_EQ(t.b, b);
        EXPECT_EQ(t.c, c);
        ++idx;
      }
}

TEST(SphHarmTable, MatchesReferenceOnRandomDirections) {
  const int lmax = 10;
  m::SphHarmTable table(lmax);
  m::Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const double theta = std::acos(2 * rng.uniform() - 1);
    const double phi = 2 * M_PI * rng.uniform();
    const double x = std::sin(theta) * std::cos(phi);
    const double y = std::sin(theta) * std::sin(phi);
    const double z = std::cos(theta);
    for (int l = 0; l <= lmax; ++l)
      for (int mm = -l; mm <= l; ++mm) {
        const cd got = table.eval(l, mm, x, y, z);
        const cd ref = ylm_reference(l, mm, theta, phi);
        EXPECT_NEAR(got.real(), ref.real(), 1e-10)
            << "l=" << l << " m=" << mm;
        EXPECT_NEAR(got.imag(), ref.imag(), 1e-10)
            << "l=" << l << " m=" << mm;
      }
  }
}

TEST(SphHarmTable, EvalAllConsistentWithEval) {
  const int lmax = 8;
  m::SphHarmTable table(lmax);
  std::vector<cd> ylm(m::nlm(lmax));
  m::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    double x, y, z;
    rng.unit_vector(x, y, z);
    table.eval_all(x, y, z, ylm.data());
    for (int l = 0; l <= lmax; ++l)
      for (int mm = 0; mm <= l; ++mm) {
        const cd a = ylm[m::lm_index(l, mm)];
        const cd b = table.eval(l, mm, x, y, z);
        EXPECT_NEAR(std::abs(a - b), 0.0, 1e-12);
      }
  }
}

TEST(SphHarmTable, OrthonormalityUnderQuadrature) {
  // Gauss-Legendre in cos(theta) x uniform in phi integrates spherical
  // harmonics of degree <= lmax exactly.
  const int lmax = 6;
  m::SphHarmTable table(lmax);
  std::vector<double> nodes, weights;
  m::gauss_legendre(lmax + 2, nodes, weights);
  const int nphi = 4 * lmax + 4;

  for (int l1 = 0; l1 <= lmax; ++l1)
    for (int m1 = -l1; m1 <= l1; ++m1)
      for (int l2 = 0; l2 <= lmax; ++l2)
        for (int m2 = -l2; m2 <= l2; ++m2) {
          cd s{0, 0};
          for (std::size_t i = 0; i < nodes.size(); ++i) {
            const double z = nodes[i];
            const double st = std::sqrt(1 - z * z);
            for (int j = 0; j < nphi; ++j) {
              const double phi = 2 * M_PI * j / nphi;
              const double x = st * std::cos(phi), y = st * std::sin(phi);
              s += weights[i] * (2 * M_PI / nphi) *
                   table.eval(l1, m1, x, y, z) *
                   std::conj(table.eval(l2, m2, x, y, z));
            }
          }
          const double exact = (l1 == l2 && m1 == m2) ? 1.0 : 0.0;
          EXPECT_NEAR(s.real(), exact, 1e-10)
              << l1 << "," << m1 << " vs " << l2 << "," << m2;
          EXPECT_NEAR(s.imag(), 0.0, 1e-10);
        }
}

TEST(SphHarmTable, AdditionTheorem) {
  // sum_m Y_lm(u1) Y*_lm(u2) = (2l+1)/(4pi) P_l(u1 . u2).
  const int lmax = 10;
  m::SphHarmTable table(lmax);
  m::Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    double x1, y1, z1, x2, y2, z2;
    rng.unit_vector(x1, y1, z1);
    rng.unit_vector(x2, y2, z2);
    const double mu = x1 * x2 + y1 * y2 + z1 * z2;
    for (int l = 0; l <= lmax; ++l) {
      cd s{0, 0};
      for (int mm = -l; mm <= l; ++mm)
        s += table.eval(l, mm, x1, y1, z1) *
             std::conj(table.eval(l, mm, x2, y2, z2));
      const double exact = (2 * l + 1) / (4 * M_PI) * m::legendre_p(l, mu);
      EXPECT_NEAR(s.real(), exact, 1e-10) << "l=" << l;
      EXPECT_NEAR(s.imag(), 0.0, 1e-10) << "l=" << l;
    }
  }
}

TEST(SphHarmTable, ConjugationSymmetry) {
  m::SphHarmTable table(6);
  m::Rng rng(3);
  double x, y, z;
  rng.unit_vector(x, y, z);
  for (int l = 0; l <= 6; ++l)
    for (int mm = 1; mm <= l; ++mm) {
      const cd plus = table.eval(l, mm, x, y, z);
      const cd minus = table.eval(l, -mm, x, y, z);
      const cd expect = (mm % 2 ? -1.0 : 1.0) * std::conj(plus);
      EXPECT_NEAR(std::abs(minus - expect), 0.0, 1e-12);
    }
}

TEST(SphHarmTable, AlmFromPowerSumsMatchesDirectSum) {
  // Build power sums from a small set of weighted directions; a_lm from the
  // table must equal sum_j w_j conj(Y_lm(u_j)).
  const int lmax = 8;
  m::SphHarmTable table(lmax);
  const m::MonomialMap& mono = table.monomials();
  m::Rng rng(19);

  const int npts = 37;
  std::vector<double> S(mono.size(), 0.0);
  std::vector<cd> direct(m::nlm(lmax), cd{0, 0});
  for (int j = 0; j < npts; ++j) {
    double x, y, z;
    rng.unit_vector(x, y, z);
    const double w = rng.uniform(0.5, 2.0);
    for (int t = 0; t < mono.size(); ++t) {
      const auto [a, b, c] = mono.abc(t);
      S[t] += w * std::pow(x, a) * std::pow(y, b) * std::pow(z, c);
    }
    for (int l = 0; l <= lmax; ++l)
      for (int mm = 0; mm <= l; ++mm)
        direct[m::lm_index(l, mm)] += w * std::conj(table.eval(l, mm, x, y, z));
  }
  std::vector<cd> alm(m::nlm(lmax));
  table.alm_from_power_sums(S.data(), alm.data());
  for (int i = 0; i < m::nlm(lmax); ++i)
    EXPECT_NEAR(std::abs(alm[i] - direct[i]), 0.0, 1e-9) << "lm flat " << i;
}

// Bins-as-lanes a_lm (every touched bin at once, bins as SIMD lanes) must
// replay alm_from_power_sums' per-bin chain bit for bit: bin counts below,
// at and around one and two lane blocks, untouched bins (also the top one)
// whose columns hold junk, and both output layouts — a strided plane pair
// and compute_alm's complex [bin][lm].
TEST(AlmBinsAsLanes, MatchesPerBinOracleBitwise) {
  using galactos::testing::bits;
  using galactos::testing::per_bin_alm;
  const double sentinel = -12345.0;
  for (int lmax : {0, 2, 5, 10}) {
    const m::SphHarmTable table(lmax);
    const int nlm = m::nlm(lmax);
    const int nmono = m::monomial_count(lmax);
    for (int nbins : {1, 3, 8, 9, 10, 16, 17}) {
      m::Rng rng(100 * lmax + nbins);
      const std::size_t stride =
          static_cast<std::size_t>(nbins + c::kLanes - 1) / c::kLanes *
          c::kLanes;
      std::vector<double> sums(stride * nmono);
      for (double& x : sums) x = rng.uniform(-3, 3);
      // Touched: every other bin from a random start, listed in reverse.
      std::vector<int> bins;
      for (int b = nbins - 1 - static_cast<int>(rng.uniform_u64(2)); b >= 0;
           b -= 2)
        bins.push_back(b);
      const std::string what =
          "lmax=" + std::to_string(lmax) + " nbins=" + std::to_string(nbins);

      // Planes: (l, m) of bin b at off[lm] + b * step[lm], steps differing
      // per lm and gaps left between entries.
      std::vector<std::size_t> off(nlm), step(nlm);
      std::size_t size = 0;
      for (int lm = 0; lm < nlm; ++lm) {
        off[lm] = size;
        step[lm] = static_cast<std::size_t>(2 + lm % 3);
        size += step[lm] * nbins;
      }
      std::vector<double> re(size, sentinel), im(size, sentinel);
      c::alm_bins_as_lanes(table, sums.data(), stride, bins.data(),
                           static_cast<int>(bins.size()), re.data(),
                           im.data(), off.data(), step.data());

      std::vector<cd> alm(static_cast<std::size_t>(nbins) * nlm,
                          cd{sentinel, sentinel});
      c::compute_alm(table, c::AlmLayout(lmax), sums.data(), stride,
                     bins.data(), static_cast<int>(bins.size()), alm.data());

      std::vector<std::uint8_t> touched(nbins, 0);
      for (int b : bins) touched[b] = 1;
      for (int b = 0; b < nbins; ++b) {
        std::vector<cd> ref(nlm, cd{sentinel, sentinel});
        if (touched[b]) ref = per_bin_alm(table, sums, stride, b);
        for (int lm = 0; lm < nlm; ++lm) {
          const std::size_t k = off[lm] + b * step[lm];
          ASSERT_EQ(bits(re[k]), bits(ref[lm].real()))
              << what << " bin=" << b;
          ASSERT_EQ(bits(im[k]), bits(ref[lm].imag()))
              << what << " bin=" << b;
          const cd got = alm[static_cast<std::size_t>(b) * nlm + lm];
          ASSERT_EQ(bits(got.real()), bits(ref[lm].real()))
              << what << " bin=" << b;
          ASSERT_EQ(bits(got.imag()), bits(ref[lm].imag()))
              << what << " bin=" << b;
        }
      }
      // Nothing is written between a bin's entries.
      std::size_t written = 0;
      for (std::size_t k = 0; k < size; ++k) written += re[k] != sentinel;
      EXPECT_EQ(written, bins.size() * nlm) << what;
    }
  }
}

TEST(YlmRecurrence, MatchesTable) {
  const int lmax = 12;
  m::SphHarmTable table(lmax);
  m::YlmRecurrence rec(lmax);
  std::vector<cd> ylm(m::nlm(lmax));
  m::Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    double x, y, z;
    rng.unit_vector(x, y, z);
    rec.eval_all(x, y, z, ylm.data());
    for (int l = 0; l <= lmax; ++l)
      for (int mm = 0; mm <= l; ++mm) {
        const cd ref = table.eval(l, mm, x, y, z);
        EXPECT_NEAR(std::abs(ylm[m::lm_index(l, mm)] - ref), 0.0, 1e-10)
            << "l=" << l << " m=" << mm;
      }
  }
}

TEST(YlmRecurrence, PolesAreFinite) {
  m::YlmRecurrence rec(10);
  std::vector<cd> ylm(m::nlm(10));
  for (double z : {1.0, -1.0}) {
    rec.eval_all(0.0, 0.0, z, ylm.data());
    for (const cd& v : ylm) {
      EXPECT_TRUE(std::isfinite(v.real()));
      EXPECT_TRUE(std::isfinite(v.imag()));
    }
    // At the poles only m == 0 survives.
    for (int l = 0; l <= 10; ++l)
      for (int mm = 1; mm <= l; ++mm)
        EXPECT_NEAR(std::abs(ylm[m::lm_index(l, mm)]), 0.0, 1e-12);
  }
}
