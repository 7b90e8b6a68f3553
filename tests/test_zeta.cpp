// Zeta accumulation: LlmIndex, bin-pair layout, symmetry, merging, the
// batched update against the per-primary oracle (bitwise), result
// arithmetic and the isotropic projection identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <string>
#include <vector>

#include "core/zeta.hpp"
#include "math/legendre.hpp"
#include "math/rng.hpp"
#include "math/sph_table.hpp"

namespace c = galactos::core;
namespace m = galactos::math;
using cd = std::complex<double>;

TEST(LlmIndex, SizeMatchesClosedForm) {
  // sum over m of (lmax+1-m)^2.
  for (int lmax : {0, 1, 2, 4, 10}) {
    c::LlmIndex llm(lmax);
    int expect = 0;
    for (int mm = 0; mm <= lmax; ++mm)
      expect += (lmax + 1 - mm) * (lmax + 1 - mm);
    EXPECT_EQ(llm.size(), expect);
  }
  EXPECT_EQ(c::LlmIndex(10).size(), 506);
}

TEST(LlmIndex, RoundTripAndAlmIndices) {
  c::LlmIndex llm(6);
  for (int i = 0; i < llm.size(); ++i) {
    const auto t = llm.at(i);
    EXPECT_EQ(llm.index(t.l, t.lp, t.m), i);
    EXPECT_LE(t.m, std::min(t.l, t.lp));
    EXPECT_EQ(llm.alm_index_1()[i], m::lm_index(t.l, t.m));
    EXPECT_EQ(llm.alm_index_2()[i], m::lm_index(t.lp, t.m));
  }
}

TEST(ZetaAccumulator, BinPairLayout) {
  c::ZetaAccumulator z(2, 4);
  EXPECT_EQ(c::ZetaAccumulator::bin_pair_count(4), 10);
  int expect = 0;
  for (int b1 = 0; b1 < 4; ++b1)
    for (int b2 = b1; b2 < 4; ++b2) EXPECT_EQ(z.bin_pair(b1, b2), expect++);
}

namespace {

// Builds alm arrays for a synthetic set of per-bin weighted directions and
// returns the expected zeta via explicit double loops.
struct Synthetic {
  std::vector<cd> alm;             // [nbins][nlm]
  std::vector<std::uint8_t> touched;
};

Synthetic make_synthetic(int lmax, int nbins, std::uint64_t seed) {
  m::SphHarmTable table(lmax);
  m::Rng rng(seed);
  Synthetic s;
  const int nlm = m::nlm(lmax);
  s.alm.assign(static_cast<std::size_t>(nbins) * nlm, cd{0, 0});
  s.touched.assign(nbins, 0);
  for (int b = 0; b < nbins; ++b) {
    if (b == 1) continue;  // leave a hole
    s.touched[b] = 1;
    const int npts = 3 + static_cast<int>(rng.uniform_u64(5));
    for (int p = 0; p < npts; ++p) {
      double x, y, z;
      rng.unit_vector(x, y, z);
      const double w = rng.uniform(0.5, 1.5);
      for (int l = 0; l <= lmax; ++l)
        for (int mm = 0; mm <= l; ++mm)
          s.alm[static_cast<std::size_t>(b) * nlm + m::lm_index(l, mm)] +=
              w * std::conj(table.eval(l, mm, x, y, z));
    }
  }
  return s;
}

}  // namespace

TEST(ZetaAccumulator, AddPrimaryMatchesExplicitProducts) {
  const int lmax = 3, nbins = 3;
  const int nlm = m::nlm(lmax);
  c::ZetaAccumulator z(lmax, nbins);
  const Synthetic s = make_synthetic(lmax, nbins, 42);
  const double wp = 1.7;
  z.add_primary(wp, s.alm.data(), s.touched.data());
  EXPECT_EQ(z.primaries(), 1u);
  EXPECT_DOUBLE_EQ(z.sum_weight(), wp);

  for (int b1 = 0; b1 < nbins; ++b1)
    for (int b2 = 0; b2 < nbins; ++b2)
      for (int l = 0; l <= lmax; ++l)
        for (int lp = 0; lp <= lmax; ++lp)
          for (int mm = 0; mm <= std::min(l, lp); ++mm) {
            cd expect{0, 0};
            if (s.touched[b1] && s.touched[b2])
              expect = wp *
                       s.alm[static_cast<std::size_t>(b1) * nlm +
                             m::lm_index(l, mm)] *
                       std::conj(s.alm[static_cast<std::size_t>(b2) * nlm +
                                       m::lm_index(lp, mm)]);
            const cd got = z.raw(b1, b2, l, lp, mm);
            EXPECT_NEAR(std::abs(got - expect), 0.0, 1e-12)
                << b1 << b2 << " " << l << lp << mm;
          }
}

// add_primary(A) + add_primary_cross(A, B) must equal add_primary(A + B):
// the two-pass completion identity a·a* = A·A* + (A·B* + B·A* + B·B*),
// with disjoint, overlapping and empty touched-bin patterns — and it must
// not count an extra primary.
TEST(ZetaAccumulator, AddPrimaryCrossCompletesTheSplit) {
  const int lmax = 3, nbins = 4;
  const int nlm = m::nlm(lmax);
  const double wp = 1.3;
  const Synthetic a = make_synthetic(lmax, nbins, 11);
  Synthetic b = make_synthetic(lmax, nbins, 12);
  // Make the touched patterns genuinely different: clear one bin A has.
  b.touched[0] = 0;
  for (int k = 0; k < nlm; ++k) b.alm[k] = cd{0, 0};

  // Reference: one shot over the union alm.
  Synthetic u = a;
  for (int bb = 0; bb < nbins; ++bb) {
    if (!b.touched[bb]) continue;
    u.touched[bb] = 1;
    for (int k = 0; k < nlm; ++k)
      u.alm[static_cast<std::size_t>(bb) * nlm + k] +=
          b.alm[static_cast<std::size_t>(bb) * nlm + k];
  }
  c::ZetaAccumulator fused(lmax, nbins);
  fused.add_primary(wp, u.alm.data(), u.touched.data());

  c::ZetaAccumulator split(lmax, nbins);
  split.add_primary(wp, a.alm.data(), a.touched.data());
  split.add_primary_cross(wp, a.alm.data(), a.touched.data(), b.alm.data(),
                          b.touched.data());

  EXPECT_EQ(split.primaries(), 1u);  // the cross term is not a primary
  EXPECT_DOUBLE_EQ(split.sum_weight(), wp);
  const auto sf = fused.snapshot(), ss = split.snapshot();
  for (std::size_t i = 0; i < sf.size(); ++i)
    EXPECT_NEAR(std::abs(sf[i] - ss[i]), 0.0, 1e-12) << i;
}

// Degenerate cross patterns: B empty everywhere adds exactly nothing; A
// empty everywhere reduces the completion to the pure B·B* product.
TEST(ZetaAccumulator, AddPrimaryCrossDegenerateSides) {
  const int lmax = 2, nbins = 3;
  const int nlm = m::nlm(lmax);
  const Synthetic a = make_synthetic(lmax, nbins, 21);
  std::vector<cd> zero_alm(static_cast<std::size_t>(nbins) * nlm, cd{0, 0});
  std::vector<std::uint8_t> zero_touched(nbins, 0);

  c::ZetaAccumulator only_a(lmax, nbins), with_empty_b(lmax, nbins);
  only_a.add_primary(1.0, a.alm.data(), a.touched.data());
  with_empty_b.add_primary(1.0, a.alm.data(), a.touched.data());
  with_empty_b.add_primary_cross(1.0, a.alm.data(), a.touched.data(),
                                 zero_alm.data(), zero_touched.data());
  const auto s1 = only_a.snapshot(), s2 = with_empty_b.snapshot();
  for (std::size_t i = 0; i < s1.size(); ++i)
    EXPECT_EQ(s1[i], s2[i]);  // bitwise: the empty side must add nothing

  c::ZetaAccumulator pure_b(lmax, nbins), cross_only_b(lmax, nbins);
  pure_b.add_primary(2.0, a.alm.data(), a.touched.data());
  cross_only_b.add_primary_cross(2.0, zero_alm.data(), zero_touched.data(),
                                 a.alm.data(), a.touched.data());
  const auto s3 = pure_b.snapshot(), s4 = cross_only_b.snapshot();
  for (std::size_t i = 0; i < s3.size(); ++i)
    EXPECT_NEAR(std::abs(s3[i] - s4[i]), 0.0, 1e-13);
}

TEST(ZetaAccumulator, SymmetryUnderBinSwap) {
  const int lmax = 4, nbins = 4;
  c::ZetaAccumulator z(lmax, nbins);
  const Synthetic s = make_synthetic(lmax, nbins, 7);
  z.add_primary(1.0, s.alm.data(), s.touched.data());
  for (int b1 = 0; b1 < nbins; ++b1)
    for (int b2 = 0; b2 < nbins; ++b2)
      for (int l = 0; l <= lmax; ++l)
        for (int lp = 0; lp <= lmax; ++lp)
          for (int mm = 0; mm <= std::min(l, lp); ++mm) {
            const cd a = z.raw(b1, b2, l, lp, mm);
            const cd b = z.raw(b2, b1, lp, l, mm);
            EXPECT_NEAR(std::abs(a - std::conj(b)), 0.0, 1e-13);
          }
}

TEST(ZetaAccumulator, MergeEqualsSequential) {
  const int lmax = 2, nbins = 3;
  c::ZetaAccumulator a(lmax, nbins), b(lmax, nbins), both(lmax, nbins);
  const Synthetic s1 = make_synthetic(lmax, nbins, 1);
  const Synthetic s2 = make_synthetic(lmax, nbins, 2);
  a.add_primary(1.0, s1.alm.data(), s1.touched.data());
  b.add_primary(2.0, s2.alm.data(), s2.touched.data());
  both.add_primary(1.0, s1.alm.data(), s1.touched.data());
  both.add_primary(2.0, s2.alm.data(), s2.touched.data());
  a.merge(b);
  EXPECT_EQ(a.primaries(), both.primaries());
  EXPECT_DOUBLE_EQ(a.sum_weight(), both.sum_weight());
  const auto sa = a.snapshot(), sb = both.snapshot();
  for (std::size_t i = 0; i < sa.size(); ++i)
    EXPECT_NEAR(std::abs(sa[i] - sb[i]), 0.0, 1e-13);
}

TEST(ZetaAccumulator, MergeRejectsMismatchedShapes) {
  c::ZetaAccumulator a(2, 3), b(3, 3), cc(2, 4);
  EXPECT_THROW(a.merge(b), std::logic_error);
  EXPECT_THROW(a.merge(cc), std::logic_error);
}

// --- Batched accumulation vs the per-primary update, bitwise --------------

namespace {

// The per-primary zeta update ZetaAccumulator ran before batching, kept as
// the oracle: planes in the public [bin_pair][llm] order, one primary at a
// time, untouched bins skipped. The batched accumulator must reproduce it
// bit for bit.
struct PerPrimaryZeta {
  int lmax, nbins, nlm;
  c::LlmIndex llm;
  int nllm;
  std::vector<double> re, im;

  PerPrimaryZeta(int lmax_, int nbins_)
      : lmax(lmax_),
        nbins(nbins_),
        nlm(m::nlm(lmax_)),
        llm(lmax_),
        nllm(llm.size()),
        re(static_cast<std::size_t>(c::ZetaAccumulator::bin_pair_count(
               nbins_)) * nllm, 0.0),
        im(re.size(), 0.0) {}

  std::size_t base(int b1, int b2) const {
    return static_cast<std::size_t>(b1 * nbins - b1 * (b1 - 1) / 2 +
                                    (b2 - b1)) * nllm;
  }
  cd at(const cd* alm, int b, int l, int mm) const {
    return alm[static_cast<std::size_t>(b) * nlm + m::lm_index(l, mm)];
  }

  void add_primary(double wp, const cd* alm, const std::uint8_t* touched) {
    for (int b1 = 0; b1 < nbins; ++b1) {
      if (!touched[b1]) continue;
      for (int b2 = b1; b2 < nbins; ++b2) {
        if (!touched[b2]) continue;
        std::size_t i = base(b1, b2);
        for (int mm = 0; mm <= lmax; ++mm)
          for (int l = mm; l <= lmax; ++l) {
            const double tr = wp * at(alm, b1, l, mm).real();
            const double ti = wp * at(alm, b1, l, mm).imag();
            for (int lp = mm; lp <= lmax; ++lp, ++i) {
              const double br = at(alm, b2, lp, mm).real();
              const double bi = at(alm, b2, lp, mm).imag();
              re[i] += tr * br + ti * bi;
              im[i] += ti * br - tr * bi;
            }
          }
      }
    }
  }

  void add_primary_cross(double wp, const cd* a, const std::uint8_t* ta,
                         const cd* b, const std::uint8_t* tb) {
    auto val = [&](const cd* alm, const std::uint8_t* t, int bin, int l,
                   int mm) { return t[bin] ? at(alm, bin, l, mm) : cd{}; };
    for (int b1 = 0; b1 < nbins; ++b1) {
      if (!ta[b1] && !tb[b1]) continue;
      for (int b2 = b1; b2 < nbins; ++b2) {
        if (!ta[b2] && !tb[b2]) continue;
        if (!tb[b1] && !tb[b2]) continue;
        std::size_t i = base(b1, b2);
        for (int mm = 0; mm <= lmax; ++mm)
          for (int l = mm; l <= lmax; ++l) {
            const double ar = wp * val(a, ta, b1, l, mm).real();
            const double ai = wp * val(a, ta, b1, l, mm).imag();
            const double br = wp * val(b, tb, b1, l, mm).real();
            const double bi = wp * val(b, tb, b1, l, mm).imag();
            for (int lp = mm; lp <= lmax; ++lp, ++i) {
              const cd xa = val(a, ta, b2, lp, mm), xb = val(b, tb, b2, lp, mm);
              const double sr = xa.real() + xb.real();
              const double si = xa.imag() + xb.imag();
              re[i] += ar * xb.real() + ai * xb.imag() + br * sr + bi * si;
              im[i] += ai * xb.real() - ar * xb.imag() + bi * sr - br * si;
            }
          }
      }
    }
  }

  void subtract_self(double wp, int bin, const double* sr, const double* si) {
    const std::size_t b = base(bin, bin);
    for (int i = 0; i < nllm; ++i) {
      re[b + i] -= wp * sr[i];
      im[b + i] -= wp * si[i];
    }
  }

  void merge(const PerPrimaryZeta& o) {
    for (std::size_t i = 0; i < re.size(); ++i) {
      re[i] += o.re[i];
      im[i] += o.im[i];
    }
  }

  cd raw(int b1, int b2, int l, int lp, int mm) const {
    if (b1 <= b2) {
      const std::size_t i = base(b1, b2) + llm.index(l, lp, mm);
      return {re[i], im[i]};
    }
    const std::size_t i = base(b2, b1) + llm.index(lp, l, mm);
    return {re[i], -im[i]};
  }
};

// One random primary: a random touched pattern in which the last bin is
// never touched (when there is more than one), a weight of either sign, and
// a_lm for add_primary — arbitrary values (the update never assumes Y_lm
// structure, so Im a_l0 is nonzero too). With `from_sums` it instead carries
// arbitrary power sums, bin-interleaved as the engine holds them, for
// add_primary_sums, and its a_lm come from the per-bin oracle
// SphHarmTable::alm_from_power_sums.
struct RandomPrimary {
  double wp;
  bool from_sums;
  std::vector<double> sums;  // [n_mono][stride], from_sums only
  std::size_t stride = 0;
  std::vector<int> bins;     // touched, in a shuffled order
  std::vector<cd> alm;
  std::vector<std::uint8_t> touched;
};

RandomPrimary random_primary(const m::SphHarmTable& table, int nbins,
                             m::Rng& rng, bool from_sums = false) {
  const int lmax = table.lmax();
  const int nlm = m::nlm(lmax);
  const int n_mono = m::monomial_count(lmax);
  RandomPrimary p;
  p.wp = rng.uniform(-0.5, 2.0);
  p.from_sums = from_sums;
  if (from_sums) {
    p.stride = static_cast<std::size_t>(nbins + 7) / 8 * 8;
    p.sums.resize(p.stride * n_mono);
    for (double& x : p.sums) x = rng.uniform(-2, 2);  // stale lanes included
  }
  p.alm.assign(static_cast<std::size_t>(nbins) * nlm, cd{});
  p.touched.assign(nbins, 0);
  std::vector<double> bin_sums(n_mono);
  for (int b = 0; b < nbins; ++b) {
    if (nbins > 1 && b == nbins - 1) continue;
    if (rng.uniform() < 0.25) continue;
    p.touched[b] = 1;
    cd* alm = p.alm.data() + static_cast<std::size_t>(b) * nlm;
    if (!from_sums) {
      for (int k = 0; k < nlm; ++k)
        alm[k] = cd{rng.uniform(-2, 2), rng.uniform(-2, 2)};
      continue;
    }
    p.bins.insert(p.bins.begin() + rng.uniform_u64(p.bins.size() + 1), b);
    for (int t = 0; t < n_mono; ++t) bin_sums[t] = p.sums[t * p.stride + b];
    table.alm_from_power_sums(bin_sums.data(), alm);
  }
  return p;
}

// Adds the primary through add_primary_sums (from_sums primaries, as the
// engine does) or add_primary; the oracle takes the one-shot update.
void add_both(c::ZetaAccumulator& z, PerPrimaryZeta& ref,
              const m::SphHarmTable& table, const RandomPrimary& p) {
  if (p.from_sums)
    z.add_primary_sums(p.wp, table, p.sums.data(), p.stride, p.bins.data(),
                       static_cast<int>(p.bins.size()));
  else
    z.add_primary(p.wp, p.alm.data(), p.touched.data());
  ref.add_primary(p.wp, p.alm.data(), p.touched.data());
}

void expect_bitwise(const c::ZetaAccumulator& z, const PerPrimaryZeta& ref,
                    const std::string& what) {
  const std::vector<cd> s = z.snapshot();
  ASSERT_EQ(s.size(), ref.re.size()) << what;
  for (std::size_t i = 0; i < s.size(); ++i) {
    ASSERT_EQ(s[i].real(), ref.re[i]) << what << " entry " << i;
    ASSERT_EQ(s[i].imag(), ref.im[i]) << what << " entry " << i;
  }
}

const int kLmaxGrid[] = {0, 2, 5, 10};
const int kNbinsGrid[] = {1, 3, 10};

}  // namespace

// Primary counts around the batch size: a partial batch, exactly one, one
// past it, and two batches plus one.
TEST(ZetaBatch, MatchesPerPrimaryOracleBitwise) {
  for (int lmax : kLmaxGrid)
    for (int nbins : kNbinsGrid)
      for (int np : {1, 7, 8, 9, 17}) {
        m::Rng rng(1000 + 97 * lmax + 13 * nbins + np);
        const m::SphHarmTable table(lmax);
        c::ZetaAccumulator z(lmax, nbins);
        PerPrimaryZeta ref(lmax, nbins);
        double sum_wp = 0.0;
        for (int p = 0; p < np; ++p) {
          const RandomPrimary pr =
              random_primary(table, nbins, rng, p % 2 == 1);
          add_both(z, ref, table, pr);
          sum_wp += pr.wp;
        }
        EXPECT_EQ(z.primaries(), static_cast<std::uint64_t>(np));
        EXPECT_EQ(z.sum_weight(), sum_wp);
        expect_bitwise(z, ref,
                       "lmax=" + std::to_string(lmax) + " nbins=" +
                           std::to_string(nbins) + " np=" +
                           std::to_string(np));
      }
}

// A bin no primary touches stays exactly zero.
TEST(ZetaBatch, UntouchedBinsStayZero) {
  const int lmax = 5, nbins = 3;
  m::Rng rng(5);
  const m::SphHarmTable table(lmax);
  c::ZetaAccumulator z(lmax, nbins);
  for (int p = 0; p < 11; ++p) {
    RandomPrimary pr = random_primary(table, nbins, rng);
    z.add_primary(pr.wp, pr.alm.data(), pr.touched.data());
  }
  for (int b = 0; b < nbins; ++b)
    for (int l = 0; l <= lmax; ++l)
      for (int lp = 0; lp <= lmax; ++lp)
        for (int mm = 0; mm <= std::min(l, lp); ++mm) {
          const cd v = z.raw(b, nbins - 1, l, lp, mm);
          EXPECT_EQ(v.real(), 0.0);
          EXPECT_EQ(v.imag(), 0.0);
          EXPECT_FALSE(std::signbit(v.real()));
        }
}

// subtract_self, add_primary_cross, raw and merge each land mid-batch (and
// merge's argument holds a partial batch of its own): every one must see
// the staged primaries applied first, in order.
TEST(ZetaBatch, MembersInterleavedMidBatchMatchOracleBitwise) {
  for (int lmax : kLmaxGrid)
    for (int nbins : kNbinsGrid) {
      const std::string what =
          "lmax=" + std::to_string(lmax) + " nbins=" + std::to_string(nbins);
      const int nllm = c::LlmIndex(lmax).size();
      m::Rng rng(77 + lmax * 31 + nbins);
      const m::SphHarmTable table(lmax);
      c::ZetaAccumulator z(lmax, nbins), other(lmax, nbins);
      PerPrimaryZeta ref(lmax, nbins), ref_other(lmax, nbins);
      auto add = [&](int n) {
        for (int p = 0; p < n; ++p)
          add_both(z, ref, table,
                   random_primary(table, nbins, rng, p % 3 == 0));
      };

      add(3);
      std::vector<double> sr(nllm), si(nllm);
      for (int i = 0; i < nllm; ++i) {
        sr[i] = rng.uniform(-1, 1);
        si[i] = rng.uniform(-1, 1);
      }
      z.subtract_self(0.7, 0, sr.data(), si.data());
      ref.subtract_self(0.7, 0, sr.data(), si.data());

      add(6);
      for (int b1 = 0; b1 < nbins; ++b1)
        for (int b2 = 0; b2 < nbins; ++b2)
          for (int l = 0; l <= lmax; ++l)
            for (int lp = 0; lp <= lmax; ++lp)
              for (int mm = 0; mm <= std::min(l, lp); ++mm) {
                const cd got = z.raw(b1, b2, l, lp, mm);
                const cd want = ref.raw(b1, b2, l, lp, mm);
                ASSERT_EQ(got.real(), want.real()) << what;
                ASSERT_EQ(got.imag(), want.imag()) << what;
              }

      add(2);
      const RandomPrimary a = random_primary(table, nbins, rng);
      const RandomPrimary b = random_primary(table, nbins, rng);
      z.add_primary_cross(1.3, a.alm.data(), a.touched.data(), b.alm.data(),
                          b.touched.data());
      ref.add_primary_cross(1.3, a.alm.data(), a.touched.data(),
                            b.alm.data(), b.touched.data());

      add(5);
      for (int p = 0; p < 3; ++p)
        add_both(other, ref_other, table, random_primary(table, nbins, rng));
      z.merge(other);
      ref.merge(ref_other);
      add(4);
      expect_bitwise(z, ref, what);
      EXPECT_EQ(z.primaries(), 23u);
    }
}

TEST(ZetaResult, IsotropicProjectionMatchesAdditionTheorem) {
  // Single primary with two secondaries in different bins: the isotropic
  // multipole must equal 4pi/(2l+1) * (2l+1)/(4pi) * P_l(u1.u2) = P_l(mu).
  const int lmax = 6, nbins = 2;
  m::SphHarmTable table(lmax);
  const int nlm = m::nlm(lmax);
  m::Rng rng(12);
  double x1, y1, z1, x2, y2, z2;
  rng.unit_vector(x1, y1, z1);
  rng.unit_vector(x2, y2, z2);
  std::vector<cd> alm(static_cast<std::size_t>(nbins) * nlm, cd{0, 0});
  std::vector<std::uint8_t> touched(nbins, 1);
  for (int l = 0; l <= lmax; ++l)
    for (int mm = 0; mm <= l; ++mm) {
      alm[m::lm_index(l, mm)] = std::conj(table.eval(l, mm, x1, y1, z1));
      alm[nlm + m::lm_index(l, mm)] = std::conj(table.eval(l, mm, x2, y2, z2));
    }
  c::ZetaAccumulator z(lmax, nbins);
  z.add_primary(1.0, alm.data(), touched.data());

  c::ZetaResult res;
  res.bins = c::RadialBins(1, 3, nbins);
  res.lmax = lmax;
  res.zeta_data = z.snapshot();
  res.sum_primary_weight = 1.0;
  res.n_primaries = 1;
  res.pair_counts.assign(nbins, 0.0);
  res.xi_raw.assign((lmax + 1) * nbins, 0.0);

  const double mu = x1 * x2 + y1 * y2 + z1 * z2;
  for (int l = 0; l <= lmax; ++l)
    EXPECT_NEAR(res.isotropic(l, 0, 1), m::legendre_p(l, mu), 1e-10) << l;
}

TEST(ZetaResult, AccumulateAddsEverything) {
  c::ZetaResult a, b;
  a.bins = b.bins = c::RadialBins(1, 10, 2);
  a.lmax = b.lmax = 1;
  a.n_primaries = 3;
  b.n_primaries = 4;
  a.sum_primary_weight = 1.5;
  b.sum_primary_weight = 2.5;
  a.n_pairs = 10;
  b.n_pairs = 20;
  c::LlmIndex llm(1);
  a.zeta_data.assign(3 * llm.size(), cd{1, 1});
  b.zeta_data.assign(3 * llm.size(), cd{2, -1});
  a.pair_counts = {1, 2};
  b.pair_counts = {10, 20};
  a.xi_raw.assign(4, 1.0);
  b.xi_raw.assign(4, 3.0);
  a.accumulate(b);
  EXPECT_EQ(a.n_primaries, 7u);
  EXPECT_DOUBLE_EQ(a.sum_primary_weight, 4.0);
  EXPECT_EQ(a.n_pairs, 30u);
  EXPECT_EQ(a.zeta_data[0], (cd{3, 0}));
  EXPECT_DOUBLE_EQ(a.pair_counts[1], 22.0);
  EXPECT_DOUBLE_EQ(a.xi_raw[2], 4.0);
}

TEST(ZetaResult, AccumulateRejectsMismatch) {
  c::ZetaResult a, b;
  a.bins = c::RadialBins(1, 10, 2);
  b.bins = c::RadialBins(1, 10, 3);
  a.lmax = b.lmax = 1;
  EXPECT_THROW(a.accumulate(b), std::logic_error);
}
