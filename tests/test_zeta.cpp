// Zeta accumulation: LlmIndex, bin-pair layout, symmetry, merging, the
// batched update against the per-primary oracle (bitwise), the self-pair
// term from Legendre moments against direct Y_lm products, result
// arithmetic and the isotropic projection identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <string>
#include <vector>

#include "core/alm.hpp"
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

// The per-primary zeta update, kept as the oracle: planes in the public
// [bin_pair][llm] order, one primary at a time, untouched bins skipped, each
// entry updated with the fma sequence of zeta_batch_update's contract. The
// batched accumulator must reproduce it bit for bit. With `fused` false it
// runs the mul-then-add sequence z + (t.re*a.re + t.im*a.im) instead, an
// independent reference that agrees to rounding; `scale` accumulates
// sum_p |w_p| |a(b1, l)| |a(b2, l')|, the size that rounding is relative to.
struct PerPrimaryZeta {
  int lmax, nbins, nlm;
  c::LlmIndex llm;
  int nllm;
  bool fused;
  std::vector<double> re, im, scale;

  PerPrimaryZeta(int lmax_, int nbins_, bool fused_ = true)
      : lmax(lmax_),
        nbins(nbins_),
        nlm(m::nlm(lmax_)),
        llm(lmax_),
        nllm(llm.size()),
        fused(fused_),
        re(static_cast<std::size_t>(c::ZetaAccumulator::bin_pair_count(
               nbins_)) * nllm, 0.0),
        im(re.size(), 0.0),
        scale(re.size(), 0.0) {}

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
              if (fused) {
                re[i] = std::fma(ti, bi, std::fma(tr, br, re[i]));
                if (b1 != b2 || l != lp)  // the diagonal's increment is 0
                  im[i] = std::fma(-tr, bi, std::fma(ti, br, im[i]));
              } else {
                re[i] += tr * br + ti * bi;
                im[i] += ti * br - tr * bi;
              }
              scale[i] += std::abs(wp) * std::abs(at(alm, b1, l, mm)) *
                          std::abs(at(alm, b2, lp, mm));
            }
          }
      }
    }
  }

  void subtract_self(int bin, const double* self) {
    const std::size_t b = base(bin, bin);
    for (int i = 0; i < nllm; ++i) re[b + i] -= self[i];
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
  std::vector<double> sums;  // [n_slots][stride], from_sums only
  std::size_t stride = 0;
  std::vector<int> bins;     // touched, in a shuffled order
  std::vector<cd> alm;
  std::vector<std::uint8_t> touched;
};

RandomPrimary random_primary(const m::SphHarmTable& table, int nbins,
                             m::Rng& rng, bool from_sums = false) {
  const int lmax = table.lmax();
  const int nlm = m::nlm(lmax);
  const int n_slots = m::basis_size(lmax);
  RandomPrimary p;
  p.wp = rng.uniform(-0.5, 2.0);
  p.from_sums = from_sums;
  if (from_sums) {
    p.stride = static_cast<std::size_t>(nbins + 7) / 8 * 8;
    p.sums.resize(p.stride * n_slots);
    for (double& x : p.sums) x = rng.uniform(-2, 2);  // stale lanes included
  }
  p.alm.assign(static_cast<std::size_t>(nbins) * nlm, cd{});
  p.touched.assign(nbins, 0);
  std::vector<double> bin_sums(n_slots);
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
    for (int t = 0; t < n_slots; ++t) bin_sums[t] = p.sums[t * p.stride + b];
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

// The m = 0 planes flush through the real-only update while no staged
// m = 0 imaginary entry is nonzero: primaries staged from power sums (as
// the engine stages them; their Im a_l0 is 0 by construction), or through
// add_primary with Im a_l0 set to +0 or -0. `mixed` adds one primary with
// nonzero Im a_l0 per batch, which must switch that batch's flush back to
// the full update. Every other primary weighs negative; bitwise against
// the per-primary oracle, and the m = 0 imaginary plane stays exactly +0
// while no primary feeds it.
TEST(ZetaBatch, RealOnlyM0PlaneMatchesPerPrimaryOracleBitwise) {
  enum Mode { kSums, kZeroImag, kMixed };
  for (int lmax : kLmaxGrid)
    for (int nbins : kNbinsGrid)
      for (Mode mode : {kSums, kZeroImag, kMixed}) {
        const std::string what = "lmax=" + std::to_string(lmax) +
                                 " nbins=" + std::to_string(nbins) +
                                 " mode=" + std::to_string(mode);
        m::Rng rng(4000 + 97 * lmax + 13 * nbins + mode);
        const m::SphHarmTable table(lmax);
        c::ZetaAccumulator z(lmax, nbins);
        PerPrimaryZeta ref(lmax, nbins);
        for (int p = 0; p < 19; ++p) {
          RandomPrimary pr = random_primary(table, nbins, rng, mode == kSums);
          if (p % 2 == 1) pr.wp = -0.25 - rng.uniform();
          const bool feeds_imag =
              mode == kMixed && p % c::ZetaAccumulator::kBatch == 5;
          if (mode != kSums && !feeds_imag)
            for (int b = 0; b < nbins; ++b)
              for (int l = 0; l <= lmax; ++l) {
                cd& a = pr.alm[static_cast<std::size_t>(b) * m::nlm(lmax) +
                               m::lm_index(l, 0)];
                a.imag(rng.uniform() < 0.5 ? 0.0 : -0.0);
              }
          add_both(z, ref, table, pr);
        }
        expect_bitwise(z, ref, what);
        if (mode == kMixed) continue;
        for (int b1 = 0; b1 < nbins; ++b1)
          for (int b2 = b1; b2 < nbins; ++b2)
            for (int l = 0; l <= lmax; ++l)
              for (int lp = 0; lp <= lmax; ++lp) {
                const double im = z.raw(b1, b2, l, lp, 0).imag();
                ASSERT_EQ(im, 0.0) << what;
                ASSERT_FALSE(std::signbit(im)) << what;
              }
      }
}

// The fused update against the mul-then-add reference it replaced: per
// entry within 1e-14 of sum_p |w_p| |a_r| |a_c| (a few ulps of that size
// per primary over 17 primaries, both sequences rounding each product and
// sum at most once), and exactly equal where no primary contributes.
TEST(ZetaBatch, MatchesMulThenAddReferenceToRounding) {
  for (int lmax : kLmaxGrid)
    for (int nbins : kNbinsGrid) {
      const std::string what =
          "lmax=" + std::to_string(lmax) + " nbins=" + std::to_string(nbins);
      m::Rng rng(6000 + 97 * lmax + 13 * nbins);
      const m::SphHarmTable table(lmax);
      c::ZetaAccumulator z(lmax, nbins);
      PerPrimaryZeta ref(lmax, nbins, /*fused=*/false);
      for (int p = 0; p < 17; ++p)
        add_both(z, ref, table, random_primary(table, nbins, rng, p % 2 == 1));
      const std::vector<cd> s = z.snapshot();
      ASSERT_EQ(s.size(), ref.re.size()) << what;
      for (std::size_t i = 0; i < s.size(); ++i) {
        const double tol = 1e-14 * ref.scale[i];
        ASSERT_LE(std::abs(s[i].real() - ref.re[i]), tol) << what << " " << i;
        ASSERT_LE(std::abs(s[i].imag() - ref.im[i]), tol) << what << " " << i;
      }
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

// subtract_self, raw and merge each land mid-batch (and
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
      std::vector<double> self(nllm);
      for (int i = 0; i < nllm; ++i) self[i] = rng.uniform(-1, 1);
      z.subtract_self(0, self.data());
      ref.subtract_self(0, self.data());

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

// The self-pair term of core/alm.hpp, sum_p wp sum_j w_j^2 conj(Y_lm(u_j))
// Y_l'm(u_j) per bin from Legendre moments in u_z, against the direct
// products of SphHarmTable::eval_all: random directions plus both poles,
// random weights, two primaries per accumulator (bins 0 and 2 only when
// there are 3, so bin 1 stays untouched). Applied to a fresh accumulator
// it must read -self on the diagonal; applied to one holding a random
// primary it must leave every imaginary entry and every off-diagonal pair
// bitwise unchanged. A second subtract_from finds the moments cleared.
TEST(SelfPairMoments, MatchDirectYlmProducts) {
  for (int lmax = 0; lmax <= 10; ++lmax)
    for (int nbins : {1, 3}) {
      const std::string what =
          "lmax=" + std::to_string(lmax) + " nbins=" + std::to_string(nbins);
      m::Rng rng(500 + 7 * lmax + nbins);
      const m::SphHarmTable table(lmax);
      const c::SelfPairTable self_table(table);
      const c::LlmIndex& llm = self_table.llm();
      const int nllm = llm.size();
      c::SelfPairAccumulator fresh_acc(self_table, nbins);
      c::SelfPairAccumulator busy_acc(self_table, nbins);

      std::vector<double> direct(static_cast<std::size_t>(nbins) * nllm, 0.0);
      std::vector<cd> ylm(m::nlm(lmax));
      for (int p = 0; p < 2; ++p) {
        const double wp = rng.uniform(-0.5, 2.0);
        const std::size_t n = 41;
        c::StagedPairs s;
        s.reserve(n);
        s.count = n;
        for (std::size_t j = 0; j < n; ++j) {
          double ux = 0.0, uy = 0.0, uz = j == 0 ? 1.0 : -1.0;
          if (j >= 2) {
            uz = rng.uniform(-1, 1);
            const double phi = rng.uniform(0, 2 * M_PI);
            const double st = std::sqrt((1 - uz) * (1 + uz));
            ux = st * std::cos(phi);
            uy = st * std::sin(phi);
          }
          const double w = rng.uniform(0.1, 2.0);
          const int b = nbins == 1 ? 0 : 2 * static_cast<int>(j % 2);
          s.bin[j] = b;
          s.ux[j] = ux;
          s.uy[j] = uy;
          s.uz[j] = uz;
          s.w[j] = w;
          table.eval_all(ux, uy, uz, ylm.data());
          for (int i = 0; i < nllm; ++i) {
            const cd y = std::conj(ylm[llm.alm_index_1()[i]]) *
                         ylm[llm.alm_index_2()[i]];
            direct[static_cast<std::size_t>(b) * nllm + i] +=
                wp * w * w * y.real();
          }
        }
        fresh_acc.add(wp, s);
        busy_acc.add(wp, s);
      }
      double scale = 0.0;
      for (double d : direct) scale = std::max(scale, std::abs(d));

      c::ZetaAccumulator fresh(lmax, nbins);
      fresh_acc.subtract_from(fresh);
      c::ZetaAccumulator busy(lmax, nbins);
      const RandomPrimary rp = random_primary(table, nbins, rng);
      busy.add_primary(rp.wp, rp.alm.data(), rp.touched.data());
      const std::vector<cd> before = busy.snapshot();
      busy_acc.subtract_from(busy);
      const std::vector<cd> after = busy.snapshot();

      for (int b1 = 0; b1 < nbins; ++b1)
        for (int b2 = b1; b2 < nbins; ++b2)
          for (int i = 0; i < nllm; ++i) {
            const std::size_t e =
                static_cast<std::size_t>(fresh.bin_pair(b1, b2)) * nllm + i;
            ASSERT_EQ(after[e].imag(), before[e].imag()) << what;
            if (b1 != b2) {
              ASSERT_EQ(after[e].real(), before[e].real()) << what;
              continue;
            }
            const double want = direct[static_cast<std::size_t>(b1) * nllm + i];
            const auto t = llm.at(i);
            ASSERT_NEAR(-fresh.raw(b1, b1, t.l, t.lp, t.m).real(), want,
                        1e-12 * scale)
                << what << " bin " << b1 << " (l, l', m) = (" << t.l << ", "
                << t.lp << ", " << t.m << ")";
            ASSERT_NEAR(before[e].real() - after[e].real(), want,
                        1e-12 * scale + 1e-15 * std::abs(before[e].real()))
                << what;
          }

      const std::vector<cd> once = busy.snapshot();
      busy_acc.subtract_from(busy);
      const std::vector<cd> twice = busy.snapshot();
      for (std::size_t e = 0; e < once.size(); ++e) {
        ASSERT_EQ(twice[e].real(), once[e].real()) << what;
        ASSERT_EQ(twice[e].imag(), once[e].imag()) << what;
      }
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
