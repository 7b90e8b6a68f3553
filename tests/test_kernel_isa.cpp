// Runtime kernel-ISA dispatch: the GALACTOS_KERNEL_ISA env contract, the
// set_kernel_isa override, and the cross-ISA equivalence matrix — every
// compiled+supported level must produce BITWISE identical power sums (the
// per-lane operation sequence is the same at every level), staged pairs,
// fused epilogues, bins-as-lanes a_lm, zeta updates and engine results,
// over ragged bucket tails, vector tails and zero-weight pads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/kernel.hpp"
#include "math/rng.hpp"
#include "math/sph_table.hpp"
#include "sim/generators.hpp"
#include "test_helpers.hpp"

namespace c = galactos::core;
namespace m = galactos::math;
namespace s = galactos::sim;
using galactos::testing::bits;
using galactos::testing::expect_results_match;

namespace {

// Restores a clean dispatch state (no env override, auto level) no matter
// how the test body exits.
struct IsaGuard {
  IsaGuard() { unsetenv("GALACTOS_KERNEL_ISA"); }
  ~IsaGuard() {
    unsetenv("GALACTOS_KERNEL_ISA");
    c::set_kernel_isa(c::KernelIsa::kAuto);
  }
};

std::vector<c::KernelIsa> supported_levels() {
  std::vector<c::KernelIsa> out;
  for (c::KernelIsa isa :
       {c::KernelIsa::kScalar, c::KernelIsa::kAvx2, c::KernelIsa::kAvx512})
    if (c::kernel_isa_supported(isa)) out.push_back(isa);
  return out;
}

struct PairSet {
  std::vector<double> ux, uy, uz, w;
};

// `nzero` of the `n` points get exactly zero weight (like pad entries).
PairSet random_pairs(int n, int nzero, std::uint64_t seed) {
  m::Rng rng(seed);
  PairSet p;
  for (int i = 0; i < n; ++i) {
    double x, y, z;
    rng.unit_vector(x, y, z);
    p.ux.push_back(x);
    p.uy.push_back(y);
    p.uz.push_back(z);
    p.w.push_back(i % std::max(1, n / std::max(1, nzero)) == 0 && nzero > 0
                      ? 0.0
                      : rng.uniform(0.5, 2.0));
  }
  return p;
}

// One primary's power sums for every bin, computed at the given ISA level.
// Points round-robin over bins so buckets end with ragged tails.
// `full_flushes`, when given, receives the accumulator's full-bucket count.
std::vector<double> sums_at(c::KernelIsa isa, const c::KernelConfig& cfg,
                            const PairSet& p,
                            std::uint64_t* full_flushes = nullptr) {
  c::set_kernel_isa(isa);
  c::MultipoleAccumulator acc(cfg);
  acc.start_primary();
  const int n = static_cast<int>(p.w.size());
  for (int i = 0; i < n; ++i)
    acc.push(i % cfg.nbins, p.ux[i], p.uy[i], p.uz[i], p.w[i]);
  acc.finish_primary();
  std::vector<double> out;
  for (int b = 0; b < cfg.nbins; ++b)
    for (int t = 0; t < acc.n_slots(); ++t) out.push_back(acc.power_sums(b)[t]);
  if (full_flushes) *full_flushes = acc.counters().full_flushes;
  return out;
}

// One primary's staged pairs, copied out of StagedPairs (or built by the
// per-candidate loop below).
struct StageOut {
  std::vector<int> bin;
  std::vector<double> ux, uy, uz, w;
};

template <typename Real>
StageOut stage_at(c::KernelIsa isa,
                  const galactos::tree::NeighborBlock<Real>& b,
                  const Real (&p)[3], Real r2max, std::int64_t self,
                  const c::RadialBins& bins, const c::Rotation* rot) {
  c::set_kernel_isa(isa);
  c::StagedPairs s;
  c::stage_pairs(b, p[0], p[1], p[2], r2max, self, bins, rot, s);
  StageOut o;
  o.bin.assign(s.bin.data(), s.bin.data() + s.count);
  o.ux.assign(s.ux.data(), s.ux.data() + s.count);
  o.uy.assign(s.uy.data(), s.uy.data() + s.count);
  o.uz.assign(s.uz.data(), s.uz.data() + s.count);
  o.w.assign(s.w.data(), s.w.data() + s.count);
  return o;
}

// What stage_pairs means, one candidate at a time: separations and r2 in
// Real, the r2max / self / coincident filter, bin_of(sqrt(double(r2))),
// Rotation::apply, then d * (1/r).
template <typename Real>
StageOut stage_loop(const galactos::tree::NeighborBlock<Real>& b,
                    const Real (&p)[3], Real r2max, std::int64_t self,
                    const c::RadialBins& bins, const c::Rotation* rot) {
  StageOut o;
  for (std::size_t j = 0; j < b.size(); ++j) {
    const Real dx = b.x[j] - p[0], dy = b.y[j] - p[1], dz = b.z[j] - p[2];
    const Real r2 = dx * dx + dy * dy + dz * dz;
    if (!(r2 <= r2max) || b.idx[j] == self ||
        !(static_cast<double>(r2) > 0.0))
      continue;
    const double r = std::sqrt(static_cast<double>(r2));
    const int bin = bins.bin_of(r);
    if (bin < 0) continue;
    double x = dx, y = dy, z = dz;
    if (rot) rot->apply(x, y, z);
    const double inv = 1.0 / r;
    o.bin.push_back(bin);
    o.ux.push_back(x * inv);
    o.uy.push_back(y * inv);
    o.uz.push_back(z * inv);
    o.w.push_back(b.w[j]);
  }
  return o;
}

void expect_same_stage(const StageOut& got, const StageOut& ref,
                       const std::string& what) {
  ASSERT_EQ(got.bin.size(), ref.bin.size()) << what;
  for (std::size_t i = 0; i < ref.bin.size(); ++i) {
    ASSERT_EQ(got.bin[i], ref.bin[i]) << what << " pair " << i;
    ASSERT_EQ(bits(got.ux[i]), bits(ref.ux[i])) << what << " pair " << i;
    ASSERT_EQ(bits(got.uy[i]), bits(ref.uy[i])) << what << " pair " << i;
    ASSERT_EQ(bits(got.uz[i]), bits(ref.uz[i])) << what << " pair " << i;
    ASSERT_EQ(bits(got.w[i]), bits(ref.w[i])) << what << " pair " << i;
  }
}

// Candidates for a primary at p: the planted edge cases — r2 exactly at
// r2max (which bin_of then rejects: r == rmax), a coincident point, the
// primary's own index `self` on an in-range point, r on each bin edge, r
// below rmin and a NaN coordinate — among uniform points of the cube of
// half-side 1.2 R_max, shuffled by `seed` and cut to n.
template <typename Real>
galactos::tree::NeighborBlock<Real> stage_candidates(
    const Real (&p)[3], double rmax, std::int64_t self,
    const c::RadialBins& bins, std::size_t n, std::uint64_t seed) {
  struct Cand {
    Real x, y, z;
    bool is_self = false;
  };
  std::vector<Cand> cs;
  cs.push_back({p[0] + static_cast<Real>(rmax), p[1], p[2]});
  cs.push_back({p[0], p[1], p[2]});
  cs.push_back({p[0] + Real(1.5), p[1] + Real(2), p[2] - Real(3), true});
  for (int i = 0; i <= bins.count(); ++i)
    cs.push_back({p[0], p[1] + static_cast<Real>(bins.edge(i)), p[2]});
  cs.push_back({p[0], p[1], p[2] - static_cast<Real>(0.5 * bins.rmin())});
  cs.push_back({std::numeric_limits<Real>::quiet_NaN(), p[1], p[2]});
  m::Rng rng(seed);
  while (cs.size() < std::max<std::size_t>(n, 40)) {
    auto u = [&](Real c0) {
      return c0 + static_cast<Real>(rng.uniform(-1.2 * rmax, 1.2 * rmax));
    };
    cs.push_back({u(p[0]), u(p[1]), u(p[2])});
  }
  for (std::size_t i = cs.size() - 1; i > 0; --i)
    std::swap(cs[i], cs[rng.uniform_u64(i + 1)]);
  galactos::tree::NeighborBlock<Real> b;
  for (std::size_t i = 0; i < n; ++i)
    b.push(cs[i].x, cs[i].y, cs[i].z, rng.uniform(0.5, 2.0),
           cs[i].is_self ? self : static_cast<std::int64_t>(i));
  return b;
}

template <typename Real>
void check_stage_levels(const std::string& real_name) {
  const double rmax = 24.0;
  const Real p[3] = {Real(8), Real(-4), Real(2.5)};
  const Real r2max = static_cast<Real>(rmax) * static_cast<Real>(rmax);
  const std::int64_t self = 1000;  // above every other candidate's index
  const c::Rotation rot = c::rotation_to_z({0.3, -1.2, 2.5});
  for (const c::RadialBins& bins :
       {c::RadialBins(rmax / 10, rmax, 10),
        c::RadialBins(1.0, rmax, 7, c::BinSpacing::kLog)})
    for (const c::Rotation* r : {static_cast<const c::Rotation*>(nullptr),
                                 &rot})
      for (std::size_t n = 0; n <= 33; ++n) {
        const galactos::tree::NeighborBlock<Real> b =
            stage_candidates(p, rmax, self, bins, n, 900 + n);
        const std::string what = real_name + " " + bins.describe() +
                                 (r ? " rotated" : "") +
                                 " n=" + std::to_string(n);
        const StageOut ref =
            stage_at(c::KernelIsa::kScalar, b, p, r2max, self, bins, r);
        expect_same_stage(ref, stage_loop(b, p, r2max, self, bins, r),
                          what + " scalar vs per-candidate loop");
        for (c::KernelIsa isa : supported_levels())
          expect_same_stage(stage_at(isa, b, p, r2max, self, bins, r), ref,
                            what + " isa=" + c::kernel_isa_name(isa));
      }
}

}  // namespace

// --- Env / parse contract ---------------------------------------------------

TEST(KernelIsaEnv, ParseAcceptsTheFourSpellings) {
  EXPECT_EQ(c::parse_kernel_isa("scalar"), c::KernelIsa::kScalar);
  EXPECT_EQ(c::parse_kernel_isa("avx2"), c::KernelIsa::kAvx2);
  EXPECT_EQ(c::parse_kernel_isa("avx512"), c::KernelIsa::kAvx512);
  EXPECT_EQ(c::parse_kernel_isa("auto"), c::KernelIsa::kAuto);
}

TEST(KernelIsaEnv, ParseRejectsAnythingElseWithClearMessage) {
  for (const char* bad : {"sse2", "AVX2", "scalar ", "", "avx-512"}) {
    try {
      c::parse_kernel_isa(bad);
      FAIL() << "expected std::logic_error for '" << bad << "'";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("valid values"), std::string::npos)
          << e.what();
    }
  }
}

TEST(KernelIsaEnv, UnsetOrEmptyMeansAuto) {
  IsaGuard guard;
  unsetenv("GALACTOS_KERNEL_ISA");
  EXPECT_EQ(c::kernel_isa_from_env(), c::KernelIsa::kAuto);
  setenv("GALACTOS_KERNEL_ISA", "", 1);
  EXPECT_EQ(c::kernel_isa_from_env(), c::KernelIsa::kAuto);
}

TEST(KernelIsaEnv, SetValueIsParsed) {
  IsaGuard guard;
  setenv("GALACTOS_KERNEL_ISA", "scalar", 1);
  EXPECT_EQ(c::kernel_isa_from_env(), c::KernelIsa::kScalar);
  setenv("GALACTOS_KERNEL_ISA", "bogus", 1);
  EXPECT_THROW(c::kernel_isa_from_env(), std::logic_error);
}

// --- Dispatch state ---------------------------------------------------------

TEST(KernelIsaDispatch, DetectNeverReturnsAutoAndIsSupported) {
  const c::KernelIsa best = c::kernel_isa_detect();
  EXPECT_NE(best, c::KernelIsa::kAuto);
  EXPECT_TRUE(c::kernel_isa_supported(best));
}

TEST(KernelIsaDispatch, ScalarAlwaysCompiledAndSupported) {
  EXPECT_TRUE(c::kernel_isa_compiled(c::KernelIsa::kScalar));
  EXPECT_TRUE(c::kernel_isa_supported(c::KernelIsa::kScalar));
}

TEST(KernelIsaDispatch, SetOverridesAndAutoRedetects) {
  IsaGuard guard;
  for (c::KernelIsa isa : supported_levels()) {
    c::set_kernel_isa(isa);
    EXPECT_EQ(c::kernel_isa(), isa);
  }
  c::set_kernel_isa(c::KernelIsa::kAuto);
  EXPECT_EQ(c::kernel_isa(), c::kernel_isa_detect());
}

TEST(KernelIsaDispatch, SetRejectsUnsupportedLevel) {
  IsaGuard guard;
  for (c::KernelIsa isa : {c::KernelIsa::kAvx2, c::KernelIsa::kAvx512}) {
    if (c::kernel_isa_supported(isa)) continue;
    EXPECT_THROW(c::set_kernel_isa(isa), std::logic_error);
  }
  // Always at least one unsupported-by-construction probe: name round-trip.
  EXPECT_STREQ(c::kernel_isa_name(c::KernelIsa::kAvx512), "avx512");
}

// --- Cross-ISA equivalence matrix ------------------------------------------

// lmax 0..16 x full buckets and ragged tails x zero weights: every
// supported level must reproduce the scalar kernel's power sums BITWISE
// (same per-lane IEEE operation sequence at every level).
TEST(KernelIsaEquivalence, PowerSumsBitwiseAcrossLevelsLmaxSweep) {
  IsaGuard guard;
  const std::vector<c::KernelIsa> levels = supported_levels();
  ASSERT_GE(levels.size(), 1u);
  for (int lmax = 0; lmax <= 16; ++lmax) {
    c::KernelConfig cfg;
    cfg.lmax = lmax;
    cfg.nbins = 3;
    // 421 points: 140-141 per bin, one full bucket and a ragged tail
    // (across bins AND lanes); 25 zero-weight entries.
    const PairSet p = random_pairs(421, 25, 7000 + lmax);
    std::uint64_t full_flushes = 0;
    const std::vector<double> ref =
        sums_at(c::KernelIsa::kScalar, cfg, p, &full_flushes);
    EXPECT_EQ(full_flushes, 3u);
    for (c::KernelIsa isa : levels) {
      const std::vector<double> got = sums_at(isa, cfg, p);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(bits(got[i]), bits(ref[i]))
            << "lmax=" << lmax << " isa=" << c::kernel_isa_name(isa)
            << " term=" << i;
    }
  }
}

// Raw bucket kernels over lmax 0..16, all ilp variants, ragged block
// counts (ILP blocks plus single-chunk tails), accumulate / overwrite and
// plain / fused reduction, directly on lane accumulators: the lane block
// and the strided sums must be bitwise the scalar level's.
TEST(KernelIsaEquivalence, RawKernelsBitwiseAcrossLevels) {
  IsaGuard guard;
  for (int lmax = 0; lmax <= 16; ++lmax) {
    const int nslots = m::basis_size(lmax);
    for (int count : {8, 24, 64, 136}) {
      const PairSet p = random_pairs(count, count / 8, 991 + lmax + count);
      for (int ilp : {1, 2, 4})
        for (bool overwrite : {false, true})
          for (bool fused : {false, true}) {
            const std::size_t stride = 3;
            auto run = [&](c::KernelIsa isa, std::vector<double>& acc,
                           std::vector<double>& sums) {
              c::set_kernel_isa(isa);
              acc.assign(static_cast<std::size_t>(nslots) * c::kLanes, 0.25);
              sums.assign(nslots * stride, -1.0);
              c::kernel_running_product(p.ux.data(), p.uy.data(), p.uz.data(),
                                        p.w.data(), count, lmax, acc.data(),
                                        ilp, overwrite,
                                        fused ? sums.data() + 1 : nullptr,
                                        stride);
            };
            std::vector<double> ref_acc, ref_sums, acc, sums;
            run(c::KernelIsa::kScalar, ref_acc, ref_sums);
            for (c::KernelIsa isa : supported_levels()) {
              run(isa, acc, sums);
              const std::string what =
                  "lmax=" + std::to_string(lmax) +
                  " count=" + std::to_string(count) +
                  " ilp=" + std::to_string(ilp) +
                  " overwrite=" + std::to_string(overwrite) +
                  " fused=" + std::to_string(fused) +
                  " isa=" + c::kernel_isa_name(isa);
              for (std::size_t i = 0; i < acc.size(); ++i)
                ASSERT_EQ(bits(acc[i]), bits(ref_acc[i])) << what << " i=" << i;
              for (std::size_t i = 0; i < sums.size(); ++i)
                ASSERT_EQ(bits(sums[i]), bits(ref_sums[i]))
                    << what << " sum " << i;
            }
          }
    }
  }
}

// Fused epilogue at every level vs the standalone lane reduction at the
// scalar level: the in-register tree (AVX-512 permutes, AVX2 per-half
// sums, the scalar expression) must land on the same bits.
TEST(KernelIsaEquivalence, FusedEpilogueBitwiseAcrossLevels) {
  IsaGuard guard;
  for (int lmax : {0, 2, 5, 10})
    for (int count : {1, 7, 8, 9, 31, 32, 33, 127, 128, 129, 256}) {
      c::KernelConfig cfg;
      cfg.lmax = lmax;
      cfg.nbins = 2;
      const PairSet p = random_pairs(count, count / 4, 80 * count + lmax);
      c::set_kernel_isa(c::KernelIsa::kScalar);
      const std::vector<double> ref = galactos::testing::unfused_power_sums(
          lmax, c::kKernelIlp, p.ux.data(), p.uy.data(), p.uz.data(),
          p.w.data(), count);
      for (c::KernelIsa isa : supported_levels()) {
        c::set_kernel_isa(isa);
        c::MultipoleAccumulator acc(cfg);
        acc.start_primary();
        for (int i = 0; i < count; ++i)
          acc.push(1, p.ux[i], p.uy[i], p.uz[i], p.w[i]);
        acc.finish_primary();
        for (int t = 0; t < acc.n_slots(); ++t)
          ASSERT_EQ(bits(acc.power_sums(1)[t]), bits(ref[t]))
              << "isa=" << c::kernel_isa_name(isa) << " lmax=" << lmax
              << " count=" << count << " t=" << t;
      }
    }
}

// Bins-as-lanes a_lm at every level vs per-bin alm_from_power_sums, over
// bin counts around the 4- and 8-lane vectors with untouched bins.
TEST(KernelIsaEquivalence, AlmBinsAsLanesBitwiseAcrossLevels) {
  IsaGuard guard;
  m::Rng rng(515);
  for (int lmax : {0, 2, 5, 10}) {
    const m::SphHarmTable table(lmax);
    const int nlm = m::nlm(lmax);
    for (int nbins : {1, 3, 8, 9, 10, 16, 17}) {
      const std::size_t stride =
          static_cast<std::size_t>(nbins + c::kLanes - 1) / c::kLanes *
          c::kLanes;
      std::vector<double> sums(stride * m::basis_size(lmax));
      for (double& x : sums) x = rng.uniform(-3, 3);
      std::vector<int> bins;
      for (int b = 0; b < nbins; ++b)
        if (nbins == 1 || rng.uniform() < 0.6) bins.push_back(b);
      // Output planes [bin][lm].
      std::vector<std::size_t> off(nlm), step(nlm, nlm);
      for (int lm = 0; lm < nlm; ++lm) off[lm] = lm;
      for (c::KernelIsa isa : supported_levels()) {
        c::set_kernel_isa(isa);
        std::vector<double> re(static_cast<std::size_t>(nbins) * nlm, 0.0),
            im(re.size(), 0.0);
        c::alm_bins_as_lanes(table, sums.data(), stride, bins.data(),
                             static_cast<int>(bins.size()), re.data(),
                             im.data(), off.data(), step.data());
        for (int b : bins) {
          const std::vector<std::complex<double>> ref =
              galactos::testing::per_bin_alm(table, sums, stride, b);
          for (int lm = 0; lm < nlm; ++lm) {
            ASSERT_EQ(bits(re[b * nlm + lm]), bits(ref[lm].real()))
                << "isa=" << c::kernel_isa_name(isa) << " lmax=" << lmax
                << " nbins=" << nbins << " bin=" << b;
            ASSERT_EQ(bits(im[b * nlm + lm]), bits(ref[lm].imag()))
                << "isa=" << c::kernel_isa_name(isa) << " lmax=" << lmax
                << " nbins=" << nbins << " bin=" << b;
          }
        }
      }
    }
  }
}

// Raw batched zeta update over the flush's shapes: block lengths 1..11
// (m = 10..0 at lmax 10) times 1..10 bins, so the 4-row groups straddle
// block boundaries and the column runs end mid-vector; partial and full
// batches; the full and the real-only (zi == nullptr) update. The scalar
// level must equal a plain std::fma loop over the contract's sequence (the
// diagonal entries keeping their imaginary part), every level the scalar
// level, bitwise; entries around the packed block, and the imaginary
// plane of a real-only update, are never written.
TEST(KernelIsaEquivalence, ZetaBatchUpdateBitwiseAcrossLevels) {
  IsaGuard guard;
  m::Rng rng(4242);
  const std::size_t kGuard = 16;  // entries before and after the block
  for (int np : {1, 3, c::kZetaMaxPrimaries})
    for (int len = 1; len <= 11; ++len)
      for (int nblocks : {1, 2, 3, 5, 10})
        for (bool imag : {true, false}) {
          const int n = len * nblocks;
          const std::size_t vstride = static_cast<std::size_t>(n) + 3;
          std::vector<double> wp(np), vr(np * vstride + c::kZetaOperandPad),
              vi(vr.size());
          for (double& x : wp) x = rng.uniform(-1.0, 2.0);
          for (double& x : vr) x = rng.uniform(-1.0, 1.0);
          for (double& x : vi) x = rng.uniform(-1.0, 1.0);
          const std::size_t size = static_cast<std::size_t>(len) * len *
                                   nblocks * (nblocks + 1) / 2;
          std::vector<double> z0r(size + 2 * kGuard), z0i(z0r.size());
          for (double& x : z0r) x = rng.uniform(-1.0, 1.0);
          for (double& x : z0i) x = rng.uniform(-1.0, 1.0);

          // The contract, entry by entry, on the packed rows.
          std::vector<double> fr = z0r, fi = z0i;
          std::size_t k = kGuard;
          for (int r = 0; r < n; ++r)
            for (int col = r / len * len; col < n; ++col, ++k)
              for (int p = 0; p < np; ++p) {
                const double* pr = vr.data() + p * vstride;
                const double* pi = vi.data() + p * vstride;
                const double tr = wp[p] * pr[r];
                if (!imag) {
                  fr[k] = std::fma(tr, pr[col], fr[k]);
                  continue;
                }
                const double ti = wp[p] * pi[r];
                fr[k] = std::fma(ti, pi[col], std::fma(tr, pr[col], fr[k]));
                if (col != r)
                  fi[k] = std::fma(-tr, pi[col], std::fma(ti, pr[col], fi[k]));
              }
          ASSERT_EQ(k, size + kGuard);

          auto run = [&](c::KernelIsa isa, std::vector<double>& zr,
                         std::vector<double>& zi) {
            c::set_kernel_isa(isa);
            zr = z0r;
            zi = z0i;
            c::zeta_batch_update(wp.data(), np, vr.data(), vi.data(), vstride,
                                 len, nblocks, zr.data() + kGuard,
                                 imag ? zi.data() + kGuard : nullptr);
          };
          const std::string what = "np=" + std::to_string(np) +
                                   " len=" + std::to_string(len) +
                                   " nblocks=" + std::to_string(nblocks) +
                                   " imag=" + std::to_string(imag);
          std::vector<double> rr, ri;
          run(c::KernelIsa::kScalar, rr, ri);
          for (std::size_t e = 0; e < rr.size(); ++e) {
            ASSERT_EQ(bits(rr[e]), bits(fr[e])) << what << " e=" << e;
            ASSERT_EQ(bits(ri[e]), bits(fi[e])) << what << " e=" << e;
          }
          for (c::KernelIsa isa : supported_levels()) {
            std::vector<double> gr, gi;
            run(isa, gr, gi);
            for (std::size_t e = 0; e < rr.size(); ++e) {
              ASSERT_EQ(bits(gr[e]), bits(rr[e]))
                  << "isa=" << c::kernel_isa_name(isa) << " " << what
                  << " e=" << e;
              ASSERT_EQ(bits(gi[e]), bits(ri[e]))
                  << "isa=" << c::kernel_isa_name(isa) << " " << what
                  << " e=" << e;
            }
          }
        }
}

// The pair stage over every block length 0..33 (every vector tail at both
// widths), float and double blocks, with and without a LOS rotation,
// linear and log bins: each level bitwise equal to the scalar level, and
// the scalar level to the plain per-candidate loop.
TEST(KernelIsaEquivalence, PairStageBitwiseAcrossLevels) {
  IsaGuard guard;
  check_stage_levels<float>("float");
  check_stage_levels<double>("double");
}

// Full engine, fused AND staged drivers: identical ZetaResult at every
// supported level.
TEST(KernelIsaEquivalence, EngineResultsIdenticalAcrossLevels) {
  IsaGuard guard;
  const s::Catalog cat = s::uniform_box(700, s::Aabb::cube(40), 77);
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(2.0, 12.0, 4);
  cfg.lmax = 4;
  cfg.threads = 1;
  cfg.subtract_self_pairs = true;

  c::set_kernel_isa(c::KernelIsa::kScalar);
  const c::Engine engine(cfg);
  const c::ZetaResult ref_fused = engine.run(cat);
  c::Engine::Staged ref_staged = engine.build_index(cat);
  const c::ZetaResult ref_piped = ref_staged.run_indexed(nullptr, nullptr);

  for (c::KernelIsa isa : supported_levels()) {
    c::set_kernel_isa(isa);
    const c::ZetaResult fused = engine.run(cat);
    expect_results_match(fused, ref_fused, 0.0, 0.0);  // bitwise
    EXPECT_EQ(fused.n_pairs, ref_fused.n_pairs);
    c::Engine::Staged staged = engine.build_index(cat);
    const c::ZetaResult piped = staged.run_indexed(nullptr, nullptr);
    expect_results_match(piped, ref_piped, 0.0, 0.0);  // bitwise
    EXPECT_EQ(piped.n_pairs, ref_piped.n_pairs);
  }
}
