// Runtime kernel-ISA dispatch: the GALACTOS_KERNEL_ISA env contract, the
// set_kernel_isa override, and the cross-ISA equivalence matrix — every
// compiled+supported level must produce BITWISE identical power sums (the
// per-lane operation sequence is the same at every level), fused epilogues,
// bins-as-lanes a_lm, zeta updates and engine results, over ragged bucket
// tails and zero-weight pads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
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
std::vector<double> sums_at(c::KernelIsa isa, const c::KernelConfig& cfg,
                            const PairSet& p) {
  c::set_kernel_isa(isa);
  c::MultipoleAccumulator acc(cfg);
  acc.start_primary();
  const int n = static_cast<int>(p.w.size());
  for (int i = 0; i < n; ++i)
    acc.push(i % cfg.nbins, p.ux[i], p.uy[i], p.uz[i], p.w[i]);
  acc.finish_primary();
  std::vector<double> out;
  for (int b = 0; b < cfg.nbins; ++b)
    for (int t = 0; t < acc.n_mono(); ++t) out.push_back(acc.power_sums(b)[t]);
  return out;
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

// lmax 1..10 x ragged tails x zero weights: every supported level must
// reproduce the scalar kernel's power sums BITWISE (same per-lane IEEE
// operation sequence at every level).
TEST(KernelIsaEquivalence, PowerSumsBitwiseAcrossLevelsLmaxSweep) {
  IsaGuard guard;
  const std::vector<c::KernelIsa> levels = supported_levels();
  ASSERT_GE(levels.size(), 1u);
  for (int lmax = 1; lmax <= 10; ++lmax) {
    c::KernelConfig cfg;
    cfg.lmax = lmax;
    cfg.nbins = 3;
    cfg.bucket_capacity = 32;  // small buckets -> many flushes + ragged tail
    for (c::KernelScheme scheme :
         {c::KernelScheme::kRunningProduct, c::KernelScheme::kZBuffered}) {
      cfg.scheme = scheme;
      // 157 points: ragged across bins AND lanes; 25 zero-weight entries.
      const PairSet p = random_pairs(157, 25, 7000 + lmax);
      const std::vector<double> ref =
          sums_at(c::KernelIsa::kScalar, cfg, p);
      for (c::KernelIsa isa : levels) {
        const std::vector<double> got = sums_at(isa, cfg, p);
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
          ASSERT_EQ(got[i], ref[i])
              << "lmax=" << lmax << " scheme=" << static_cast<int>(scheme)
              << " isa=" << c::kernel_isa_name(isa) << " term=" << i;
      }
    }
  }
}

// Raw bucket kernels, all ilp variants, directly on lane accumulators.
TEST(KernelIsaEquivalence, RawKernelsBitwiseAcrossLevels) {
  IsaGuard guard;
  const int lmax = 8;
  const int count = 64;
  const int nmono = m::monomial_count(lmax);
  const PairSet p = random_pairs(count, 8, 991);
  for (c::KernelIsa isa : supported_levels()) {
    for (int ilp : {1, 2, 4}) {
      c::set_kernel_isa(c::KernelIsa::kScalar);
      std::vector<double> ref(static_cast<std::size_t>(nmono) * c::kLanes,
                              0.0);
      c::kernel_running_product(p.ux.data(), p.uy.data(), p.uz.data(),
                                p.w.data(), count, lmax, ref.data(), ilp);
      c::set_kernel_isa(isa);
      std::vector<double> got(ref.size(), 0.0);
      c::kernel_running_product(p.ux.data(), p.uy.data(), p.uz.data(),
                                p.w.data(), count, lmax, got.data(), ilp);
      for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(got[i], ref[i]) << "running_product ilp=" << ilp << " isa="
                                  << c::kernel_isa_name(isa) << " i=" << i;
    }
    c::set_kernel_isa(c::KernelIsa::kScalar);
    std::vector<double> zs(2 * count);
    std::vector<double> ref(static_cast<std::size_t>(nmono) * c::kLanes, 0.0);
    c::kernel_zbuffered(p.ux.data(), p.uy.data(), p.uz.data(), p.w.data(),
                        count, lmax, ref.data(), zs.data());
    c::set_kernel_isa(isa);
    std::vector<double> got(ref.size(), 0.0);
    c::kernel_zbuffered(p.ux.data(), p.uy.data(), p.uz.data(), p.w.data(),
                        count, lmax, got.data(), zs.data());
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_EQ(got[i], ref[i])
          << "zbuffered isa=" << c::kernel_isa_name(isa) << " i=" << i;
  }
}

// Fused epilogue at every level vs the standalone lane reduction at the
// scalar level: the in-register tree (AVX-512 permutes, AVX2 per-half
// sums, the scalar expression) must land on the same bits.
TEST(KernelIsaEquivalence, FusedEpilogueBitwiseAcrossLevels) {
  IsaGuard guard;
  for (c::KernelScheme scheme :
       {c::KernelScheme::kRunningProduct, c::KernelScheme::kZBuffered})
    for (int lmax : {0, 2, 5, 10})
      for (int count : {1, 7, 8, 9, 31, 32, 33, 127, 128, 129, 256}) {
        c::KernelConfig cfg;
        cfg.lmax = lmax;
        cfg.nbins = 2;
        cfg.scheme = scheme;
        const PairSet p = random_pairs(count, count / 4, 80 * count + lmax);
        c::set_kernel_isa(c::KernelIsa::kScalar);
        const std::vector<double> ref = galactos::testing::unfused_power_sums(
            cfg, p.ux.data(), p.uy.data(), p.uz.data(), p.w.data(), count);
        for (c::KernelIsa isa : supported_levels()) {
          c::set_kernel_isa(isa);
          c::MultipoleAccumulator acc(cfg);
          acc.start_primary();
          for (int i = 0; i < count; ++i)
            acc.push(1, p.ux[i], p.uy[i], p.uz[i], p.w[i]);
          acc.finish_primary();
          for (int t = 0; t < acc.n_mono(); ++t)
            ASSERT_EQ(bits(acc.power_sums(1)[t]), bits(ref[t]))
                << "isa=" << c::kernel_isa_name(isa) << " scheme="
                << static_cast<int>(scheme) << " lmax=" << lmax
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
      std::vector<double> sums(stride * m::monomial_count(lmax));
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

// Raw batched zeta update: every level must reproduce the scalar level's
// block bitwise, over row counts around the 4-row tile, column counts
// around both vector widths (ragged tails, blocks narrower than one
// vector), and partial and full batches.
TEST(KernelIsaEquivalence, ZetaBatchUpdateBitwiseAcrossLevels) {
  IsaGuard guard;
  m::Rng rng(4242);
  for (int np : {1, 3, c::kZetaMaxPrimaries})
    for (int rows : {1, 2, 3, 4, 5, 11})
      for (int cols : {1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 33, 110}) {
        // Operand vectors long enough for both indexings, plus the pad.
        const std::size_t vstride =
            static_cast<std::size_t>(std::max(rows, cols)) + 5;
        std::vector<double> wp(np), vr(np * vstride + c::kZetaOperandPad),
            vi(vr.size());
        for (double& x : wp) x = rng.uniform(-1.0, 2.0);
        for (double& x : vr) x = rng.uniform(-1.0, 1.0);
        for (double& x : vi) x = rng.uniform(-1.0, 1.0);
        const std::size_t ld = static_cast<std::size_t>(cols) + 2;
        std::vector<double> z0r(rows * ld), z0i(rows * ld);
        for (double& x : z0r) x = rng.uniform(-1.0, 1.0);
        for (double& x : z0i) x = rng.uniform(-1.0, 1.0);

        auto run = [&](c::KernelIsa isa, std::vector<double>& zr,
                       std::vector<double>& zi) {
          c::set_kernel_isa(isa);
          zr = z0r;
          zi = z0i;
          c::zeta_batch_update(wp.data(), np, vr.data(), vi.data(), vstride,
                               rows, cols, zr.data(), zi.data(), ld);
        };
        std::vector<double> rr, ri;
        run(c::KernelIsa::kScalar, rr, ri);
        for (c::KernelIsa isa : supported_levels()) {
          std::vector<double> gr, gi;
          run(isa, gr, gi);
          for (std::size_t k = 0; k < rr.size(); ++k) {
            ASSERT_EQ(gr[k], rr[k]) << "isa=" << c::kernel_isa_name(isa)
                                    << " np=" << np << " rows=" << rows
                                    << " cols=" << cols << " k=" << k;
            ASSERT_EQ(gi[k], ri[k]) << "isa=" << c::kernel_isa_name(isa)
                                    << " np=" << np << " rows=" << rows
                                    << " cols=" << cols << " k=" << k;
          }
        }
        // Entries outside the block (the ld padding) are never written.
        for (int r = 0; r < rows; ++r)
          for (std::size_t c0 = cols; c0 < ld; ++c0) {
            EXPECT_EQ(rr[r * ld + c0], z0r[r * ld + c0]);
            EXPECT_EQ(ri[r * ld + c0], z0i[r * ld + c0]);
          }
      }
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

  for (c::TraversalMode traversal :
       {c::TraversalMode::kPerPrimary, c::TraversalMode::kLeafBlocked}) {
    cfg.tree.traversal = traversal;
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
}
