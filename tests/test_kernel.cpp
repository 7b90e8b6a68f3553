// The multipole kernel: the minimal-basis running product against its scalar
// reference and against direct Y_lm sums, the
// bucket/accumulator lifecycle, padding, bucket-size and ILP sweeps, and
// the fused per-(primary, bin) epilogue against the standalone reduction.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "core/kernel.hpp"
#include "math/rng.hpp"
#include "math/sph_table.hpp"
#include "test_helpers.hpp"

namespace c = galactos::core;
namespace m = galactos::math;

namespace {

struct PairSet {
  std::vector<double> ux, uy, uz, w;
};

PairSet random_pairs(int n, std::uint64_t seed) {
  m::Rng rng(seed);
  PairSet p;
  for (int i = 0; i < n; ++i) {
    double x, y, z;
    rng.unit_vector(x, y, z);
    p.ux.push_back(x);
    p.uy.push_back(y);
    p.uz.push_back(z);
    p.w.push_back(rng.uniform(0.5, 2.0));
  }
  return p;
}

std::vector<double> reduce_lanes(const std::vector<double>& acc, int nslots) {
  std::vector<double> s(nslots, 0.0);
  for (int t = 0; t < nslots; ++t)
    for (int l = 0; l < c::kLanes; ++l) s[t] += acc[t * c::kLanes + l];
  return s;
}

}  // namespace

class BucketKernelTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // lmax, count

TEST_P(BucketKernelTest, RunningProductMatchesReference) {
  const auto [lmax, count] = GetParam();
  ASSERT_EQ(count % c::kLanes, 0);
  const int nslots = m::basis_size(lmax);
  const PairSet p = random_pairs(count, 1000 + lmax);

  std::vector<double> ref(nslots, 0.0);
  c::kernel_reference(p.ux.data(), p.uy.data(), p.uz.data(), p.w.data(),
                      count, lmax, ref.data());

  for (int ilp : {1, 2, 4}) {
    std::vector<double> acc(static_cast<std::size_t>(nslots) * c::kLanes, 0.0);
    c::kernel_running_product(p.ux.data(), p.uy.data(), p.uz.data(),
                              p.w.data(), count, lmax, acc.data(), ilp);
    const std::vector<double> got = reduce_lanes(acc, nslots);
    for (int t = 0; t < nslots; ++t)
      EXPECT_NEAR(got[t], ref[t], 1e-11 * (1 + std::abs(ref[t])))
          << "lmax=" << lmax << " ilp=" << ilp << " t=" << t;
  }
}

// The fused path: the bucket's last block reduces the lanes in registers
// and writes strided power sums; those must match the oracle too, with an
// arbitrary (NaN) lane block under `overwrite` and neighbouring sum columns
// left alone.
TEST_P(BucketKernelTest, FusedReductionMatchesReference) {
  const auto [lmax, count] = GetParam();
  const int nslots = m::basis_size(lmax);
  const PairSet p = random_pairs(count, 3000 + lmax + count);

  std::vector<double> ref(nslots, 0.0);
  c::kernel_reference(p.ux.data(), p.uy.data(), p.uz.data(), p.w.data(),
                      count, lmax, ref.data());

  const std::size_t stride = 2;
  for (int ilp : {1, 2, 4}) {
    std::vector<double> acc(static_cast<std::size_t>(nslots) * c::kLanes,
                            std::numeric_limits<double>::quiet_NaN());
    std::vector<double> sums(nslots * stride, -1.0);
    c::kernel_running_product(p.ux.data(), p.uy.data(), p.uz.data(),
                              p.w.data(), count, lmax, acc.data(), ilp, true,
                              sums.data(), stride);
    for (int t = 0; t < nslots; ++t) {
      EXPECT_NEAR(sums[t * stride], ref[t], 1e-11 * (1 + std::abs(ref[t])))
          << "lmax=" << lmax << " ilp=" << ilp << " t=" << t;
      EXPECT_EQ(sums[t * stride + 1], -1.0) << "ilp=" << ilp << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BucketKernelTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 5, 10),
                       ::testing::Values(8, 32, 128, 256)));

TEST(Kernel, FlopsPerPairMatchesPaper) {
  // 286 monomials at lmax=10; the paper quotes 576 FLOP/pair for the
  // multipole kernel (2 FLOPs per monomial). That stays the unit of the
  // kernel GFLOP/s figures; the minimal basis executes 277.
  EXPECT_EQ(m::monomial_count(10), 286);
  EXPECT_DOUBLE_EQ(c::kernel_flops_per_pair(10), 572.0);
  EXPECT_EQ(m::basis_size(10), 121);
  EXPECT_DOUBLE_EQ(c::kernel_basis_flops_per_pair(10), 277.0);
  EXPECT_DOUBLE_EQ(c::kernel_basis_flops_per_pair(0), 1.0);
  EXPECT_DOUBLE_EQ(c::kernel_basis_flops_per_pair(1), 4.0 + 1.0 + 2.0);
}

// The kernel's fused basis sums, turned into a_lm by the table, against
// sum_j w_j conj(Y_lm(u_j)) with Y_lm from SphHarmTable::eval per pair.
TEST(Kernel, BasisSumsReproduceDirectAlm) {
  using cd = std::complex<double>;
  for (int lmax : {0, 1, 2, 5, 8, 10}) {
    const m::SphHarmTable table(lmax);
    const int nslots = m::basis_size(lmax);
    const int count = 128;
    const PairSet p = random_pairs(count, 4000 + lmax);
    for (int ilp : {1, 2, 4}) {
      std::vector<double> acc(static_cast<std::size_t>(nslots) * c::kLanes);
      std::vector<double> sums(nslots);
      c::kernel_running_product(p.ux.data(), p.uy.data(), p.uz.data(),
                                p.w.data(), count, lmax, acc.data(), ilp,
                                true, sums.data(), 1);
      std::vector<cd> alm(m::nlm(lmax));
      table.alm_from_power_sums(sums.data(), alm.data());
      for (int l = 0; l <= lmax; ++l)
        for (int mm = 0; mm <= l; ++mm) {
          cd direct{0, 0};
          for (int i = 0; i < count; ++i)
            direct += p.w[i] * std::conj(table.eval(l, mm, p.ux[i], p.uy[i],
                                                    p.uz[i]));
          const cd got = alm[m::lm_index(l, mm)];
          const double tol = 1e-12 * (1 + std::abs(direct));
          EXPECT_NEAR(got.real(), direct.real(), tol)
              << "lmax=" << lmax << " ilp=" << ilp << " l=" << l
              << " m=" << mm;
          EXPECT_NEAR(got.imag(), direct.imag(), tol)
              << "lmax=" << lmax << " ilp=" << ilp << " l=" << l
              << " m=" << mm;
        }
    }
  }
}

TEST(Kernel, ZeroWeightPairsContributeNothing) {
  const int lmax = 6;
  const int nslots = m::basis_size(lmax);
  PairSet p = random_pairs(64, 3);
  for (int i = 32; i < 64; ++i) p.w[i] = 0.0;
  std::vector<double> ref(nslots, 0.0);
  c::kernel_reference(p.ux.data(), p.uy.data(), p.uz.data(), p.w.data(), 32,
                      lmax, ref.data());
  std::vector<double> acc(static_cast<std::size_t>(nslots) * c::kLanes, 0.0);
  c::kernel_running_product(p.ux.data(), p.uy.data(), p.uz.data(), p.w.data(),
                            64, lmax, acc.data(), 4);
  const std::vector<double> got = reduce_lanes(acc, nslots);
  for (int t = 0; t < nslots; ++t)
    EXPECT_NEAR(got[t], ref[t], 1e-12 * (1 + std::abs(ref[t])));
}

class AccumulatorTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // lmax, nbins

// The first primary stays inside one bucket per bin; the others push
// hundreds of pairs per bin, so bins flush full buckets before their final
// partial one. With one bin every pair lands in the same bucket; with five
// the pushes interleave across bins and bin 2 stays empty.
TEST_P(AccumulatorTest, MatchesReferenceAcrossBinsAndPrimaries) {
  const auto [lmax, nbins] = GetParam();
  const int nslots = m::basis_size(lmax);

  c::KernelConfig cfg;
  cfg.lmax = lmax;
  cfg.nbins = nbins;
  c::MultipoleAccumulator acc(cfg);

  m::Rng rng(99);
  std::uint64_t expected_pairs = 0;
  for (int primary = 0; primary < 3; ++primary) {
    // Reference sums per bin.
    std::vector<std::vector<double>> ref(nbins,
                                         std::vector<double>(nslots, 0.0));
    std::vector<bool> used(nbins, false);

    acc.start_primary();
    const int npush =
        primary == 0 ? 1 + static_cast<int>(rng.uniform_u64(100))
                     : 700 + static_cast<int>(rng.uniform_u64(700));
    for (int i = 0; i < npush; ++i) {
      double x, y, z;
      rng.unit_vector(x, y, z);
      const double w = rng.uniform(0.1, 3.0);
      // Leave bin 2 deliberately empty to test the touched flags.
      const bool skip2 = nbins > 2;
      int bin = static_cast<int>(rng.uniform_u64(skip2 ? nbins - 1 : nbins));
      if (skip2 && bin >= 2) ++bin;
      acc.push(bin, x, y, z, w);
      c::kernel_reference(&x, &y, &z, &w, 1, lmax, ref[bin].data());
      used[bin] = true;
      ++expected_pairs;
    }
    acc.finish_primary();

    for (int b = 0; b < nbins; ++b) {
      EXPECT_EQ(acc.bin_touched(b), used[b]) << "bin " << b;
      if (!used[b]) continue;
      const c::MultipoleAccumulator::PowerSums S = acc.power_sums(b);
      for (int t = 0; t < nslots; ++t)
        EXPECT_NEAR(S[t], ref[b][t], 1e-11 * (1 + std::abs(ref[b][t])))
            << "primary=" << primary << " bin=" << b << " t=" << t;
    }
  }
  EXPECT_EQ(acc.pairs_processed(), expected_pairs);
  EXPECT_GT(acc.counters().full_flushes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AccumulatorTest,
                         ::testing::Combine(::testing::Values(0, 2, 4, 7, 10),
                                            ::testing::Values(1, 5)));

TEST(Accumulator, StartPrimaryResetsState) {
  c::KernelConfig cfg;
  cfg.lmax = 2;
  cfg.nbins = 2;
  c::MultipoleAccumulator acc(cfg);
  acc.start_primary();
  acc.push(0, 1, 0, 0, 1.0);
  acc.finish_primary();
  EXPECT_TRUE(acc.bin_touched(0));
  const double s000_first = acc.power_sums(0)[0];
  EXPECT_DOUBLE_EQ(s000_first, 1.0);

  acc.start_primary();
  EXPECT_FALSE(acc.bin_touched(0));
  acc.push(0, 0, 1, 0, 2.0);
  acc.finish_primary();
  EXPECT_DOUBLE_EQ(acc.power_sums(0)[0], 2.0);  // not 3.0: state was reset
}

TEST(Accumulator, RejectsBadConfig) {
  c::KernelConfig cfg;
  cfg.lmax = 99;
  EXPECT_THROW(c::MultipoleAccumulator{cfg}, std::logic_error);
  cfg.lmax = 4;
  cfg.nbins = 0;
  EXPECT_THROW(c::MultipoleAccumulator{cfg}, std::logic_error);
}

TEST(Accumulator, ManyFlushesExactlyAccumulate) {
  // Push far more pairs than one bucket to force repeated flushes.
  c::KernelConfig cfg;
  cfg.lmax = 3;
  cfg.nbins = 1;
  c::MultipoleAccumulator acc(cfg);
  const int nslots = m::basis_size(3);
  const PairSet p = random_pairs(1000, 55);
  std::vector<double> ref(nslots, 0.0);
  c::kernel_reference(p.ux.data(), p.uy.data(), p.uz.data(), p.w.data(), 1000,
                      3, ref.data());
  acc.start_primary();
  for (int i = 0; i < 1000; ++i) acc.push(0, p.ux[i], p.uy[i], p.uz[i], p.w[i]);
  acc.finish_primary();
  EXPECT_EQ(acc.counters().full_flushes,
            static_cast<std::uint64_t>(1000 / c::kBucketCapacity));
  for (int t = 0; t < nslots; ++t)
    EXPECT_NEAR(acc.power_sums(0)[t], ref[t], 1e-10 * (1 + std::abs(ref[t])));
}

// --- Fused epilogue vs the standalone lane reduction, bitwise -------------

// Counts around the lane group, the ILP block and the 128-pair bucket:
// single-block (overwrite-only) finals, ragged tails, exactly full buckets
// that now drain at finish_primary, and one-past-full.
TEST(FusedEpilogue, MatchesStandaloneReductionBitwise) {
  using galactos::testing::bits;
  using galactos::testing::unfused_power_sums;
  for (int lmax : {0, 2, 5, 10})
    for (int count : {1, 7, 8, 9, 31, 32, 33, 127, 128, 129, 256, 400}) {
      c::KernelConfig cfg;
      cfg.lmax = lmax;
      cfg.nbins = 3;
      c::MultipoleAccumulator acc(cfg);
      // Two primaries: the second must not see the first's lanes.
      for (int primary = 0; primary < 2; ++primary) {
        // Bin 1 gets `count` pairs, bin 0 about a third as many
        // interleaved with them, bin 2 none.
        const int n0 = count / 3 + 1;
        const PairSet p1 = random_pairs(count, 31 * count + lmax + primary);
        const PairSet p0 = random_pairs(n0, 7 * count + lmax + primary);
        acc.start_primary();
        int j = 0;
        for (int i = 0; i < count; ++i) {
          acc.push(1, p1.ux[i], p1.uy[i], p1.uz[i], p1.w[i]);
          if (i % 3 == 0 && j < n0) {
            acc.push(0, p0.ux[j], p0.uy[j], p0.uz[j], p0.w[j]);
            ++j;
          }
        }
        for (; j < n0; ++j)
          acc.push(0, p0.ux[j], p0.uy[j], p0.uz[j], p0.w[j]);
        acc.finish_primary();
        ASSERT_FALSE(acc.bin_touched(2));
        const std::string what = "lmax=" + std::to_string(lmax) +
                                 " count=" + std::to_string(count);
        for (const auto& [bin, p] : {std::pair{1, &p1}, {0, &p0}}) {
          const std::vector<double> ref = unfused_power_sums(
              lmax, c::kKernelIlp, p->ux.data(), p->uy.data(), p->uz.data(),
              p->w.data(), static_cast<int>(p->w.size()));
          for (int t = 0; t < acc.n_slots(); ++t)
            ASSERT_EQ(bits(acc.power_sums(bin)[t]), bits(ref[t]))
                << what << " bin=" << bin << " t=" << t;
        }
      }
    }
}

// A final bucket of one block (at most 8 pairs, or one 4-chunk ILP block)
// stores nothing: the fused reduction writes the sums straight from the
// registers, and the lane block keeps whatever it held.
TEST(FusedEpilogue, OverwriteOnlyBlockNeverTouchesLaneBlock) {
  using galactos::testing::bits;
  using galactos::testing::unfused_power_sums;
  const int lmax = 5;
  const int nslots = m::basis_size(lmax);
  const double sentinel = std::numeric_limits<double>::quiet_NaN();
  for (int count : {8, 32}) {
    const int ilp = count / c::kLanes;
    const PairSet p = random_pairs(count, 500 + count);
    std::vector<double> acc(static_cast<std::size_t>(nslots) * c::kLanes,
                            sentinel);
    const std::size_t stride = 3;
    std::vector<double> sums(nslots * stride, -1.0);
    c::kernel_running_product(p.ux.data(), p.uy.data(), p.uz.data(),
                              p.w.data(), count, lmax, acc.data(), ilp, true,
                              sums.data() + 1, stride);
    for (double a : acc) ASSERT_TRUE(std::isnan(a));
    const std::vector<double> ref = unfused_power_sums(
        lmax, ilp, p.ux.data(), p.uy.data(), p.uz.data(), p.w.data(), count);
    for (int t = 0; t < nslots; ++t) {
      ASSERT_EQ(bits(sums[t * stride + 1]), bits(ref[t])) << "count=" << count;
      ASSERT_EQ(sums[t * stride], -1.0);  // neighbouring columns untouched
      ASSERT_EQ(sums[t * stride + 2], -1.0);
    }
  }
}

// Full buckets drain on the next push into their bin, so every touched bin
// ends with one final flush of 1..kBucketCapacity pairs.
TEST(FusedEpilogue, CountersSplitFullAndPartialFlushes) {
  constexpr int cap = c::kBucketCapacity;
  c::KernelConfig cfg;
  cfg.lmax = 2;
  cfg.nbins = 4;
  c::MultipoleAccumulator acc(cfg);
  acc.start_primary();
  for (int i = 0; i < 2 * cap; ++i) acc.push(0, 0, 0, 1, 1.0);  // 2 full
  for (int i = 0; i <= cap; ++i) acc.push(2, 0, 1, 0, 1.0);  // full + partial
  acc.finish_primary();
  EXPECT_EQ(acc.counters().epilogues, 2u);
  EXPECT_EQ(acc.counters().full_flushes, 3u);
  EXPECT_EQ(acc.counters().partial_flushes, 1u);
  EXPECT_EQ(acc.power_sums(0)[0], 2.0 * cap);
  EXPECT_EQ(acc.power_sums(2)[0], cap + 1.0);
  acc.start_primary();
  acc.push(3, 1, 0, 0, 2.0);
  acc.finish_primary();
  EXPECT_EQ(acc.counters().epilogues, 3u);
  EXPECT_EQ(acc.counters().partial_flushes, 2u);
  EXPECT_EQ(acc.pairs_processed(), 3u * cap + 2u);
}
