// §5.1 microbenchmark: the multipole accumulation kernel.
//
// The paper reports 1017 GF (39 % of KNL peak) for this kernel at lmax = 10,
// bucket k = 128, 8-lane accumulators, 4 independent streams. Here we
// measure the same kernel's GF/s on the host CPU for all ILP widths and
// several bucket sizes, using the paper's FLOP accounting (2 FLOPs per
// monomial per pair = 572 FLOP/pair at lmax = 10). The kernel accumulates
// the minimal basis (x+iy)^m z^k instead and executes fewer FLOPs
// (277 at lmax 10): `actual_FLOP/pair` reports that count, `GF/s` stays
// paper-equivalent.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <complex>
#include <string>
#include <vector>

#include "core/kernel.hpp"
#include "core/zeta.hpp"
#include "math/rng.hpp"
#include "math/sph_table.hpp"

namespace c = galactos::core;
namespace m = galactos::math;

namespace {

struct Bucket {
  std::vector<double> ux, uy, uz, w;
};

Bucket make_bucket(int n, std::uint64_t seed) {
  m::Rng rng(seed);
  Bucket b;
  b.ux.resize(n);
  b.uy.resize(n);
  b.uz.resize(n);
  b.w.resize(n);
  for (int i = 0; i < n; ++i) {
    rng.unit_vector(b.ux[i], b.uy[i], b.uz[i]);
    b.w[i] = rng.uniform(0.5, 1.5);
  }
  return b;
}

void set_flops(benchmark::State& state, int lmax, int count) {
  const double fl = c::kernel_flops_per_pair(lmax) * count;
  state.counters["FLOP/pair"] = c::kernel_flops_per_pair(lmax);
  state.counters["actual_FLOP/pair"] = c::kernel_basis_flops_per_pair(lmax);
  state.counters["GF/s"] = benchmark::Counter(
      fl, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
  state.SetItemsProcessed(state.iterations() * count);
}

// The per-ISA A/B dimension: benchmark arg -> dispatch level. Unsupported
// levels skip with a notice instead of failing, so one binary runs
// everywhere; the RAII reset keeps the level from leaking into benches
// that don't carry the arg.
constexpr c::KernelIsa kIsaArg[] = {c::KernelIsa::kScalar, c::KernelIsa::kAvx2,
                                    c::KernelIsa::kAvx512, c::KernelIsa::kAuto};

struct IsaRun {
  bool ok;
  explicit IsaRun(benchmark::State& state, int arg) {
    const c::KernelIsa isa = kIsaArg[arg];
    ok = c::kernel_isa_supported(isa);
    if (!ok) {
      state.SkipWithError((std::string("ISA not supported on this host: ") +
                           c::kernel_isa_name(isa))
                              .c_str());
      return;
    }
    c::set_kernel_isa(isa);
    state.SetLabel(std::string("isa:") + c::kernel_isa_name(c::kernel_isa()));
  }
  ~IsaRun() { c::set_kernel_isa(c::KernelIsa::kAuto); }
};

}  // namespace

static void BM_KernelRunningProduct(benchmark::State& state) {
  const int lmax = static_cast<int>(state.range(0));
  const int count = static_cast<int>(state.range(1));
  const int ilp = static_cast<int>(state.range(2));
  IsaRun isa(state, static_cast<int>(state.range(3)));
  if (!isa.ok) return;
  const Bucket b = make_bucket(count, 42);
  std::vector<double> acc(
      static_cast<std::size_t>(m::basis_size(lmax)) * c::kLanes, 0.0);
  for (auto _ : state) {
    c::kernel_running_product(b.ux.data(), b.uy.data(), b.uz.data(),
                              b.w.data(), count, lmax, acc.data(), ilp);
    benchmark::DoNotOptimize(acc.data());
  }
  set_flops(state, lmax, count);
}
// isa: 0 = scalar, 1 = avx2, 2 = avx512, 3 = auto. lmax 2/5/10 x ilp
// 1/2/4 at the paper's bucket of 128 runs at every level — the
// kernel-GFLOP/s A/B matrix and the ilp sweep; the bucket-size sweeps run
// once at auto.
BENCHMARK(BM_KernelRunningProduct)
    ->ArgNames({"lmax", "bucket", "ilp", "isa"})
    ->ArgsProduct({{2, 5, 10}, {128}, {1, 2, 4}, {0, 1, 2}})
    ->Args({10, 128, 4, 3})
    ->Args({10, 512, 4, 3})
    ->Args({10, 32, 4, 3});

static void BM_KernelReferenceScalar(benchmark::State& state) {
  const int lmax = static_cast<int>(state.range(0));
  const int count = 128;
  const Bucket b = make_bucket(count, 44);
  std::vector<double> sums(m::basis_size(lmax), 0.0);
  for (auto _ : state) {
    c::kernel_reference(b.ux.data(), b.uy.data(), b.uz.data(), b.w.data(),
                        count, lmax, sums.data());
    benchmark::DoNotOptimize(sums.data());
  }
  set_flops(state, lmax, count);
}
BENCHMARK(BM_KernelReferenceScalar)->ArgNames({"lmax"})->Arg(10)->Arg(5);

// Full accumulator path including binning/bucketing overhead and the
// fused per-bin epilogue — what the engine actually pays per pair. 370
// pairs over 10 bins is a mock-batch primary (about 37 pairs per bin),
// where the epilogue outweighs the pair work.
static void BM_AccumulatorEndToEnd(benchmark::State& state) {
  const int lmax = 10;
  const int nbins = static_cast<int>(state.range(0));
  const int npairs = static_cast<int>(state.range(1));
  c::KernelConfig cfg;
  cfg.lmax = lmax;
  cfg.nbins = nbins;
  c::MultipoleAccumulator acc(cfg);
  const Bucket b = make_bucket(npairs, 45);
  m::Rng rng(46);
  std::vector<int> bins(npairs);
  for (int i = 0; i < npairs; ++i)
    bins[i] = static_cast<int>(rng.uniform_u64(nbins));
  for (auto _ : state) {
    acc.start_primary();
    for (int i = 0; i < npairs; ++i)
      acc.push(bins[i], b.ux[i], b.uy[i], b.uz[i], b.w[i]);
    acc.finish_primary();
    benchmark::DoNotOptimize(acc.sums());
  }
  set_flops(state, lmax, npairs);
}
BENCHMARK(BM_AccumulatorEndToEnd)
    ->ArgNames({"nbins", "pairs"})
    ->Args({10, 8192})
    ->Args({20, 8192})
    ->Args({10, 370});

// One primary's a_lm at lmax 10 over 10 touched bins: the bins-as-lanes
// assembly the engine runs vs the per-bin serial chains it replaces (the
// oracle). isa as above for the bins-as-lanes case.
static void BM_AlmBinsAsLanes(benchmark::State& state) {
  const int nbins = 10;
  IsaRun isa(state, static_cast<int>(state.range(0)));
  if (!isa.ok) return;
  const m::SphHarmTable table(10);
  const std::size_t stride = 16;
  const int nlm = m::nlm(10);
  std::vector<double> sums(stride * m::basis_size(10));
  m::Rng rng(47);
  for (double& x : sums) x = rng.uniform(-1, 1);
  std::vector<int> bins(nbins);
  for (int b = 0; b < nbins; ++b) bins[b] = b;
  std::vector<std::size_t> off(nlm), step(nlm, nlm);
  for (int lm = 0; lm < nlm; ++lm) off[lm] = lm;
  std::vector<double> re(static_cast<std::size_t>(nbins) * nlm), im(re.size());
  for (auto _ : state) {
    c::alm_bins_as_lanes(table, sums.data(), stride, bins.data(), nbins,
                         re.data(), im.data(), off.data(), step.data());
    benchmark::DoNotOptimize(re.data());
    benchmark::DoNotOptimize(im.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_AlmBinsAsLanes)->ArgNames({"isa"})->Arg(0)->Arg(1)->Arg(2);

static void BM_AlmPerBinOracle(benchmark::State& state) {
  const int nbins = 10;
  const m::SphHarmTable table(10);
  const int nslots = m::basis_size(10);
  std::vector<double> sums(static_cast<std::size_t>(nbins) * nslots);
  m::Rng rng(47);
  for (double& x : sums) x = rng.uniform(-1, 1);
  std::vector<std::complex<double>> alm(m::nlm(10));
  for (auto _ : state) {
    for (int b = 0; b < nbins; ++b) {
      table.alm_from_power_sums(sums.data() + b * nslots, alm.data());
      benchmark::DoNotOptimize(alm.data());
      benchmark::ClobberMemory();
    }
  }
}
BENCHMARK(BM_AlmPerBinOracle);

// ZetaAccumulator::add_primary_sums per primary — the a_lm assembly plus
// its share of the batched zeta update (m = 0 through the real-only
// update) — at `lmax` over 10 touched bins, weights of both signs.
static void BM_ZetaAddPrimarySums(benchmark::State& state) {
  const int nbins = 10;
  IsaRun isa(state, static_cast<int>(state.range(0)));
  if (!isa.ok) return;
  const int lmax = static_cast<int>(state.range(1));
  const m::SphHarmTable table(lmax);
  const std::size_t stride = 16;
  std::vector<double> sums(stride * m::basis_size(lmax));
  m::Rng rng(53);
  for (double& x : sums) x = rng.uniform(-1, 1);
  std::vector<int> bins(nbins);
  for (int b = 0; b < nbins; ++b) bins[b] = b;
  c::ZetaAccumulator zeta(lmax, nbins);
  double wp = 1.25;
  for (auto _ : state) {
    zeta.add_primary_sums(wp, table, sums.data(), stride, bins.data(),
                          nbins);
    wp = -wp;
  }
  zeta.flush();
  benchmark::DoNotOptimize(zeta.sum_weight());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZetaAddPrimarySums)
    ->ArgNames({"isa", "lmax"})
    ->ArgsProduct({{0, 1, 2}, {5, 10}});

// ZetaAccumulator::flush's update alone: one full batch (kBatch primaries)
// at `lmax` and 10 bins, replaying its zeta_batch_update calls (one per m,
// the m = 0 block through the real-only update). GF/s counts 8 FLOP per
// complex entry and 2 per real-only entry per primary (182,710 FLOP per
// primary at lmax 10). isa as above.
static void BM_ZetaBatchUpdate(benchmark::State& state) {
  IsaRun isa(state, static_cast<int>(state.range(0)));
  if (!isa.ok) return;
  const int lmax = static_cast<int>(state.range(1));
  const int nbins = 10;
  const int np = c::ZetaAccumulator::kBatch;
  const std::size_t slot = static_cast<std::size_t>(nbins) * m::nlm(lmax);
  std::vector<double> vr(np * slot + c::kZetaOperandPad), vi(vr.size());
  m::Rng rng(61);
  for (double& x : vr) x = rng.uniform(-1, 1);
  for (double& x : vi) x = rng.uniform(-1, 1);
  for (int p = 0; p < np; ++p)  // the m = 0 planes are real
    std::fill_n(vi.begin() + p * slot, nbins * (lmax + 1), 0.0);
  std::vector<double> wp(np);
  for (int p = 0; p < np; ++p) wp[p] = p % 2 ? -0.75 : 1.25;
  const std::size_t npairs = c::ZetaAccumulator::bin_pair_count(nbins);
  std::vector<double> zr(npairs * c::LlmIndex(lmax).size(), 0.0),
      zi(zr.size(), 0.0);
  double flop = 0.0;
  for (int mm = 0; mm <= lmax; ++mm) {
    const int len = lmax + 1 - mm;
    flop += (mm ? 8.0 : 2.0) * len * len * npairs;
  }
  for (auto _ : state) {
    std::size_t plane = 0, z = 0;
    for (int mm = 0; mm <= lmax; ++mm) {
      const int len = lmax + 1 - mm;
      c::zeta_batch_update(wp.data(), np, vr.data() + plane,
                           vi.data() + plane, slot, len, nbins, zr.data() + z,
                           mm ? zi.data() + z : nullptr);
      plane += static_cast<std::size_t>(nbins) * len;
      z += npairs * len * len;
    }
    benchmark::DoNotOptimize(zr.data());
    benchmark::DoNotOptimize(zi.data());
    benchmark::ClobberMemory();
  }
  state.counters["FLOP/primary"] = flop;
  state.counters["GF/s"] = benchmark::Counter(
      flop * np, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_ZetaBatchUpdate)
    ->ArgNames({"isa", "lmax"})
    ->ArgsProduct({{0, 1, 2}, {5, 10}});

// The pair stage's own ceiling: one primary against a 5k-candidate float
// block drawn uniformly from the cube of half-side R_max around it, so
// about half the candidates fall within R_max, as in the engine's leaf
// blocks. 10 linear bins in [R_max/10, R_max), plane-parallel (rot 0) or
// radial (rot 1) LOS. Reports candidates/s. isa as above.
static void BM_PairStage(benchmark::State& state) {
  IsaRun isa(state, static_cast<int>(state.range(0)));
  if (!isa.ok) return;
  const bool rotate = state.range(1) != 0;
  const int n = 5000;
  const double rmax = 24.0;
  const c::RadialBins bins(rmax / 10, rmax, 10);
  const float p[3] = {100.0f, 50.0f, 75.0f};
  galactos::tree::NeighborBlock<float> block;
  m::Rng rng(48);
  for (int i = 0; i < n; ++i)
    block.push(p[0] + static_cast<float>(rng.uniform(-rmax, rmax)),
               p[1] + static_cast<float>(rng.uniform(-rmax, rmax)),
               p[2] + static_cast<float>(rng.uniform(-rmax, rmax)),
               rng.uniform(0.5, 1.5), i);
  const c::Rotation rot = c::rotation_to_z({1.0, 2.0, 3.0});
  const float r2max = static_cast<float>(rmax) * static_cast<float>(rmax);
  c::StagedPairs staged;
  for (auto _ : state) {
    c::stage_pairs(block, p[0], p[1], p[2], r2max, std::int64_t{17}, bins,
                   rotate ? &rot : nullptr, staged);
    benchmark::DoNotOptimize(staged.ux.data());
    benchmark::ClobberMemory();
  }
  state.counters["pairs/candidate"] =
      static_cast<double>(staged.count) / n;
  state.counters["candidates/s"] = benchmark::Counter(
      n, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PairStage)
    ->ArgNames({"isa", "rot"})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({2, 1});
