// §5.1 microbenchmark: the multipole accumulation kernel.
//
// The paper reports 1017 GF (39 % of KNL peak) for this kernel at lmax = 10,
// bucket k = 128, 8-lane accumulators, 4 independent streams. Here we
// measure the same kernel's GF/s on the host CPU for both schemes, all ILP
// widths and several bucket sizes, using the paper's FLOP accounting
// (2 FLOPs per monomial per pair = 572 FLOP/pair at lmax = 10).
#include <benchmark/benchmark.h>

#include <complex>
#include <string>
#include <vector>

#include "core/kernel.hpp"
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
      static_cast<std::size_t>(m::monomial_count(lmax)) * c::kLanes, 0.0);
  for (auto _ : state) {
    c::kernel_running_product(b.ux.data(), b.uy.data(), b.uz.data(),
                              b.w.data(), count, lmax, acc.data(), ilp);
    benchmark::DoNotOptimize(acc.data());
  }
  set_flops(state, lmax, count);
}
// isa: 0 = scalar, 1 = avx2, 2 = avx512, 3 = auto. The paper configuration
// (lmax 10, bucket 128, ilp 4) runs at every level — the kernel-GFLOP/s
// A/B matrix; the shape sweeps run once at auto.
BENCHMARK(BM_KernelRunningProduct)
    ->ArgNames({"lmax", "bucket", "ilp", "isa"})
    ->Args({10, 128, 4, 0})
    ->Args({10, 128, 4, 1})
    ->Args({10, 128, 4, 2})
    ->Args({10, 128, 4, 3})
    ->Args({10, 128, 1, 3})
    ->Args({10, 128, 2, 3})
    ->Args({10, 512, 4, 3})
    ->Args({5, 128, 4, 3})
    ->Args({10, 32, 4, 3});

static void BM_KernelZBuffered(benchmark::State& state) {
  const int lmax = static_cast<int>(state.range(0));
  const int count = static_cast<int>(state.range(1));
  IsaRun isa(state, static_cast<int>(state.range(2)));
  if (!isa.ok) return;
  const Bucket b = make_bucket(count, 43);
  std::vector<double> acc(
      static_cast<std::size_t>(m::monomial_count(lmax)) * c::kLanes, 0.0);
  std::vector<double> scratch(2 * count);
  for (auto _ : state) {
    c::kernel_zbuffered(b.ux.data(), b.uy.data(), b.uz.data(), b.w.data(),
                        count, lmax, acc.data(), scratch.data());
    benchmark::DoNotOptimize(acc.data());
  }
  set_flops(state, lmax, count);
}
BENCHMARK(BM_KernelZBuffered)
    ->ArgNames({"lmax", "bucket", "isa"})
    ->Args({10, 128, 0})
    ->Args({10, 128, 1})
    ->Args({10, 128, 2})
    ->Args({10, 128, 3})
    ->Args({10, 512, 3})
    ->Args({10, 32, 3})
    ->Args({5, 128, 3})
    ->Args({2, 128, 3});

static void BM_KernelReferenceScalar(benchmark::State& state) {
  const int lmax = static_cast<int>(state.range(0));
  const int count = 128;
  const Bucket b = make_bucket(count, 44);
  std::vector<double> sums(m::monomial_count(lmax), 0.0);
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
  std::vector<double> sums(stride * m::monomial_count(10));
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
  const int nmono = m::monomial_count(10);
  std::vector<double> sums(static_cast<std::size_t>(nbins) * nmono);
  m::Rng rng(47);
  for (double& x : sums) x = rng.uniform(-1, 1);
  std::vector<std::complex<double>> alm(m::nlm(10));
  for (auto _ : state) {
    for (int b = 0; b < nbins; ++b) {
      table.alm_from_power_sums(sums.data() + b * nmono, alm.data());
      benchmark::DoNotOptimize(alm.data());
      benchmark::ClobberMemory();
    }
  }
}
BENCHMARK(BM_AlmPerBinOracle);
