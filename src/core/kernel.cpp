#include "core/kernel.hpp"

#include <atomic>
#include <cstdlib>

#include "core/kernel_isa.hpp"

namespace galactos::core {

// --- Runtime ISA dispatch ---------------------------------------------------

namespace {

bool cpu_has_avx2() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_has_avx512() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

// Active level as int(KernelIsa); kUnresolved until the first kernel call
// (or set_kernel_isa). Resolution is idempotent, so a racy first call on
// several threads lands on the same value.
constexpr int kUnresolved = -1;
std::atomic<int> g_active{kUnresolved};

KernelIsa resolve_active() {
  const KernelIsa req = kernel_isa_from_env();
  if (req == KernelIsa::kAuto) return kernel_isa_detect();
  GLX_CHECK_MSG(kernel_isa_supported(req),
                "GALACTOS_KERNEL_ISA requests '"
                    << kernel_isa_name(req) << "' but this "
                    << (kernel_isa_compiled(req) ? "CPU does not support it"
                                                 : "build does not include it")
                    << " (best supported: '"
                    << kernel_isa_name(kernel_isa_detect()) << "')");
  return req;
}

inline KernelIsa active_isa() {
  int a = g_active.load(std::memory_order_relaxed);
  if (a == kUnresolved) {
    a = static_cast<int>(resolve_active());
    g_active.store(a, std::memory_order_relaxed);
  }
  return static_cast<KernelIsa>(a);
}

}  // namespace

bool kernel_isa_compiled(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kAvx2:
#if defined(GALACTOS_KERNEL_HAVE_AVX2)
      return true;
#else
      return false;
#endif
    case KernelIsa::kAvx512:
#if defined(GALACTOS_KERNEL_HAVE_AVX512)
      return true;
#else
      return false;
#endif
    default:
      return true;  // scalar is always compiled; auto always resolves
  }
}

bool kernel_isa_supported(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kAvx2:
      return kernel_isa_compiled(isa) && cpu_has_avx2();
    case KernelIsa::kAvx512:
      return kernel_isa_compiled(isa) && cpu_has_avx512();
    default:
      return true;
  }
}

KernelIsa kernel_isa_detect() {
  if (kernel_isa_supported(KernelIsa::kAvx512)) return KernelIsa::kAvx512;
  if (kernel_isa_supported(KernelIsa::kAvx2)) return KernelIsa::kAvx2;
  return KernelIsa::kScalar;
}

KernelIsa kernel_isa() { return active_isa(); }

void set_kernel_isa(KernelIsa isa) {
  if (isa == KernelIsa::kAuto) isa = kernel_isa_detect();
  GLX_CHECK_MSG(kernel_isa_supported(isa),
                "kernel ISA '" << kernel_isa_name(isa)
                               << "' is not supported on this host (best: '"
                               << kernel_isa_name(kernel_isa_detect())
                               << "')");
  g_active.store(static_cast<int>(isa), std::memory_order_relaxed);
}

const char* kernel_isa_name(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return "scalar";
    case KernelIsa::kAvx2:
      return "avx2";
    case KernelIsa::kAvx512:
      return "avx512";
    default:
      return "auto";
  }
}

KernelIsa parse_kernel_isa(const std::string& name) {
  if (name == "scalar") return KernelIsa::kScalar;
  if (name == "avx2") return KernelIsa::kAvx2;
  if (name == "avx512") return KernelIsa::kAvx512;
  if (name == "auto") return KernelIsa::kAuto;
  GLX_CHECK_MSG(false, "unknown kernel ISA '"
                           << name
                           << "' — valid values: scalar, avx2, avx512, auto");
  return KernelIsa::kAuto;  // unreachable
}

KernelIsa kernel_isa_from_env() {
  const char* e = std::getenv("GALACTOS_KERNEL_ISA");
  if (!e || !*e) return KernelIsa::kAuto;
  return parse_kernel_isa(e);
}

// --- Public kernels: validate once, dispatch to the active level. ----------

void StagedPairs::reserve(std::size_t n) {
  const std::size_t need = n + kStageSlack;
  if (w.size() >= need) return;
  bin.resize(need);
  ux.resize(need);
  uy.resize(need);
  uz.resize(need);
  w.resize(need);
}

template <typename Real>
void stage_pairs(const tree::NeighborBlock<Real>& block, Real px, Real py,
                 Real pz, Real r2max, std::int64_t self,
                 const RadialBins& bins, const Rotation* rot,
                 StagedPairs& out) {
  out.reserve(block.size());
  switch (active_isa()) {
#if defined(GALACTOS_KERNEL_HAVE_AVX512)
    case KernelIsa::kAvx512:
      isa_avx512::stage_pairs(block, px, py, pz, r2max, self, bins, rot, out);
      return;
#endif
#if defined(GALACTOS_KERNEL_HAVE_AVX2)
    case KernelIsa::kAvx2:
      isa_avx2::stage_pairs(block, px, py, pz, r2max, self, bins, rot, out);
      return;
#endif
    default:
      isa_scalar::stage_pairs(block, px, py, pz, r2max, self, bins, rot, out);
      return;
  }
}

template void stage_pairs<float>(const tree::NeighborBlock<float>&, float,
                                 float, float, float, std::int64_t,
                                 const RadialBins&, const Rotation*,
                                 StagedPairs&);
template void stage_pairs<double>(const tree::NeighborBlock<double>&, double,
                                  double, double, double, std::int64_t,
                                  const RadialBins&, const Rotation*,
                                  StagedPairs&);

void kernel_running_product(const double* ux, const double* uy,
                            const double* uz, const double* w, int count,
                            int lmax, double* acc, int ilp, bool overwrite,
                            double* sums, std::size_t sums_stride) {
  GLX_CHECK(count % kLanes == 0);
  GLX_CHECK(ilp == 1 || ilp == 2 || ilp == 4);
  GLX_CHECK(!sums || count > 0);
  switch (active_isa()) {
#if defined(GALACTOS_KERNEL_HAVE_AVX512)
    case KernelIsa::kAvx512:
      isa_avx512::kernel_running_product(ux, uy, uz, w, count, lmax, acc, ilp,
                                         overwrite, sums, sums_stride);
      return;
#endif
#if defined(GALACTOS_KERNEL_HAVE_AVX2)
    case KernelIsa::kAvx2:
      isa_avx2::kernel_running_product(ux, uy, uz, w, count, lmax, acc, ilp,
                                       overwrite, sums, sums_stride);
      return;
#endif
    default:
      isa_scalar::kernel_running_product(ux, uy, uz, w, count, lmax, acc, ilp,
                                         overwrite, sums, sums_stride);
      return;
  }
}

void alm_bins_as_lanes(const math::SphHarmTable& table, const double* sums,
                       std::size_t stride, const int* bins, int nb,
                       double* out_re, double* out_im,
                       const std::size_t* out_off,
                       const std::size_t* out_step) {
  GLX_CHECK(stride % kLanes == 0);
  switch (active_isa()) {
#if defined(GALACTOS_KERNEL_HAVE_AVX512)
    case KernelIsa::kAvx512:
      isa_avx512::alm_bins_as_lanes(table, sums, stride, bins, nb, out_re,
                                    out_im, out_off, out_step);
      return;
#endif
#if defined(GALACTOS_KERNEL_HAVE_AVX2)
    case KernelIsa::kAvx2:
      isa_avx2::alm_bins_as_lanes(table, sums, stride, bins, nb, out_re,
                                  out_im, out_off, out_step);
      return;
#endif
    default:
      isa_scalar::alm_bins_as_lanes(table, sums, stride, bins, nb, out_re,
                                    out_im, out_off, out_step);
      return;
  }
}

void zeta_batch_update(const double* wp, int np, const double* vr,
                       const double* vi, std::size_t vstride, int len,
                       int nblocks, double* zr, double* zi) {
  GLX_CHECK(np >= 0 && np <= kZetaMaxPrimaries);
  GLX_CHECK(len >= 1 && nblocks >= 1);
  switch (active_isa()) {
#if defined(GALACTOS_KERNEL_HAVE_AVX512)
    case KernelIsa::kAvx512:
      isa_avx512::zeta_batch_update(wp, np, vr, vi, vstride, len, nblocks, zr,
                                    zi);
      return;
#endif
#if defined(GALACTOS_KERNEL_HAVE_AVX2)
    case KernelIsa::kAvx2:
      isa_avx2::zeta_batch_update(wp, np, vr, vi, vstride, len, nblocks, zr,
                                  zi);
      return;
#endif
    default:
      isa_scalar::zeta_batch_update(wp, np, vr, vi, vstride, len, nblocks, zr,
                                    zi);
      return;
  }
}

void kernel_reference(const double* ux, const double* uy, const double* uz,
                      const double* w, int count, int lmax, double* sums) {
  for (int i = 0; i < count; ++i) {
    int t = 0;
    double q = w[i];
    for (int k = 0; k <= lmax; ++k) {
      sums[t++] += q;
      q *= uz[i];
    }
    double pr = w[i], pi = 0.0;  // w (x + iy)^m
    for (int m = 1; m <= lmax; ++m) {
      if (m == 1) {
        pi = pr * uy[i];
        pr = pr * ux[i];
      } else {
        const double r = pr * ux[i] - pi * uy[i];
        pi = pr * uy[i] + pi * ux[i];
        pr = r;
      }
      double qr = pr, qi = pi;
      for (int k = 0; m + k <= lmax; ++k) {
        sums[t++] += qr;
        sums[t++] += qi;
        qr *= uz[i];
        qi *= uz[i];
      }
    }
  }
}

MultipoleAccumulator::MultipoleAccumulator(const KernelConfig& cfg)
    : cfg_(cfg),
      n_slots_(math::basis_size(cfg.lmax)),
      sums_stride_(static_cast<std::size_t>(cfg.nbins + kLanes - 1) / kLanes *
                   kLanes) {
  GLX_CHECK(cfg.lmax >= 0 && cfg.lmax <= 16);
  GLX_CHECK(cfg.nbins >= 1);

  const std::size_t nb = static_cast<std::size_t>(cfg.nbins);
  acc_.reset(nb * n_slots_ * kLanes);
  bucket_.reset(nb * 4 * kBucketCapacity);
  sums_.reset(sums_stride_ * n_slots_);
  sums_.fill(0.0);
  fill_.assign(cfg.nbins, 0);
  touched_.assign(cfg.nbins, 0);
  first_flush_.assign(cfg.nbins, 0);
  touched_list_.reserve(cfg.nbins);
}

void MultipoleAccumulator::start_primary() {
  for (int bin : touched_list_) {
    fill_[bin] = 0;
    touched_[bin] = 0;
    first_flush_[bin] = 0;
  }
  touched_list_.clear();
}

void MultipoleAccumulator::push_staged(const StagedPairs& s) {
  for (std::size_t i = 0; i < s.count; ++i)
    push(s.bin[i], s.ux[i], s.uy[i], s.uz[i], s.w[i]);
}

void MultipoleAccumulator::touch(int bin) {
  touched_[bin] = 1;
  first_flush_[bin] = 1;  // first flush stores instead of accumulating
  touched_list_.push_back(bin);
}

void MultipoleAccumulator::flush(int bin, bool last) {
  constexpr int cap = kBucketCapacity;
  double* bu = bucket_.data() + static_cast<std::size_t>(bin) * 4 * cap;
  const int count = fill_[bin];
  if (count == 0) return;
  pairs_ += static_cast<std::uint64_t>(count);
  ++(count == cap ? counters_.full_flushes : counters_.partial_flushes);
  // Pad to a full lane group with zero-weight entries.
  const int padded = (count + kLanes - 1) / kLanes * kLanes;
  for (int i = count; i < padded; ++i) {
    bu[i] = 0.0;
    bu[cap + i] = 0.0;
    bu[2 * cap + i] = 0.0;
    bu[3 * cap + i] = 0.0;
  }
  double* a = acc_.data() + static_cast<std::size_t>(bin) * n_slots_ * kLanes;
  const bool overwrite = first_flush_[bin] != 0;
  first_flush_[bin] = 0;
  double* sums = last ? sums_.data() + bin : nullptr;
  kernel_running_product(bu, bu + cap, bu + 2 * cap, bu + 3 * cap, padded,
                         cfg_.lmax, a, kKernelIlp, overwrite, sums,
                         sums_stride_);
  fill_[bin] = 0;
}

void MultipoleAccumulator::finish_primary() {
  // The single lane reduction per (primary, bin) (paper §3.3.2), fused
  // into the last bucket's kernel call.
  for (int bin : touched_list_) flush(bin, true);
  counters_.epilogues += touched_list_.size();
}

}  // namespace galactos::core
