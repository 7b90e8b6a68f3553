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

// --- Public bucket kernels: validate once, dispatch to the active level. ----

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

void kernel_zbuffered(const double* ux, const double* uy, const double* uz,
                      const double* w, int count, int lmax, double* acc,
                      double* zscratch, bool overwrite, double* sums,
                      std::size_t sums_stride) {
  GLX_CHECK(count % kLanes == 0);
  GLX_CHECK(!sums || count > 0);
  switch (active_isa()) {
#if defined(GALACTOS_KERNEL_HAVE_AVX512)
    case KernelIsa::kAvx512:
      isa_avx512::kernel_zbuffered(ux, uy, uz, w, count, lmax, acc, zscratch,
                                   overwrite, sums, sums_stride);
      return;
#endif
#if defined(GALACTOS_KERNEL_HAVE_AVX2)
    case KernelIsa::kAvx2:
      isa_avx2::kernel_zbuffered(ux, uy, uz, w, count, lmax, acc, zscratch,
                                 overwrite, sums, sums_stride);
      return;
#endif
    default:
      isa_scalar::kernel_zbuffered(ux, uy, uz, w, count, lmax, acc, zscratch,
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
                       const double* vi, std::size_t vstride, int rows,
                       int cols, double* zr, double* zi, std::size_t ld) {
  GLX_CHECK(np >= 0 && np <= kZetaMaxPrimaries);
  switch (active_isa()) {
#if defined(GALACTOS_KERNEL_HAVE_AVX512)
    case KernelIsa::kAvx512:
      isa_avx512::zeta_batch_update(wp, np, vr, vi, vstride, rows, cols, zr,
                                    zi, ld);
      return;
#endif
#if defined(GALACTOS_KERNEL_HAVE_AVX2)
    case KernelIsa::kAvx2:
      isa_avx2::zeta_batch_update(wp, np, vr, vi, vstride, rows, cols, zr, zi,
                                  ld);
      return;
#endif
    default:
      isa_scalar::zeta_batch_update(wp, np, vr, vi, vstride, rows, cols, zr,
                                    zi, ld);
      return;
  }
}

void kernel_reference(const double* ux, const double* uy, const double* uz,
                      const double* w, int count, int lmax, double* sums) {
  for (int i = 0; i < count; ++i) {
    double pa = w[i];
    int t = 0;
    for (int a = 0; a <= lmax; ++a) {
      double pb = pa;
      for (int b = 0; a + b <= lmax; ++b) {
        double pc = pb;
        for (int c = 0; a + b + c <= lmax; ++c) {
          sums[t++] += pc;
          pc *= uz[i];
        }
        pb *= uy[i];
      }
      pa *= ux[i];
    }
  }
}

MultipoleAccumulator::MultipoleAccumulator(const KernelConfig& cfg)
    : cfg_(cfg),
      n_mono_(math::monomial_count(cfg.lmax)),
      sums_stride_(static_cast<std::size_t>(cfg.nbins + kLanes - 1) / kLanes *
                   kLanes) {
  GLX_CHECK(cfg.lmax >= 0 && cfg.lmax <= 16);
  GLX_CHECK(cfg.nbins >= 1);
  GLX_CHECK_MSG(cfg.bucket_capacity >= kLanes &&
                    cfg.bucket_capacity % kLanes == 0,
                "bucket capacity must be a positive multiple of " << kLanes);
  GLX_CHECK(cfg.ilp == 1 || cfg.ilp == 2 || cfg.ilp == 4);

  const std::size_t nb = static_cast<std::size_t>(cfg.nbins);
  acc_.reset(nb * n_mono_ * kLanes);
  bucket_.reset(nb * 4 * cfg.bucket_capacity);
  sums_.reset(sums_stride_ * n_mono_);
  sums_.fill(0.0);
  zscratch_.reset(2 * static_cast<std::size_t>(cfg.bucket_capacity));
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

void MultipoleAccumulator::touch(int bin) {
  touched_[bin] = 1;
  first_flush_[bin] = 1;  // first flush stores instead of accumulating
  touched_list_.push_back(bin);
}

void MultipoleAccumulator::flush(int bin, bool last) {
  const int cap = cfg_.bucket_capacity;
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
  double* a = acc_.data() + static_cast<std::size_t>(bin) * n_mono_ * kLanes;
  const bool overwrite = first_flush_[bin] != 0;
  first_flush_[bin] = 0;
  double* sums = last ? sums_.data() + bin : nullptr;
  if (cfg_.scheme == KernelScheme::kRunningProduct) {
    kernel_running_product(bu, bu + cap, bu + 2 * cap, bu + 3 * cap, padded,
                           cfg_.lmax, a, cfg_.ilp, overwrite, sums,
                           sums_stride_);
  } else {
    kernel_zbuffered(bu, bu + cap, bu + 2 * cap, bu + 3 * cap, padded,
                     cfg_.lmax, a, zscratch_.data(), overwrite, sums,
                     sums_stride_);
  }
  fill_[bin] = 0;
}

void MultipoleAccumulator::finish_primary() {
  // The single lane reduction per (primary, bin) (paper §3.3.2), fused
  // into the last bucket's kernel call.
  for (int bin : touched_list_) flush(bin, true);
  counters_.epilogues += touched_list_.size();
}

}  // namespace galactos::core
