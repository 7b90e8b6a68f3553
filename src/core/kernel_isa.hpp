// Internal: the per-ISA pair stage, multipole kernel, a_lm and zeta entry
// points.
//
// Each namespace is defined by one translation unit that includes
// core/kernel_body.hpp under its own target flags (see CMakeLists.txt —
// kernel_scalar.cpp builds with the baseline flags, kernel_avx2.cpp with
// -mavx2 -mfma, kernel_avx512.cpp with -mavx512f; the AVX TUs exist only
// when the compiler accepts the flags, signalled by
// GALACTOS_KERNEL_HAVE_AVX2 / GALACTOS_KERNEL_HAVE_AVX512). core/kernel.cpp
// owns the runtime CPUID dispatch between them; nothing else should call
// these directly.
//
// The scalar level is a fallback and test reference, not a tuned level:
// `auto` picks it only on x86-64 without AVX2+FMA or in a non-x86 build
// (avx512 on the AVX-512 reference host). Its dv_fused_madd is std::fma, a
// libm call at the x86-64 baseline flags, so BM_ZetaBatchUpdate runs 8x
// slower than the unfused update it replaced (lmax 10: 2.2 ms per batch,
// 54 us at avx2) — the price of one FMA kind with the same bits on every
// level. CI's kernel-isa job forces scalar and avx2 (its third leg runs
// auto); KernelIsaEquivalence holds every level bitwise to scalar.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/kernel.hpp"

namespace galactos::core {

#define GLX_KERNEL_ISA_DECL                                                  \
  template <typename Real>                                                   \
  void stage_pairs(const tree::NeighborBlock<Real>& block, Real px, Real py, \
                   Real pz, Real r2max, std::int64_t self,                   \
                   const RadialBins& bins, const Rotation* rot,              \
                   StagedPairs& out);                                        \
  void kernel_running_product(const double* ux, const double* uy,            \
                              const double* uz, const double* w, int count,  \
                              int lmax, double* acc, int ilp,                \
                              bool overwrite, double* sums,                  \
                              std::size_t sums_stride);                      \
  void alm_bins_as_lanes(const math::SphHarmTable& table, const double* sums, \
                         std::size_t stride, const int* bins, int nb,        \
                         double* out_re, double* out_im,                     \
                         const std::size_t* out_off,                         \
                         const std::size_t* out_step);                       \
  void zeta_batch_update(const double* wp, int np, const double* vr,         \
                         const double* vi, std::size_t vstride, int len,     \
                         int nblocks, double* zr, double* zi);

namespace isa_scalar {
GLX_KERNEL_ISA_DECL
}
#if defined(GALACTOS_KERNEL_HAVE_AVX2)
namespace isa_avx2 {
GLX_KERNEL_ISA_DECL
}
#endif
#if defined(GALACTOS_KERNEL_HAVE_AVX512)
namespace isa_avx512 {
GLX_KERNEL_ISA_DECL
}
#endif

#undef GLX_KERNEL_ISA_DECL

}  // namespace galactos::core
