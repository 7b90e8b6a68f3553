// Internal: the per-ISA multipole kernel, a_lm and zeta entry points.
//
// Each namespace is defined by one translation unit that includes
// core/kernel_body.hpp under its own target flags (see CMakeLists.txt —
// kernel_scalar.cpp builds with the baseline flags, kernel_avx2.cpp with
// -mavx2 -mfma, kernel_avx512.cpp with -mavx512f; the AVX TUs exist only
// when the compiler accepts the flags, signalled by
// GALACTOS_KERNEL_HAVE_AVX2 / GALACTOS_KERNEL_HAVE_AVX512). core/kernel.cpp
// owns the runtime CPUID dispatch between them; nothing else should call
// these directly.
#pragma once

#include <cstddef>

namespace galactos::math {
class SphHarmTable;
}

namespace galactos::core {

#define GLX_KERNEL_ISA_DECL                                                  \
  void kernel_running_product(const double* ux, const double* uy,            \
                              const double* uz, const double* w, int count,  \
                              int lmax, double* acc, int ilp,                \
                              bool overwrite, double* sums,                  \
                              std::size_t sums_stride);                      \
  void kernel_zbuffered(const double* ux, const double* uy,                  \
                        const double* uz, const double* w, int count,        \
                        int lmax, double* acc, double* zscratch,             \
                        bool overwrite, double* sums,                        \
                        std::size_t sums_stride);                            \
  void alm_bins_as_lanes(const math::SphHarmTable& table, const double* sums, \
                         std::size_t stride, const int* bins, int nb,        \
                         double* out_re, double* out_im,                     \
                         const std::size_t* out_off,                         \
                         const std::size_t* out_step);                       \
  void zeta_batch_update(const double* wp, int np, const double* vr,         \
                         const double* vi, std::size_t vstride, int rows,    \
                         int cols, double* zr, double* zi, std::size_t ld);

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
