// Portable double-precision SIMD wrapper — one vector type per ISA level.
//
// DVec wraps the widest vector of doubles the *current translation unit* is
// compiled for: __m512d under AVX-512, __m256d under AVX2+FMA, and a plain
// 8-double array (autovectorized like the rest of the baseline build)
// otherwise. The multipole kernel body (core/kernel_body.hpp) is compiled
// once per level into separate TUs with per-source target flags, so the same
// generic code yields the scalar, AVX2 and AVX-512 kernels that
// core/kernel.cpp dispatches between at runtime.
//
// The arithmetic set is intentionally tiny: lane-wise load/store, add, sub,
// mul, div, explicit FMA, and a horizontal sum. add/mul are exact IEEE per
// lane on every level, which is what lets the per-ISA kernels stay bitwise
// identical — each lane of the 8-wide accumulator block sees the same
// operation sequence no matter how many lanes a hardware vector holds. The
// horizontal sum dv_hsum uses a fixed pairwise tree per width, so the two
// AVX2 halves of an 8-lane block, summed, give the 8-wide tree bit for
// bit. fmadd/fmsub fuse on AVX2/AVX-512 and fall back to mul-then-add on
// the generic level; use them only where cross-level bitwise identity is
// NOT required (the self-pair a_lm accumulation, the batched Y_lm
// recurrence).
#pragma once

#include <cstddef>

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

namespace galactos::math::simd {

// Every branch below lives in its own `inline namespace`: the three DVec
// ABIs (64-byte struct / __m256d / __m512d) share one spelling across TUs
// compiled with different target flags, and without distinct mangled names
// the linker would be free to resolve a call in an AVX2 TU to the weak
// out-of-line generic-ABI operator emitted by an -O0 TU (a real SEGV under
// the Debug/ASan build, not a theoretical ODR violation).

#if defined(__AVX512F__)
inline namespace abi_avx512 {

// ISA level this TU is compiled for: 0 generic, 2 AVX2+FMA, 3 AVX-512.
inline constexpr int kLevel = 3;

struct DVec {
  static constexpr int kWidth = 8;
  __m512d v;
};

inline DVec dv_load(const double* p) { return {_mm512_loadu_pd(p)}; }
inline void dv_store(double* p, DVec a) { _mm512_storeu_pd(p, a.v); }
inline DVec dv_broadcast(double x) { return {_mm512_set1_pd(x)}; }
inline DVec dv_zero() { return {_mm512_setzero_pd()}; }
inline DVec operator+(DVec a, DVec b) { return {_mm512_add_pd(a.v, b.v)}; }
inline DVec operator-(DVec a, DVec b) { return {_mm512_sub_pd(a.v, b.v)}; }
inline DVec operator*(DVec a, DVec b) { return {_mm512_mul_pd(a.v, b.v)}; }
inline DVec operator/(DVec a, DVec b) { return {_mm512_div_pd(a.v, b.v)}; }
// ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)): pairs within 128-bit lanes, then
// pairs of pairs within each 256-bit half, then the two halves. (The
// all-ones masked forms with the operand as pass-through are the plain
// shuffles; GCC's unmasked ones trip -Wmaybe-uninitialized.)
inline double dv_hsum(DVec a) {
  const __m512d p =
      _mm512_add_pd(a.v, _mm512_mask_permute_pd(a.v, 0xFF, a.v, 0x55));
  const __m512d q =
      _mm512_add_pd(p, _mm512_mask_permutex_pd(p, 0xFF, p, 0x4E));
  const __m512d h = _mm512_mask_shuffle_f64x2(q, 0xFF, q, q, 0x02);
  return _mm512_cvtsd_f64(q) + _mm512_cvtsd_f64(h);
}
// a*b + c
inline DVec dv_fmadd(DVec a, DVec b, DVec c) {
  return {_mm512_fmadd_pd(a.v, b.v, c.v)};
}
// a*b - c
inline DVec dv_fmsub(DVec a, DVec b, DVec c) {
  return {_mm512_fmsub_pd(a.v, b.v, c.v)};
}
// c - a*b
inline DVec dv_fnmadd(DVec a, DVec b, DVec c) {
  return {_mm512_fnmadd_pd(a.v, b.v, c.v)};
}

}  // namespace abi_avx512

#elif defined(__AVX2__) && defined(__FMA__)
inline namespace abi_avx2 {

inline constexpr int kLevel = 2;

struct DVec {
  static constexpr int kWidth = 4;
  __m256d v;
};

inline DVec dv_load(const double* p) { return {_mm256_loadu_pd(p)}; }
inline void dv_store(double* p, DVec a) { _mm256_storeu_pd(p, a.v); }
inline DVec dv_broadcast(double x) { return {_mm256_set1_pd(x)}; }
inline DVec dv_zero() { return {_mm256_setzero_pd()}; }
inline DVec operator+(DVec a, DVec b) { return {_mm256_add_pd(a.v, b.v)}; }
inline DVec operator-(DVec a, DVec b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline DVec operator*(DVec a, DVec b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline DVec operator/(DVec a, DVec b) { return {_mm256_div_pd(a.v, b.v)}; }
// (a0+a1)+(a2+a3)
inline double dv_hsum(DVec a) {
  const __m256d p = _mm256_add_pd(a.v, _mm256_permute_pd(a.v, 0x5));
  return _mm_cvtsd_f64(_mm_add_sd(_mm256_castpd256_pd128(p),
                                  _mm256_extractf128_pd(p, 1)));
}
inline DVec dv_fmadd(DVec a, DVec b, DVec c) {
  return {_mm256_fmadd_pd(a.v, b.v, c.v)};
}
inline DVec dv_fmsub(DVec a, DVec b, DVec c) {
  return {_mm256_fmsub_pd(a.v, b.v, c.v)};
}
inline DVec dv_fnmadd(DVec a, DVec b, DVec c) {
  return {_mm256_fnmadd_pd(a.v, b.v, c.v)};
}

}  // namespace abi_avx2

#else  // generic: an 8-double block the baseline autovectorizer handles
inline namespace abi_generic {

inline constexpr int kLevel = 0;

struct DVec {
  static constexpr int kWidth = 8;
  double v[8];
};

inline DVec dv_load(const double* p) {
  DVec r;
#pragma omp simd
  for (int i = 0; i < DVec::kWidth; ++i) r.v[i] = p[i];
  return r;
}
inline void dv_store(double* p, DVec a) {
#pragma omp simd
  for (int i = 0; i < DVec::kWidth; ++i) p[i] = a.v[i];
}
inline DVec dv_broadcast(double x) {
  DVec r;
#pragma omp simd
  for (int i = 0; i < DVec::kWidth; ++i) r.v[i] = x;
  return r;
}
inline DVec dv_zero() { return dv_broadcast(0.0); }

#define GLX_DVEC_LANEWISE(name, expr)                        \
  inline DVec name(DVec a, DVec b) {                         \
    DVec r;                                                  \
    _Pragma("omp simd") for (int i = 0; i < DVec::kWidth;    \
                             ++i) r.v[i] = (expr);           \
    return r;                                                \
  }
GLX_DVEC_LANEWISE(operator+, a.v[i] + b.v[i])
GLX_DVEC_LANEWISE(operator-, a.v[i] - b.v[i])
GLX_DVEC_LANEWISE(operator*, a.v[i] * b.v[i])
GLX_DVEC_LANEWISE(operator/, a.v[i] / b.v[i])
#undef GLX_DVEC_LANEWISE

// ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)), the AVX-512 tree.
inline double dv_hsum(DVec a) {
  const double* v = a.v;
  return ((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7]));
}

inline DVec dv_fmadd(DVec a, DVec b, DVec c) { return a * b + c; }
inline DVec dv_fmsub(DVec a, DVec b, DVec c) { return a * b - c; }
inline DVec dv_fnmadd(DVec a, DVec b, DVec c) { return c - a * b; }

}  // namespace abi_generic

#endif

}  // namespace galactos::math::simd
