// The multipole bucket kernels, the bins-as-lanes a_lm assembly and the
// batched zeta update, compiled once per ISA level.
//
// This header is included by exactly one translation unit per ISA
// (kernel_scalar.cpp / kernel_avx2.cpp / kernel_avx512.cpp), each built with
// its own per-source target flags; the includer must define
// GALACTOS_KERNEL_NS to the ISA namespace (isa_scalar / isa_avx2 /
// isa_avx512) declared in core/kernel_isa.hpp. math/simd.hpp resolves DVec
// to the widest vector the TU's flags allow, so one generic body yields all
// three kernels — and core/kernel.cpp picks between them at runtime.
//
// Numerical contract (what the ISA equivalence tests pin down): every level
// performs the identical IEEE operation sequence per lane of the 8-wide
// accumulator block — lanes mix only in the fixed-tree final reduction,
// adds and muls are never fused or reassociated — so the per-ISA kernels
// are BITWISE identical, not merely close. Keep it that way: no dv_fmadd
// in this file (and the build passes -ffp-contract=off, so the compiler
// cannot fuse them either).
#ifndef GALACTOS_KERNEL_NS
#error "kernel_body.hpp must be included with GALACTOS_KERNEL_NS defined"
#endif

#include <algorithm>
#include <vector>

#include "core/kernel.hpp"
#include "math/simd.hpp"
#include "math/sph_table.hpp"

namespace galactos::core {
namespace GALACTOS_KERNEL_NS {

namespace {

using math::simd::DVec;
using math::simd::dv_load;
using math::simd::dv_store;

static_assert(kLanes % DVec::kWidth == 0,
              "lane accumulator block must be a whole number of vectors");
inline constexpr int kNB = kLanes / DVec::kWidth;  // vectors per lane block

// One monomial's 8 lanes summed with the tree ((0+1)+(2+3))+((4+5)+(6+7)):
// dv_hsum is that tree over an 8-wide vector and (0+1)+(2+3) over a 4-wide
// one, so two AVX2 halves add up to the same tree.
inline double lane_sum(const DVec (&lane)[kNB]) {
  static_assert(kNB == 1 || kNB == 2);
  if constexpr (kNB == 1)
    return math::simd::dv_hsum(lane[0]);
  else
    return math::simd::dv_hsum(lane[0]) + math::simd::dv_hsum(lane[1]);
}

// One 8-pair chunk through the monomial tree with running products.
// NV chunks are interleaved for ILP; their partial products are summed
// pairwise before the single accumulator update per monomial, keeping the
// dependency chain on acc short. With OVW the accumulator is stored, not
// accumulated (first contribution of a primary — saves the zeroing pass).
// With RED the lane values are reduced into sums[t * stride] instead of
// stored (the bin's last block of the primary).
template <int NV, bool OVW, bool RED>
void running_product_block(const double* __restrict ux,
                           const double* __restrict uy,
                           const double* __restrict uz,
                           const double* __restrict w, int lmax,
                           double* __restrict acc, double* __restrict sums,
                           std::size_t stride) {
  DVec vux[NV][kNB], vuy[NV][kNB], vuz[NV][kNB];
  DVec px[NV][kNB], py[NV][kNB], pz[NV][kNB];
  for (int v = 0; v < NV; ++v)
    for (int n = 0; n < kNB; ++n) {
      const int off = v * kLanes + n * DVec::kWidth;
      vux[v][n] = dv_load(ux + off);
      vuy[v][n] = dv_load(uy + off);
      vuz[v][n] = dv_load(uz + off);
      px[v][n] = dv_load(w + off);
    }

  int t = 0;
  for (int a = 0; a <= lmax; ++a) {
    for (int v = 0; v < NV; ++v)
      for (int n = 0; n < kNB; ++n) py[v][n] = px[v][n];
    for (int b = 0; a + b <= lmax; ++b) {
      for (int v = 0; v < NV; ++v)
        for (int n = 0; n < kNB; ++n) pz[v][n] = py[v][n];
      for (int c = 0; a + b + c <= lmax; ++c) {
        double* __restrict at = acc + static_cast<std::size_t>(t) * kLanes;
        DVec lane[kNB];
        for (int n = 0; n < kNB; ++n) {
          DVec s;
          if constexpr (NV == 1) {
            s = pz[0][n];
          } else if constexpr (NV == 2) {
            s = pz[0][n] + pz[1][n];
          } else {
            static_assert(NV == 4);
            s = (pz[0][n] + pz[1][n]) + (pz[2][n] + pz[3][n]);
          }
          if constexpr (OVW)
            lane[n] = s;
          else
            lane[n] = dv_load(at + n * DVec::kWidth) + s;
        }
        if constexpr (RED) {
          sums[static_cast<std::size_t>(t) * stride] = lane_sum(lane);
        } else {
          for (int n = 0; n < kNB; ++n)
            dv_store(at + n * DVec::kWidth, lane[n]);
        }
        for (int v = 0; v < NV; ++v)
          for (int n = 0; n < kNB; ++n) pz[v][n] = pz[v][n] * vuz[v][n];
        ++t;
      }
      for (int v = 0; v < NV; ++v)
        for (int n = 0; n < kNB; ++n) py[v][n] = py[v][n] * vuy[v][n];
    }
    for (int v = 0; v < NV; ++v)
      for (int n = 0; n < kNB; ++n) px[v][n] = px[v][n] * vux[v][n];
  }
}

template <int NV>
void dispatch_block(const double* ux, const double* uy, const double* uz,
                    const double* w, int lmax, double* acc, bool overwrite,
                    double* sums, std::size_t stride) {
  if (sums) {
    if (overwrite)
      running_product_block<NV, true, true>(ux, uy, uz, w, lmax, acc, sums,
                                            stride);
    else
      running_product_block<NV, false, true>(ux, uy, uz, w, lmax, acc, sums,
                                             stride);
  } else {
    if (overwrite)
      running_product_block<NV, true, false>(ux, uy, uz, w, lmax, acc,
                                             nullptr, 0);
    else
      running_product_block<NV, false, false>(ux, uy, uz, w, lmax, acc,
                                              nullptr, 0);
  }
}

// Bins-as-lanes a_lm (see alm_bins_as_lanes in core/kernel.hpp) for the NV
// vectors of bins starting at bin b0: each (l, m) pair of plane chains runs
// in registers over all NV * kWidth bins, interleaved term by term for ILP,
// then the listed bins in range are scattered out.
template <int NV>
void alm_vectors(const math::SphHarmTable& table, const double* sums,
                 std::size_t stride, int b0, const int* bins, int nb,
                 double* out_re, double* out_im, const std::size_t* out_off,
                 const std::size_t* out_step) {
  constexpr int kW = DVec::kWidth;
  const double* s0 = sums + b0;
  const int nlm = math::nlm(table.lmax());
  // The listed bins these vectors hold, as lane index and bin.
  int lane[NV * kW], bin[NV * kW], n = 0;
  for (int i = 0; i < nb; ++i)
    if (bins[i] >= b0 && bins[i] < b0 + NV * kW) {
      lane[n] = bins[i] - b0;
      bin[n++] = bins[i];
    }
  // One term: a = a + coeff * S[mono] over the NV vectors of bins.
  auto step = [&](DVec(&a)[NV], const math::SphHarmTable::PlaneTerm& t) {
    const DVec c = math::simd::dv_broadcast(t.coeff);
    const double* s = s0 + static_cast<std::size_t>(t.mono) * stride;
    for (int v = 0; v < NV; ++v) a[v] = a[v] + c * dv_load(s + v * kW);
  };
  for (int lm = 0; lm < nlm; ++lm) {
    const std::vector<math::SphHarmTable::PlaneTerm>& tr =
        table.plane_terms(lm, 0);
    const std::vector<math::SphHarmTable::PlaneTerm>& ti =
        table.plane_terms(lm, 1);
    DVec ar[NV], ai[NV];
    for (int v = 0; v < NV; ++v) ar[v] = ai[v] = math::simd::dv_zero();
    const std::size_t both = std::min(tr.size(), ti.size());
    for (std::size_t k = 0; k < both; ++k) {
      step(ar, tr[k]);
      step(ai, ti[k]);
    }
    for (std::size_t k = both; k < tr.size(); ++k) step(ar, tr[k]);
    for (std::size_t k = both; k < ti.size(); ++k) step(ai, ti[k]);
    double re[NV * kW], im[NV * kW];
    for (int v = 0; v < NV; ++v) {
      dv_store(re + v * kW, ar[v]);
      dv_store(im + v * kW, ai[v]);
    }
    double* ore = out_re + out_off[lm];
    double* oim = out_im + out_off[lm];
    const std::size_t ostep = out_step[lm];
    for (int i = 0; i < n; ++i) {
      const std::size_t o = static_cast<std::size_t>(bin[i]) * ostep;
      ore[o] = re[lane[i]];
      oim[o] = im[lane[i]];
    }
  }
}

// Batched zeta update (see zeta_batch_update in core/kernel.hpp). One
// NR x (NV vectors) tile of zeta stays in registers while the batch's
// primaries stream past in order; every entry sees the scalar reference
// sequence z + (tr*br + ti*bi), so the tile shape never changes a bit.
inline constexpr int kZetaTileRows = 4;

// tr/ti: the weighted row operands t = wp * v_p[row], [primary][tile row].
template <int NR, int NV>
void zeta_tile(const double (&tr)[kZetaMaxPrimaries][NR],
               const double (&ti)[kZetaMaxPrimaries][NR], int np,
               const double* __restrict vr, const double* __restrict vi,
               std::size_t vstride, int c0, double* __restrict zr,
               double* __restrict zi, std::size_t ld) {
  DVec accr[NR][NV], acci[NR][NV];
  for (int i = 0; i < NR; ++i)
    for (int v = 0; v < NV; ++v) {
      accr[i][v] = dv_load(zr + i * ld + v * DVec::kWidth);
      acci[i][v] = dv_load(zi + i * ld + v * DVec::kWidth);
    }
  for (int p = 0; p < np; ++p) {
    DVec br[NV], bi[NV];
    for (int v = 0; v < NV; ++v) {
      br[v] = dv_load(vr + p * vstride + c0 + v * DVec::kWidth);
      bi[v] = dv_load(vi + p * vstride + c0 + v * DVec::kWidth);
    }
    for (int i = 0; i < NR; ++i) {
      const DVec r = math::simd::dv_broadcast(tr[p][i]);
      const DVec m = math::simd::dv_broadcast(ti[p][i]);
      for (int v = 0; v < NV; ++v) {
        accr[i][v] = accr[i][v] + (r * br[v] + m * bi[v]);
        acci[i][v] = acci[i][v] + (m * br[v] - r * bi[v]);
      }
    }
  }
  for (int i = 0; i < NR; ++i)
    for (int v = 0; v < NV; ++v) {
      dv_store(zr + i * ld + v * DVec::kWidth, accr[i][v]);
      dv_store(zi + i * ld + v * DVec::kWidth, acci[i][v]);
    }
}

// Rows [r0, r0 + NR) of the block; zr/zi point at row r0.
template <int NR>
void zeta_rows(const double* wp, int np, const double* vr, const double* vi,
               std::size_t vstride, int r0, int cols, double* zr, double* zi,
               std::size_t ld) {
  constexpr int kW = DVec::kWidth;
  double tr[kZetaMaxPrimaries][NR], ti[kZetaMaxPrimaries][NR];
  for (int p = 0; p < np; ++p)
    for (int i = 0; i < NR; ++i) {
      tr[p][i] = wp[p] * vr[p * vstride + r0 + i];
      ti[p][i] = wp[p] * vi[p * vstride + r0 + i];
    }
  int c0 = 0;
  for (; c0 + 2 * kW <= cols; c0 += 2 * kW)
    zeta_tile<NR, 2>(tr, ti, np, vr, vi, vstride, c0, zr + c0, zi + c0, ld);
  const int rem = cols - c0;
  if (rem == 0) return;
  // Ragged tail: one tile on a zero-padded copy of the last columns. Its
  // operand loads run up to kW - 1 entries past `cols` (the caller's
  // kZetaOperandPad); those lanes are computed and dropped.
  double tail_r[NR][2 * kW] = {}, tail_i[NR][2 * kW] = {};
  for (int i = 0; i < NR; ++i)
    for (int c = 0; c < rem; ++c) {
      tail_r[i][c] = zr[i * ld + c0 + c];
      tail_i[i][c] = zi[i * ld + c0 + c];
    }
  if (rem > kW)
    zeta_tile<NR, 2>(tr, ti, np, vr, vi, vstride, c0, tail_r[0], tail_i[0],
                     2 * kW);
  else
    zeta_tile<NR, 1>(tr, ti, np, vr, vi, vstride, c0, tail_r[0], tail_i[0],
                     2 * kW);
  for (int i = 0; i < NR; ++i)
    for (int c = 0; c < rem; ++c) {
      zr[i * ld + c0 + c] = tail_r[i][c];
      zi[i * ld + c0 + c] = tail_i[i][c];
    }
}

}  // namespace

void kernel_running_product(const double* ux, const double* uy,
                            const double* uz, const double* w, int count,
                            int lmax, double* acc, int ilp, bool overwrite,
                            double* sums, std::size_t sums_stride) {
  int i = 0;
  const int step = ilp * kLanes;
  bool ovw = overwrite;
  for (; i + step <= count; i += step) {
    double* red = i + step == count ? sums : nullptr;  // the last block
    switch (ilp) {
      case 1:
        dispatch_block<1>(ux + i, uy + i, uz + i, w + i, lmax, acc, ovw, red,
                          sums_stride);
        break;
      case 2:
        dispatch_block<2>(ux + i, uy + i, uz + i, w + i, lmax, acc, ovw, red,
                          sums_stride);
        break;
      default:
        dispatch_block<4>(ux + i, uy + i, uz + i, w + i, lmax, acc, ovw, red,
                          sums_stride);
        break;
    }
    ovw = false;
  }
  for (; i < count; i += kLanes) {
    double* red = i + kLanes == count ? sums : nullptr;
    dispatch_block<1>(ux + i, uy + i, uz + i, w + i, lmax, acc, ovw, red,
                      sums_stride);
    ovw = false;
  }
}

void kernel_zbuffered(const double* ux, const double* uy, const double* uz,
                      const double* w, int count, int lmax, double* acc,
                      double* zscratch, bool overwrite, double* sums,
                      std::size_t sums_stride) {
  double* __restrict xyw = zscratch;         // w * ux^a * uy^b
  double* __restrict zz = zscratch + count;  // xyw * uz^c (running)

  // Invariants at loop heads:
  //   a-loop: xw_i = w_i * ux_i^a
  //   b-loop: xyw_i = xw_i * uy_i^b
  //   c-loop: zz_i  = xyw_i * uz_i^c
  static thread_local std::vector<double> xw_storage;
  if (static_cast<int>(xw_storage.size()) < count) xw_storage.resize(count);
  double* __restrict xw = xw_storage.data();

  for (int i = 0; i < count; i += DVec::kWidth)
    dv_store(xw + i, dv_load(w + i));

  int t = 0;
  for (int a = 0; a <= lmax; ++a) {
    for (int i = 0; i < count; i += DVec::kWidth)
      dv_store(xyw + i, dv_load(xw + i));
    for (int b = 0; a + b <= lmax; ++b) {
      for (int i = 0; i < count; i += DVec::kWidth)
        dv_store(zz + i, dv_load(xyw + i));
      for (int c = 0; a + b + c <= lmax; ++c) {
        double* __restrict at = acc + static_cast<std::size_t>(t) * kLanes;
        DVec lane[kNB];
        if (overwrite) {
          for (int n = 0; n < kNB; ++n) lane[n] = math::simd::dv_zero();
        } else {
          for (int n = 0; n < kNB; ++n)
            lane[n] = dv_load(at + n * DVec::kWidth);
        }
        for (int i = 0; i < count; i += kLanes) {
          for (int n = 0; n < kNB; ++n) {
            const int off = i + n * DVec::kWidth;
            lane[n] = lane[n] + dv_load(zz + off);
            dv_store(zz + off, dv_load(zz + off) * dv_load(uz + off));
          }
        }
        // The whole bucket is one block per monomial: reduce or store.
        if (sums)
          sums[static_cast<std::size_t>(t) * sums_stride] = lane_sum(lane);
        else
          for (int n = 0; n < kNB; ++n)
            dv_store(at + n * DVec::kWidth, lane[n]);
        ++t;
      }
      for (int i = 0; i < count; i += DVec::kWidth)
        dv_store(xyw + i, dv_load(xyw + i) * dv_load(uy + i));
    }
    for (int i = 0; i < count; i += DVec::kWidth)
      dv_store(xw + i, dv_load(xw + i) * dv_load(ux + i));
  }
}

void alm_bins_as_lanes(const math::SphHarmTable& table, const double* sums,
                       std::size_t stride, const int* bins, int nb,
                       double* out_re, double* out_im,
                       const std::size_t* out_off,
                       const std::size_t* out_step) {
  constexpr int kW = DVec::kWidth;
  constexpr int kMaxVectors = 4;  // 2 * kMaxVectors accumulator chains
  if (nb == 0) return;
  int top = 0;
  for (int i = 0; i < nb; ++i) top = std::max(top, bins[i]);
  GLX_DCHECK(static_cast<std::size_t>(top) < stride);
  const int nvec = top / kW + 1;  // only vectors holding a listed bin
  for (int v0 = 0; v0 < nvec; v0 += kMaxVectors) {
    const int b0 = v0 * kW;
    switch (std::min(kMaxVectors, nvec - v0)) {
      case 1:
        alm_vectors<1>(table, sums, stride, b0, bins, nb, out_re, out_im,
                       out_off, out_step);
        break;
      case 2:
        alm_vectors<2>(table, sums, stride, b0, bins, nb, out_re, out_im,
                       out_off, out_step);
        break;
      case 3:
        alm_vectors<3>(table, sums, stride, b0, bins, nb, out_re, out_im,
                       out_off, out_step);
        break;
      default:
        alm_vectors<4>(table, sums, stride, b0, bins, nb, out_re, out_im,
                       out_off, out_step);
        break;
    }
  }
}

void zeta_batch_update(const double* wp, int np, const double* vr,
                       const double* vi, std::size_t vstride, int rows,
                       int cols, double* zr, double* zi, std::size_t ld) {
  int r0 = 0;
  for (; r0 + kZetaTileRows <= rows; r0 += kZetaTileRows)
    zeta_rows<kZetaTileRows>(wp, np, vr, vi, vstride, r0, cols, zr + r0 * ld,
                             zi + r0 * ld, ld);
  double* zrt = zr + r0 * ld;
  double* zit = zi + r0 * ld;
  switch (rows - r0) {
    case 3:
      zeta_rows<3>(wp, np, vr, vi, vstride, r0, cols, zrt, zit, ld);
      break;
    case 2:
      zeta_rows<2>(wp, np, vr, vi, vstride, r0, cols, zrt, zit, ld);
      break;
    case 1:
      zeta_rows<1>(wp, np, vr, vi, vstride, r0, cols, zrt, zit, ld);
      break;
    default:
      break;
  }
}

}  // namespace GALACTOS_KERNEL_NS
}  // namespace galactos::core
