// The pair stage, the multipole bucket kernels, the bins-as-lanes a_lm
// assembly and the batched zeta update, compiled once per ISA level.
//
// The bucket kernel accumulates the minimal basis T[m,k] = w (x+iy)^m z^k
// (math/sph_table.hpp, (lmax+1)^2 slots): per 8-pair chunk seven vectors
// live across the loop — x, y, z, the complex running product p and its
// z-chain q — so `ilp` 4 holds 28 of AVX-512's 32 registers.
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
// are BITWISE identical, not merely close. Keep it that way: no mul feeding
// an add is ever fused (the build passes -ffp-contract=off, so the compiler
// cannot fuse them either). The one exception is the zeta update, which
// fuses on purpose through dv_fused_madd / dv_fused_nmadd, math/simd.hpp's
// only FMA: it rounds once on every level (std::fma at the scalar one), and
// each entry runs a fixed fma sequence per primary, so it stays bitwise too. The pair stage keeps
// the same contract per candidate: its SIMD levels are written with
// intrinsics (AVX-512F only, no VL: 8 candidates per vector; AVX2: 4) and
// the scalar level is the plain per-candidate loop they reproduce.
#ifndef GALACTOS_KERNEL_NS
#error "kernel_body.hpp must be included with GALACTOS_KERNEL_NS defined"
#endif

#include <algorithm>
#include <cmath>
#include <type_traits>
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

// One slot's 8 lanes summed with the tree ((0+1)+(2+3))+((4+5)+(6+7)):
// dv_hsum is that tree over an 8-wide vector and (0+1)+(2+3) over a 4-wide
// one, so two AVX2 halves add up to the same tree.
inline double lane_sum(const DVec (&lane)[kNB]) {
  static_assert(kNB == 1 || kNB == 2);
  if constexpr (kNB == 1)
    return math::simd::dv_hsum(lane[0]);
  else
    return math::simd::dv_hsum(lane[0]) + math::simd::dv_hsum(lane[1]);
}

// Slot t's contribution of NV interleaved chunks: their values q are summed
// pairwise, keeping the dependency chain on acc short, then added to the
// lane block. With OVW the lane block is stored, not accumulated (first
// contribution of a primary — saves the zeroing pass). With RED the lane
// values are reduced into sums[t * stride] instead of stored (the bin's
// last block of the primary).
template <int NV, bool OVW, bool RED>
inline void emit_slot(const DVec (&q)[NV][kNB], int t, double* __restrict acc,
                      double* __restrict sums, std::size_t stride) {
  double* __restrict at = acc + static_cast<std::size_t>(t) * kLanes;
  DVec lane[kNB];
  for (int n = 0; n < kNB; ++n) {
    DVec s;
    if constexpr (NV == 1) {
      s = q[0][n];
    } else if constexpr (NV == 2) {
      s = q[0][n] + q[1][n];
    } else {
      static_assert(NV == 4);
      s = (q[0][n] + q[1][n]) + (q[2][n] + q[3][n]);
    }
    if constexpr (OVW)
      lane[n] = s;
    else
      lane[n] = dv_load(at + n * DVec::kWidth) + s;
  }
  if constexpr (RED) {
    sums[static_cast<std::size_t>(t) * stride] = lane_sum(lane);
  } else {
    for (int n = 0; n < kNB; ++n) dv_store(at + n * DVec::kWidth, lane[n]);
  }
}

// One 8-pair chunk (NV interleaved for ILP) through the minimal basis
// T[m,k] = w (x+iy)^m z^k in slot order (math::basis_slot): the real
// z-chain of m = 0, then per m the complex running product
// p <- p (x+iy) and its z-chain q <- q z, Re and Im slot by slot.
template <int NV, bool OVW, bool RED>
void basis_block(const double* __restrict ux, const double* __restrict uy,
                 const double* __restrict uz, const double* __restrict w,
                 int lmax, double* __restrict acc, double* __restrict sums,
                 std::size_t stride) {
  DVec vx[NV][kNB], vy[NV][kNB], vz[NV][kNB];
  DVec pr[NV][kNB], pi[NV][kNB];  // w (x+iy)^m
  DVec qr[NV][kNB], qi[NV][kNB];  // w (x+iy)^m z^k
  for (int v = 0; v < NV; ++v)
    for (int n = 0; n < kNB; ++n) {
      const int off = v * kLanes + n * DVec::kWidth;
      vx[v][n] = dv_load(ux + off);
      vy[v][n] = dv_load(uy + off);
      vz[v][n] = dv_load(uz + off);
      pr[v][n] = qr[v][n] = dv_load(w + off);
    }

  int t = 0;
  for (int k = 0;; ++k) {
    emit_slot<NV, OVW, RED>(qr, t++, acc, sums, stride);
    if (k == lmax) break;
    for (int v = 0; v < NV; ++v)
      for (int n = 0; n < kNB; ++n) qr[v][n] = qr[v][n] * vz[v][n];
  }
  for (int m = 1; m <= lmax; ++m) {
    for (int v = 0; v < NV; ++v)
      for (int n = 0; n < kNB; ++n) {
        if (m == 1) {  // p = w is real
          pi[v][n] = pr[v][n] * vy[v][n];
          pr[v][n] = pr[v][n] * vx[v][n];
        } else {
          const DVec r = pr[v][n] * vx[v][n] - pi[v][n] * vy[v][n];
          pi[v][n] = pr[v][n] * vy[v][n] + pi[v][n] * vx[v][n];
          pr[v][n] = r;
        }
        qr[v][n] = pr[v][n];
        qi[v][n] = pi[v][n];
      }
    for (int k = 0;; ++k) {
      emit_slot<NV, OVW, RED>(qr, t++, acc, sums, stride);
      emit_slot<NV, OVW, RED>(qi, t++, acc, sums, stride);
      if (m + k == lmax) break;
      for (int v = 0; v < NV; ++v)
        for (int n = 0; n < kNB; ++n) {
          qr[v][n] = qr[v][n] * vz[v][n];
          qi[v][n] = qi[v][n] * vz[v][n];
        }
    }
  }
}

template <int NV>
void dispatch_block(const double* ux, const double* uy, const double* uz,
                    const double* w, int lmax, double* acc, bool overwrite,
                    double* sums, std::size_t stride) {
  if (sums) {
    if (overwrite)
      basis_block<NV, true, true>(ux, uy, uz, w, lmax, acc, sums, stride);
    else
      basis_block<NV, false, true>(ux, uy, uz, w, lmax, acc, sums, stride);
  } else {
    if (overwrite)
      basis_block<NV, true, false>(ux, uy, uz, w, lmax, acc, nullptr, 0);
    else
      basis_block<NV, false, false>(ux, uy, uz, w, lmax, acc, nullptr, 0);
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
  // One term: a = a + coeff * T[slot] over the NV vectors of bins.
  auto step = [&](DVec(&a)[NV], const math::SphHarmTable::PlaneTerm& t) {
    const DVec c = math::simd::dv_broadcast(t.coeff);
    const double* s = s0 + static_cast<std::size_t>(t.slot) * stride;
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

// Batched zeta update (see zeta_batch_update in core/kernel.hpp). The rows
// of the packed triangle are cut into groups of kZetaTileRows consecutive
// rows, across block boundaries; a group walks its columns from its first
// row's start in NR x NV-vector register tiles that stay loaded while the
// batch's primaries stream past in order. Every entry sees the contract's
// FMA sequence, so the tiling never changes a bit. kImag false: the
// real-only update, the imaginary plane neither loaded nor stored.
inline constexpr int kZetaTileRows = 4;
// Column vectors of the main tile: 4 x 2 holds 16 accumulators, the two
// pairs of operand vectors and two broadcasts in AVX-512's 32 registers;
// AVX2's 16 take 4 x 1.
inline constexpr int kZetaTileVecs = math::simd::kLevel == 2 ? 1 : 2;

// Rows whose weighted operands t = wp * v_p[r] are formed at once, as
// [primary][row] planes on the stack.
inline constexpr int kZetaChunkRows = 64;
static_assert(kZetaChunkRows % kZetaTileRows == 0,
              "only the last chunk may end in a short row group");

// One row group: its weighted row operands (row i of primary p at
// tr[p * kZetaChunkRows + i]) and, per row, its first column and the offset
// of its column c at off + c in the packed planes.
template <int NR>
struct ZetaRows {
  const double* tr;
  const double* ti;
  int start[NR];
  std::size_t off[NR];
};

// Columns [c0, c0 + NV * kWidth) of the group; with kMask only the zeta
// lanes of columns below n and at or past each row's start are read and
// written (the operand loads may run into the caller's kZetaOperandPad).
template <int NR, int NV, bool kImag, bool kMask>
void zeta_tile(const ZetaRows<NR>& g, int np, const double* __restrict vr,
               const double* __restrict vi, std::size_t vstride, int c0,
               int n, double* __restrict zr, double* __restrict zi) {
  constexpr int kW = DVec::kWidth;
  using math::simd::dv_fused_madd;
  using math::simd::dv_fused_nmadd;
  // Lane range [lo_of, hi_of) of row i in vector v.
  const auto lo_of = [&](int i, int v) {
    return std::max(c0, g.start[i]) - c0 - v * kW;
  };
  const auto hi_of = [&](int v) { return n - c0 - v * kW; };
  DVec accr[NR][NV], acci[NR][NV];
  for (int i = 0; i < NR; ++i)
    for (int v = 0; v < NV; ++v) {
      const std::size_t at = g.off[i] + c0 + v * kW;
      if constexpr (kMask) {
        accr[i][v] = math::simd::dv_load_lanes(zr + at, lo_of(i, v), hi_of(v));
        if constexpr (kImag)
          acci[i][v] =
              math::simd::dv_load_lanes(zi + at, lo_of(i, v), hi_of(v));
      } else {
        accr[i][v] = dv_load(zr + at);
        if constexpr (kImag) acci[i][v] = dv_load(zi + at);
      }
    }
  for (int p = 0; p < np; ++p) {
    const double* pr = vr + p * vstride + c0;
    const double* pi = kImag ? vi + p * vstride + c0 : nullptr;
    DVec br[NV], bi[NV];
    for (int v = 0; v < NV; ++v) {
      br[v] = dv_load(pr + v * kW);
      if constexpr (kImag) bi[v] = dv_load(pi + v * kW);
    }
    for (int i = 0; i < NR; ++i) {
      const DVec r = math::simd::dv_broadcast(g.tr[p * kZetaChunkRows + i]);
      if constexpr (kImag) {
        const DVec m =
            math::simd::dv_broadcast(g.ti[p * kZetaChunkRows + i]);
        for (int v = 0; v < NV; ++v) {
          accr[i][v] = dv_fused_madd(r, br[v], accr[i][v]);
          acci[i][v] = dv_fused_madd(m, br[v], acci[i][v]);
          accr[i][v] = dv_fused_madd(m, bi[v], accr[i][v]);
          acci[i][v] = dv_fused_nmadd(r, bi[v], acci[i][v]);
        }
      } else {
        for (int v = 0; v < NV; ++v)
          accr[i][v] = dv_fused_madd(r, br[v], accr[i][v]);
      }
    }
  }
  for (int i = 0; i < NR; ++i)
    for (int v = 0; v < NV; ++v) {
      const std::size_t at = g.off[i] + c0 + v * kW;
      if constexpr (kMask) {
        math::simd::dv_store_lanes(zr + at, accr[i][v], lo_of(i, v),
                                   hi_of(v));
        if constexpr (kImag)
          math::simd::dv_store_lanes(zi + at, acci[i][v], lo_of(i, v),
                                     hi_of(v));
      } else {
        dv_store(zr + at, accr[i][v]);
        if constexpr (kImag) dv_store(zi + at, acci[i][v]);
      }
    }
}

// The next row of the packed triangle: its block b, its index k in the
// block, and the offset of its first entry.
struct ZetaRowCursor {
  int b = 0, k = 0;
  std::size_t row = 0;
};

// Rows [r0, r0 + NR) of the len-blocked triangle over n = nblocks * len
// columns, the cursor at row r0 (advanced past them). Main tiles while
// they fit, then single vectors; a tile is masked where it crosses a row's
// start (the group spans a block boundary) or the end of the columns.
template <int NR, bool kImag>
void zeta_rows(const double* tr, const double* ti, int np, const double* vr,
               const double* vi, std::size_t vstride, int len, int nblocks,
               int r0, ZetaRowCursor& cur, double* zr, double* zi) {
  constexpr int kW = DVec::kWidth;
  constexpr int kMainW = kZetaTileVecs * kW;
  const int n = nblocks * len;
  ZetaRows<NR> g{tr, ti, {}, {}};
  for (int i = 0; i < NR; ++i) {
    g.start[i] = cur.b * len;
    g.off[i] = cur.row - g.start[i];  // the row's offset is >= its start
    cur.row += n - g.start[i];
    if (++cur.k == len) {
      cur.k = 0;
      ++cur.b;
    }
  }
  // The diagonal entries (r, r) keep their imaginary part (contract).
  double diag[NR] = {};
  if constexpr (kImag)
    for (int i = 0; i < NR; ++i) diag[i] = zi[g.off[i] + r0 + i];
  int c = g.start[0];
  for (; c + kMainW <= n; c += kMainW) {
    if (c < g.start[NR - 1])
      zeta_tile<NR, kZetaTileVecs, kImag, true>(g, np, vr, vi, vstride, c, n,
                                                 zr, zi);
    else
      zeta_tile<NR, kZetaTileVecs, kImag, false>(g, np, vr, vi, vstride, c, n,
                                                  zr, zi);
  }
  for (; c < n; c += kW) {
    if (c < g.start[NR - 1] || c + kW > n)
      zeta_tile<NR, 1, kImag, true>(g, np, vr, vi, vstride, c, n, zr, zi);
    else
      zeta_tile<NR, 1, kImag, false>(g, np, vr, vi, vstride, c, n, zr, zi);
  }
  if constexpr (kImag)
    for (int i = 0; i < NR; ++i) zi[g.off[i] + r0 + i] = diag[i];
}

// The whole block: per chunk of rows their weighted operands, then the
// row groups.
template <bool kImag>
void zeta_block(const double* wp, int np, const double* vr, const double* vi,
                std::size_t vstride, int len, int nblocks, double* zr,
                double* zi) {
  const int n = nblocks * len;
  ZetaRowCursor cur;
  alignas(64) double tr[kZetaMaxPrimaries * kZetaChunkRows];
  alignas(64) double ti[kImag ? kZetaMaxPrimaries * kZetaChunkRows : 1];
  for (int c0 = 0; c0 < n; c0 += kZetaChunkRows) {
    const int c1 = std::min(n, c0 + kZetaChunkRows);
    for (int p = 0; p < np; ++p)
      for (int r = c0; r < c1; ++r) {
        tr[p * kZetaChunkRows + r - c0] = wp[p] * vr[p * vstride + r];
        if constexpr (kImag)
          ti[p * kZetaChunkRows + r - c0] = wp[p] * vi[p * vstride + r];
      }
    int r0 = c0;
    const auto rows = [&](auto nr) {
      zeta_rows<decltype(nr)::value, kImag>(
          tr + (r0 - c0), kImag ? ti + (r0 - c0) : nullptr, np, vr, vi,
          vstride, len, nblocks, r0, cur, zr, zi);
      r0 += decltype(nr)::value;
    };
    while (r0 + kZetaTileRows <= c1)
      rows(std::integral_constant<int, kZetaTileRows>{});
    switch (c1 - r0) {  // only the last chunk has a remainder
      case 3:
        rows(std::integral_constant<int, 3>{});
        break;
      case 2:
        rows(std::integral_constant<int, 2>{});
        break;
      case 1:
        rows(std::integral_constant<int, 1>{});
        break;
      default:
        break;
    }
  }
}

// --- Pair stage (see stage_pairs in core/kernel.hpp) ----------------------

// Scalar level: the per-candidate loop itself. Compaction is branchless
// (always store, advance by the accept flag): a rejected candidate's junk
// is overwritten by the next one or hidden by `count`.
template <typename Real>
std::size_t stage_block(const tree::NeighborBlock<Real>& block, Real px,
                        Real py, Real pz, Real r2max, std::int64_t self,
                        const RadialBins& bins, const Rotation* rot,
                        StagedPairs& out) {
  const std::size_t n = block.size();
  const Real* __restrict bx = block.x.data();
  const Real* __restrict by = block.y.data();
  const Real* __restrict bz = block.z.data();
  const double* __restrict bw = block.w.data();
  const std::int64_t* __restrict bi = block.idx.data();
  int* __restrict ob = out.bin.data();
  double* __restrict ox = out.ux.data();
  double* __restrict oy = out.uy.data();
  double* __restrict oz = out.uz.data();
  double* __restrict ow = out.w.data();
  std::size_t cnt = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const Real ddx = bx[j] - px;
    const Real ddy = by[j] - py;
    const Real ddz = bz[j] - pz;
    const Real r2 = ddx * ddx + ddy * ddy + ddz * ddz;
    const double r = std::sqrt(static_cast<double>(r2));
    const double inv = 1.0 / r;
    const int b = bins.bin_of(r);
    const unsigned ok = static_cast<unsigned>(r2 <= r2max) &
                        static_cast<unsigned>(bi[j] != self) &
                        static_cast<unsigned>(static_cast<double>(r2) > 0.0) &
                        static_cast<unsigned>(b >= 0);
    double dx = static_cast<double>(ddx);
    double dy = static_cast<double>(ddy);
    double dz = static_cast<double>(ddz);
    if (rot) rot->apply(dx, dy, dz);
    ob[cnt] = b;
    ox[cnt] = dx * inv;
    oy[cnt] = dy * inv;
    oz[cnt] = dz * inv;
    ow[cnt] = bw[j];
    cnt += ok;
  }
  return cnt;
}

#if defined(__AVX512F__) || defined(__AVX2__)
// Calls vec(x, y, z, w, idx, live) on each kW-candidate vector of the
// block, `live` holding a bit per lane in use. The tail goes through a
// zero-padded copy, so vec may load whole vectors.
template <std::size_t kW, typename Real, typename Vec>
void for_each_vector(const tree::NeighborBlock<Real>& block, Vec&& vec) {
  const std::size_t n = block.size();
  std::size_t j = 0;
  for (; j + kW <= n; j += kW)
    vec(block.x.data() + j, block.y.data() + j, block.z.data() + j,
        block.w.data() + j, block.idx.data() + j, (1u << kW) - 1);
  if (j == n) return;
  Real tx[kW] = {}, ty[kW] = {}, tz[kW] = {};
  double tw[kW] = {};
  std::int64_t ti[kW] = {};
  const std::size_t rem = n - j;
  std::copy_n(block.x.data() + j, rem, tx);
  std::copy_n(block.y.data() + j, rem, ty);
  std::copy_n(block.z.data() + j, rem, tz);
  std::copy_n(block.w.data() + j, rem, tw);
  std::copy_n(block.idx.data() + j, rem, ti);
  vec(tx, ty, tz, tw, ti, (1u << rem) - 1);
}
#endif

#if defined(__AVX512F__)
// All-ones masked forms of intrinsics whose plain GCC spelling passes an
// undefined vector through and trips -Wmaybe-uninitialized; with an
// all-ones mask they are the same instructions.
inline __m512d widen8(__m256 a) {
  return _mm512_mask_cvtps_pd(_mm512_setzero_pd(), 0xFF, a);
}
inline __m512d sqrt8(__m512d a) { return _mm512_mask_sqrt_pd(a, 0xFF, a); }
inline __m256i trunc8(__m512d a) {
  return _mm512_mask_cvttpd_epi32(_mm256_setzero_si256(), 0xFF, a);
}
inline __m512i zext8(__m256i a) {
  const __m512i z = _mm512_setzero_si512();
  return _mm512_mask_inserti64x4(z, 0xFF, z, a, 0);
}

// AVX-512 level: 8 candidates per vector, double lanes in __m512d (float
// blocks compute d and r2 in __m256 first). Survivors are compressed in
// registers (vcompresspd / vpcompressd) and stored as whole vectors: a
// store may write up to 16 entries past `count`, inside StagedPairs'
// slack.
template <typename Real>
std::size_t stage_block_avx512(const tree::NeighborBlock<Real>& block,
                               Real px, Real py, Real pz, Real r2max,
                               std::int64_t self, const RadialBins& bins,
                               const Rotation* rot, StagedPairs& out) {
  constexpr std::size_t kW = 8;
  const bool linear = bins.spacing() == BinSpacing::kLinear;
  const __m512d vrmin = _mm512_set1_pd(bins.rmin());
  const __m512d vrmax = _mm512_set1_pd(bins.rmax());
  const __m512d vinvw = _mm512_set1_pd(bins.inv_width());
  const __m256i vtop = _mm256_set1_epi32(bins.count() - 1);
  // r2 <= r2max in Real is r2 <= r2max in double: the widening is exact.
  const __m512d vr2max = _mm512_set1_pd(static_cast<double>(r2max));
  const __m512i vself = _mm512_set1_epi64(self);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d zero = _mm512_setzero_pd();
  __m512d m[9];
  for (int k = 0; k < 9; ++k) m[k] = _mm512_set1_pd(rot ? rot->m[k] : 0.0);
  std::size_t cnt = 0;

  // One vector of candidates at bx[0..8) etc.; lanes outside `live` are
  // rejected.
  auto vec = [&](const Real* bx, const Real* by, const Real* bz,
                 const double* bw, const std::int64_t* bi, unsigned live) {
    __m512d dx, dy, dz, r2;
    if constexpr (std::is_same_v<Real, float>) {
      const __m256 fx = _mm256_sub_ps(_mm256_loadu_ps(bx), _mm256_set1_ps(px));
      const __m256 fy = _mm256_sub_ps(_mm256_loadu_ps(by), _mm256_set1_ps(py));
      const __m256 fz = _mm256_sub_ps(_mm256_loadu_ps(bz), _mm256_set1_ps(pz));
      const __m256 fr2 =
          _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(fx, fx),
                                      _mm256_mul_ps(fy, fy)),
                        _mm256_mul_ps(fz, fz));
      dx = widen8(fx);
      dy = widen8(fy);
      dz = widen8(fz);
      r2 = widen8(fr2);
    } else {
      dx = _mm512_sub_pd(_mm512_loadu_pd(bx), _mm512_set1_pd(px));
      dy = _mm512_sub_pd(_mm512_loadu_pd(by), _mm512_set1_pd(py));
      dz = _mm512_sub_pd(_mm512_loadu_pd(bz), _mm512_set1_pd(pz));
      r2 = _mm512_add_pd(
          _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy)),
          _mm512_mul_pd(dz, dz));
    }
    __mmask8 ok =
        _mm512_mask_cmp_pd_mask(__mmask8(live), r2, vr2max, _CMP_LE_OQ);
    ok = _mm512_mask_cmp_pd_mask(ok, r2, zero, _CMP_GT_OQ);
    ok = _mm512_mask_cmpneq_epi64_mask(ok, _mm512_loadu_si512(bi), vself);
    if (!ok) return;
    const __m512d r = sqrt8(r2);
    const __m512d inv = _mm512_div_pd(one, r);
    __m256i b;
    if (linear) {
      ok = _mm512_mask_cmp_pd_mask(ok, r, vrmin, _CMP_GE_OQ);
      ok = _mm512_mask_cmp_pd_mask(ok, r, vrmax, _CMP_LT_OQ);
      b = _mm256_min_epi32(
          trunc8(_mm512_mul_pd(_mm512_sub_pd(r, vrmin), vinvw)), vtop);
    } else {
      alignas(64) double rl[kW];
      alignas(32) int bl[kW] = {};
      _mm512_store_pd(rl, r);
      for (unsigned k = 0; k < kW; ++k)
        if (ok >> k & 1u) {
          bl[k] = bins.bin_of(rl[k]);
          if (bl[k] < 0) ok = __mmask8(ok & ~(1u << k));
        }
      b = _mm256_load_si256(reinterpret_cast<const __m256i*>(bl));
    }
    if (rot) {
      auto row = [&](int i) {
        return _mm512_add_pd(_mm512_add_pd(_mm512_mul_pd(m[i], dx),
                                           _mm512_mul_pd(m[i + 1], dy)),
                             _mm512_mul_pd(m[i + 2], dz));
      };
      const __m512d x = row(0), y = row(3), z = row(6);
      dx = x;
      dy = y;
      dz = z;
    }
    auto store = [&](double* o, __m512d v) {
      _mm512_storeu_pd(o + cnt, _mm512_maskz_compress_pd(ok, v));
    };
    store(out.ux.data(), _mm512_mul_pd(dx, inv));
    store(out.uy.data(), _mm512_mul_pd(dy, inv));
    store(out.uz.data(), _mm512_mul_pd(dz, inv));
    store(out.w.data(), _mm512_loadu_pd(bw));
    _mm512_storeu_si512(out.bin.data() + cnt,
                        _mm512_maskz_compress_epi32(ok, zext8(b)));
    cnt += static_cast<std::size_t>(__builtin_popcount(ok));
  };

  for_each_vector<kW>(block, vec);
  return cnt;
}
#endif

#if !defined(__AVX512F__) && defined(__AVX2__)
// AVX2 level: 4 candidates per vector, double lanes in __m256d (float
// blocks compute d and r2 in __m128 first). Survivors leave through the
// scalar level's always-store compaction.
template <typename Real>
std::size_t stage_block_avx2(const tree::NeighborBlock<Real>& block, Real px,
                             Real py, Real pz, Real r2max, std::int64_t self,
                             const RadialBins& bins, const Rotation* rot,
                             StagedPairs& out) {
  constexpr std::size_t kW = 4;
  const bool linear = bins.spacing() == BinSpacing::kLinear;
  const __m256d vrmin = _mm256_set1_pd(bins.rmin());
  const __m256d vrmax = _mm256_set1_pd(bins.rmax());
  const __m256d vinvw = _mm256_set1_pd(bins.inv_width());
  const __m128i vtop = _mm_set1_epi32(bins.count() - 1);
  // r2 <= r2max in Real is r2 <= r2max in double: the widening is exact.
  const __m256d vr2max = _mm256_set1_pd(static_cast<double>(r2max));
  const __m256i vself = _mm256_set1_epi64x(self);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  __m256d m[9];
  for (int k = 0; k < 9; ++k) m[k] = _mm256_set1_pd(rot ? rot->m[k] : 0.0);
  int* __restrict ob = out.bin.data();
  double* __restrict ox = out.ux.data();
  double* __restrict oy = out.uy.data();
  double* __restrict oz = out.uz.data();
  double* __restrict ow = out.w.data();
  std::size_t cnt = 0;

  // One vector of candidates at bx[0..4) etc.; lanes outside the `live`
  // bits are rejected.
  auto vec = [&](const Real* bx, const Real* by, const Real* bz,
                 const double* bw, const std::int64_t* bi, unsigned live) {
    __m256d dx, dy, dz, r2;
    if constexpr (std::is_same_v<Real, float>) {
      const __m128 fx = _mm_sub_ps(_mm_loadu_ps(bx), _mm_set1_ps(px));
      const __m128 fy = _mm_sub_ps(_mm_loadu_ps(by), _mm_set1_ps(py));
      const __m128 fz = _mm_sub_ps(_mm_loadu_ps(bz), _mm_set1_ps(pz));
      const __m128 fr2 = _mm_add_ps(
          _mm_add_ps(_mm_mul_ps(fx, fx), _mm_mul_ps(fy, fy)),
          _mm_mul_ps(fz, fz));
      dx = _mm256_cvtps_pd(fx);
      dy = _mm256_cvtps_pd(fy);
      dz = _mm256_cvtps_pd(fz);
      r2 = _mm256_cvtps_pd(fr2);
    } else {
      dx = _mm256_sub_pd(_mm256_loadu_pd(bx), _mm256_set1_pd(px));
      dy = _mm256_sub_pd(_mm256_loadu_pd(by), _mm256_set1_pd(py));
      dz = _mm256_sub_pd(_mm256_loadu_pd(bz), _mm256_set1_pd(pz));
      r2 = _mm256_add_pd(
          _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
          _mm256_mul_pd(dz, dz));
    }
    const __m256i same = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bi)), vself);
    const __m256d okv = _mm256_andnot_pd(
        _mm256_castsi256_pd(same),
        _mm256_and_pd(_mm256_cmp_pd(r2, vr2max, _CMP_LE_OQ),
                      _mm256_cmp_pd(r2, zero, _CMP_GT_OQ)));
    unsigned ok = live & static_cast<unsigned>(_mm256_movemask_pd(okv));
    if (!ok) return;
    const __m256d r = _mm256_sqrt_pd(r2);
    const __m256d inv = _mm256_div_pd(one, r);
    alignas(16) int bl[kW] = {};
    if (linear) {
      ok &= static_cast<unsigned>(_mm256_movemask_pd(
          _mm256_and_pd(_mm256_cmp_pd(r, vrmin, _CMP_GE_OQ),
                        _mm256_cmp_pd(r, vrmax, _CMP_LT_OQ))));
      _mm_store_si128(
          reinterpret_cast<__m128i*>(bl),
          _mm_min_epi32(_mm256_cvttpd_epi32(
                            _mm256_mul_pd(_mm256_sub_pd(r, vrmin), vinvw)),
                        vtop));
    } else {
      alignas(32) double rl[kW];
      _mm256_store_pd(rl, r);
      for (unsigned k = 0; k < kW; ++k)
        if (ok >> k & 1u) {
          bl[k] = bins.bin_of(rl[k]);
          if (bl[k] < 0) ok &= ~(1u << k);
        }
    }
    if (rot) {
      auto row = [&](int i) {
        return _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(m[i], dx),
                                           _mm256_mul_pd(m[i + 1], dy)),
                             _mm256_mul_pd(m[i + 2], dz));
      };
      const __m256d x = row(0), y = row(3), z = row(6);
      dx = x;
      dy = y;
      dz = z;
    }
    alignas(32) double lx[kW], ly[kW], lz[kW];
    _mm256_store_pd(lx, _mm256_mul_pd(dx, inv));
    _mm256_store_pd(ly, _mm256_mul_pd(dy, inv));
    _mm256_store_pd(lz, _mm256_mul_pd(dz, inv));
    for (unsigned k = 0; k < kW; ++k) {
      ob[cnt] = bl[k];
      ox[cnt] = lx[k];
      oy[cnt] = ly[k];
      oz[cnt] = lz[k];
      ow[cnt] = bw[k];
      cnt += ok >> k & 1u;
    }
  };

  for_each_vector<kW>(block, vec);
  return cnt;
}
#endif

}  // namespace

template <typename Real>
void stage_pairs(const tree::NeighborBlock<Real>& block, Real px, Real py,
                 Real pz, Real r2max, std::int64_t self,
                 const RadialBins& bins, const Rotation* rot,
                 StagedPairs& out) {
#if defined(__AVX512F__)
  out.count = stage_block_avx512(block, px, py, pz, r2max, self, bins, rot,
                                 out);
#elif defined(__AVX2__)
  out.count = stage_block_avx2(block, px, py, pz, r2max, self, bins, rot,
                               out);
#else
  out.count = stage_block(block, px, py, pz, r2max, self, bins, rot, out);
#endif
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
                       const double* vi, std::size_t vstride, int len,
                       int nblocks, double* zr, double* zi) {
  if (zi)
    zeta_block<true>(wp, np, vr, vi, vstride, len, nblocks, zr, zi);
  else
    zeta_block<false>(wp, np, vr, vi, vstride, len, nblocks, zr, nullptr);
}

}  // namespace GALACTOS_KERNEL_NS
}  // namespace galactos::core
