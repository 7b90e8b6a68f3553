// The multipole accumulation kernel — where Galactos spends 55 % of its
// runtime (paper Fig. 4) and reaches 39 % of peak (paper §3.3.2).
//
// Per radial bin the kernel accumulates, over all (primary, secondary)
// pairs with unit separation u = (x, y, z), the minimal-basis power sums
//
//     T[m,k] += w * (x + i y)^m * z^k,    m + k <= lmax,
//
// 121 real slots at lmax 10 (math/sph_table.hpp), where the paper sums 286
// monomials x^a y^b z^c at 2 FLOPs each. GFLOP/s figures keep that
// paper-equivalent count (kernel_flops_per_pair, 572 at lmax 10); the basis
// executes kernel_basis_flops_per_pair (277). The design follows §3.3:
//
// * Pre-binning (§3.3.1): pairs are buffered into per-bin SoA *buckets* of
//   kBucketCapacity pairs (paper: k = 128) and processed a bucket at a
//   time, so vector operations touch a single bin's accumulators (cache
//   reuse).
// * Lane accumulators (§3.3.2): each slot of T is an 8-wide lane array;
//   groups of 8 pairs accumulate lane-wise and one reduction per (primary,
//   bin) collapses the lanes — replacing N/8 vector reductions with one. It
//   is fused into the bin's last bucket block: the final lane values are
//   summed in registers with the fixed tree ((0+1)+(2+3))+((4+5)+(6+7)) and
//   written as the power sum, so that block never stores its lane block.
//   The power sums land bin-interleaved, [n_slots][nbins padded to kLanes],
//   ready for the bins-as-lanes a_lm assembly (alm_bins_as_lanes).
// * Running products (§3.3.2): per 8-pair chunk a complex running product
//   p <- p (x + iy) per m and a z-chain q <- q z per k, with no FMA;
//   kKernelIlp independent chunks are interleaved to expose
//   instruction-level parallelism (paper: 4 independent vectors).
//
// Both are constants, not settings: any other value changes the result
// bits (the bucket boundaries and the per-lane chunk sums move). The raw
// kernel_running_product keeps an `ilp` argument only so bench_kernel can
// sweep it and the tests can cover every stream count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/bins.hpp"
#include "core/los.hpp"
#include "math/sph_table.hpp"
#include "tree/neighbors.hpp"
#include "util/aligned.hpp"
#include "util/check.hpp"

namespace galactos::core {

inline constexpr int kLanes = 8;  // 512-bit worth of doubles, as on KNL
// Pairs per bucket (paper §3.3.1: k = 128); a multiple of kLanes.
inline constexpr int kBucketCapacity = 128;
// Interleaved running-product streams (paper §3.3.2: 4 vectors).
inline constexpr int kKernelIlp = 4;
static_assert(kBucketCapacity % kLanes == 0);

// --- Runtime ISA dispatch -------------------------------------------------
//
// The pair stage (stage_pairs), the bucket kernels
// (kernel_running_product), the a_lm assembly (alm_bins_as_lanes) and the
// batched zeta update (zeta_batch_update) below are compiled once per ISA
// level (scalar / AVX2+FMA / AVX-512) into separate translation units with
// per-source target flags; every call dispatches to the best level the CPU
// supports. Every level executes the identical per-lane operation
// sequence, so staged pairs, power sums, a_lm and zeta are BITWISE
// identical across levels (asserted in ctest).
//
// The first kernel call resolves the GALACTOS_KERNEL_ISA environment
// variable (scalar | avx2 | avx512 | auto; unset means auto). A malformed
// value, or a level the CPU/build cannot run, raises std::logic_error with
// a message naming the valid choices.
enum class KernelIsa { kScalar, kAvx2, kAvx512, kAuto };

// Was this level's kernel compiled into the binary? (kScalar: always;
// kAuto: trivially true.)
bool kernel_isa_compiled(KernelIsa isa);
// Compiled AND runnable on this CPU (CPUID probe).
bool kernel_isa_supported(KernelIsa isa);
// Best supported level — what kAuto resolves to.
KernelIsa kernel_isa_detect();
// Active level, resolving GALACTOS_KERNEL_ISA on first use. Never kAuto.
KernelIsa kernel_isa();
// Overrides the active level (kAuto re-detects). Throws std::logic_error
// if the level is not supported. Used by the per-ISA bench/test A/Bs; call
// only between engine runs — kernels in flight keep their level.
void set_kernel_isa(KernelIsa isa);
// "scalar" | "avx2" | "avx512" | "auto".
const char* kernel_isa_name(KernelIsa isa);
// Parses the spelling above; throws std::logic_error on anything else.
KernelIsa parse_kernel_isa(const std::string& name);
// Re-reads GALACTOS_KERNEL_ISA: the parsed request, kAuto when unset or
// empty. Throws like parse_kernel_isa on malformed values. Exposed so the
// env contract is unit-testable; normal code just calls kernel_isa().
KernelIsa kernel_isa_from_env();

struct KernelConfig {
  int lmax = 10;
  int nbins = 10;
};

// Paper-equivalent FLOPs per pair: one FMA (2 FLOPs) per monomial
// x^a y^b z^c, a+b+c <= lmax — the unit of every kernel GFLOP/s figure.
inline double kernel_flops_per_pair(int lmax) {
  return 2.0 * math::monomial_count(lmax);
}

// FLOPs per pair the minimal-basis kernel executes: one add per slot, the
// z-chain muls (1 per step at m = 0, 2 above), 2 muls for p = w (x + iy)
// and 6 per further complex step — 277 at lmax 10.
inline double kernel_basis_flops_per_pair(int lmax) {
  return math::basis_size(lmax) + lmax + lmax * (lmax - 1) +
         (lmax >= 1 ? 2 + 6 * (lmax - 1) : 0);
}

// --- Raw bucket kernels (exposed for unit tests and the kernel bench). ---
// All require count % kLanes == 0 (callers pad with zero weight); `acc` is
// the lane accumulator block acc[n_slots][kLanes] (math::basis_slot
// order). `ilp` is the interleaved stream count, 1, 2 or 4; the
// accumulator always passes kKernelIlp. With `overwrite` the first contribution stores instead of
// accumulating, so callers never have to zero `acc` (the memset would cost
// as much as a ~40-pair bucket).
//
// With `sums` the bucket is the bin's last of the primary (count > 0): its
// final block does not store its lane values but reduces each slot's
// 8 lanes in registers, ((0+1)+(2+3))+((4+5)+(6+7)), and writes the power
// sum to sums[t * sums_stride]. Earlier blocks of the bucket still update
// `acc`; after the call `acc` is stale.

void kernel_running_product(const double* ux, const double* uy,
                            const double* uz, const double* w, int count,
                            int lmax, double* acc, int ilp,
                            bool overwrite = false, double* sums = nullptr,
                            std::size_t sums_stride = 1);

// Scalar reference (any count), accumulating directly into sums[n_slots]:
// per pair the same per-lane operation sequence as the bucket kernel.
void kernel_reference(const double* ux, const double* uy, const double* uz,
                      const double* w, int count, int lmax, double* sums);

// --- Bins-as-lanes a_lm assembly (ZetaAccumulator::add_primary_sums). ---
//
// For every (l, m >= 0) and every bin b of the nb listed in `bins`, replays
// SphHarmTable::alm_from_power_sums' chains
//
//   re = 0;  for each term t of table.plane_terms(lm, 0):  re += c_t * T[slot_t]
//   im = 0;  for each term t of table.plane_terms(lm, 1):  im += c_t * T[slot_t]
//
// with the bins as SIMD lanes: per term one broadcast of the coefficient,
// one contiguous load over bins, then a mul and an add. Each lane therefore
// ends on exactly the bits of alm_from_power_sums of its bin, at every ISA
// level. `sums` is bin-interleaved, T[slot * stride + bin]
// (MultipoleAccumulator::sums()), with stride a multiple of kLanes; lanes
// past the last listed bin's vector are never read, and unlisted lanes may
// hold anything.
// Bin b's a_lm lands at out_re / out_im [out_off[lm] + b * out_step[lm]],
// lm = lm_index(l, m); no other entry is written.
void alm_bins_as_lanes(const math::SphHarmTable& table, const double* sums,
                       std::size_t stride, const int* bins, int nb,
                       double* out_re, double* out_im,
                       const std::size_t* out_off,
                       const std::size_t* out_step);

// --- Batched zeta update (ZetaAccumulator's flush; exposed for tests). ---
//
// One m block of zeta as a rank-np Hermitian-style update. The np staged
// primaries p have weights wp[p] and operand vectors v_p = (vr, vi) +
// p * vstride of n = nblocks * len entries, block-major (entry b * len + k:
// bin b, k = l - m). Row r of the block, in block b = r / len, covers the
// columns [b * len, n) — the upper block triangle. Rows are packed back to
// back, each one contiguous over its columns, in zr (and zi). Per entry
// (r, c) and for p = 0, 1, ... in order:
//
//   t  = wp[p] * v_p[r]                        (t.re and t.im, one mul each)
//   zr = fma(t.im, v_p[c].im, fma(t.re, v_p[c].re, zr))
//   zi = fma(-t.re, v_p[c].im, fma(t.im, v_p[c].re, zi))
//
// i.e. t * conj(v_p[c]), each fma rounded once (std::fma at the scalar
// level) — except that a diagonal entry (r, r) keeps its zi: its exact
// increment wp * (v.im * v.re - v.re * v.im) is 0, which the fma pair
// would leave as rounding noise. The sequence is fixed per entry and per
// primary, so every ISA level, every tiling and any batch split give
// bitwise the same block.
// Zeta entries outside the block are never read or written. The last
// column tile may read each operand vector up to kZetaOperandPad - 1
// entries past n (the values are unused), so they must stay readable.
// Requires 0 <= np <= kZetaMaxPrimaries, len >= 1 and nblocks >= 1.
//
// zi == nullptr selects the real-only update zr = fma(t.re, v_p[c].re, zr)
// (vi is not read and may be null either). For finite operands whose
// imaginary parts are all +-0 it gives the full update's bits: t.im *
// v.im is an exact +-0 product, and fma(a, b, x) with a * b = +-0 returns
// x unless x is -0. Here x = fma(t.re, v.re, zr) is -0 only if zr is, and
// an accumulated entry never is (it starts at +0, and an fma or a sum
// rounds to -0 only when both terms are -0). The imaginary plane is left
// as the full update would leave it, for the same reason.
inline constexpr int kZetaMaxPrimaries = 8;
inline constexpr int kZetaOperandPad = 8;
void zeta_batch_update(const double* wp, int np, const double* vr,
                       const double* vi, std::size_t vstride, int len,
                       int nblocks, double* zr, double* zi);

// --- Pair stage: gathered block -> one primary's accepted pairs. ---
//
// One primary's accepted pairs in candidate order, SoA: radial bin, unit
// separation in the primary's LOS frame, and weight. Entries [0, count)
// are valid; the arrays hold kStageSlack entries past the block length,
// which the SIMD levels' full-vector stores may overwrite.
inline constexpr std::size_t kStageSlack = 16;
struct StagedPairs {
  std::size_t count = 0;
  std::vector<int> bin;
  std::vector<double> ux, uy, uz, w;

  // Makes room for a block of n candidates (contents are not kept).
  void reserve(std::size_t n);
};

// Stages one primary at (px, py, pz) against a gathered candidate block,
// per vector of candidates and in one pass:
//
//   d  = block - p;  r2 = (dx*dx + dy*dy) + dz*dz          (in Real)
//   keep r2 <= r2max (Real), idx != self, r2 > 0
//   r  = sqrt(double(r2));  inv = 1 / r
//   bin = bins.bin_of(r), rejecting -1 (linear bins in SIMD, with
//         bin_of's arithmetic; log bins call bin_of per lane)
//   d  = rot->apply(d) when `rot` is set;  u = d * inv      (in double)
//
// and compacts the survivors into `out`. `self` is the primary's catalog
// index, -1 to keep every candidate (a disjoint halo block). Each step is
// the IEEE sequence of the plain per-candidate loop above, so every ISA
// level stages bitwise the same pairs. Linear bins are not tested on r^2
// edges: those move edge pairs into neighboring bins.
template <typename Real>
void stage_pairs(const tree::NeighborBlock<Real>& block, Real px, Real py,
                 Real pz, Real r2max, std::int64_t self,
                 const RadialBins& bins, const Rotation* rot,
                 StagedPairs& out);

// --- Per-primary accumulator used by the engine. ---
//
// Lifecycle per primary: start_primary(); push(...) per secondary, or
// push_staged(...) once; finish_primary(); then read the touched bins'
// power sums. A full bucket is flushed on the next push into its bin, not
// on the push that fills it: the bucket boundaries are the same, but every
// touched bin reaches finish_primary with 1..kBucketCapacity pending pairs,
// whose flush carries the fused lane reduction.
class MultipoleAccumulator {
 public:
  explicit MultipoleAccumulator(const KernelConfig& cfg);

  const KernelConfig& config() const { return cfg_; }
  int n_slots() const { return n_slots_; }

  void start_primary();

  // Adds one pair with unit separation (ux, uy, uz) and weight w to `bin`.
  void push(int bin, double ux, double uy, double uz, double w) {
    GLX_DCHECK(bin >= 0 && bin < cfg_.nbins);
    if (!touched_[bin]) touch(bin);
    double* bu = bucket_.data() +
                 static_cast<std::size_t>(bin) * 4 * kBucketCapacity;
    int f = fill_[bin];
    if (f == kBucketCapacity) {
      flush(bin, false);
      f = 0;
    }
    bu[f] = ux;
    bu[kBucketCapacity + f] = uy;
    bu[2 * kBucketCapacity + f] = uz;
    bu[3 * kBucketCapacity + f] = w;
    fill_[bin] = f + 1;
  }
  // push() for each staged pair, in order.
  void push_staged(const StagedPairs& s);

  void finish_primary();

  // One bin's power sums T in math::basis_slot order, read with the
  // bin-interleaved stride; valid after finish_primary() for touched bins.
  struct PowerSums {
    const double* base;
    std::size_t stride;
    double operator[](int t) const {
      return base[static_cast<std::size_t>(t) * stride];
    }
  };
  PowerSums power_sums(int bin) const {
    GLX_DCHECK(bin >= 0 && bin < cfg_.nbins);
    return {sums_.data() + bin, sums_stride_};
  }
  // Every bin's sums at once, T[t * sums_stride() + bin], sums_stride() =
  // nbins rounded up to kLanes: the alm_bins_as_lanes operand. Untouched
  // bins hold stale finite values, the padding lanes zero.
  const double* sums() const { return sums_.data(); }
  std::size_t sums_stride() const { return sums_stride_; }
  bool bin_touched(int bin) const { return touched_[bin] != 0; }
  // The current primary's touched bins, in first-push order.
  const std::vector<int>& touched_bins() const { return touched_list_; }

  std::uint64_t pairs_processed() const { return pairs_; }

  // Lifetime work counters. Every touched (primary, bin) costs one
  // epilogue: its final flush with the fused lane reduction, and one bin
  // of a_lm downstream. Flushes split into full buckets (kBucketCapacity
  // pairs) and final partial ones (fewer).
  struct Counters {
    std::uint64_t epilogues = 0;
    std::uint64_t full_flushes = 0;
    std::uint64_t partial_flushes = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  void touch(int bin);
  // Runs the bucket kernel over the bin's pending pairs (padded
  // to kLanes with zero weight), honoring the bin's first-flush overwrite;
  // `last` fuses the lane reduction into the bin's power sums.
  void flush(int bin, bool last);

  KernelConfig cfg_;
  int n_slots_;
  std::size_t sums_stride_;
  AlignedBuffer<double> acc_;     // [nbins][n_slots][kLanes]
  AlignedBuffer<double> bucket_;  // [nbins][4][kBucketCapacity]
  AlignedBuffer<double> sums_;    // [n_slots][sums_stride_]
  std::vector<int> fill_;
  std::vector<std::uint8_t> touched_;
  std::vector<std::uint8_t> first_flush_;
  std::vector<int> touched_list_;
  std::uint64_t pairs_ = 0;
  Counters counters_;
};

}  // namespace galactos::core
