// The multipole accumulation kernel — where Galactos spends 55 % of its
// runtime (paper Fig. 4) and reaches 39 % of peak (paper §3.3.2).
//
// Per radial bin the kernel accumulates, over all (primary, secondary)
// pairs, the power sums
//
//     S[a,b,c] += w * (dx/r)^a (dy/r)^b (dz/r)^c,    a+b+c <= lmax,
//
// 286 terms for lmax = 10 at 2 FLOPs each (575+ FLOP/pair, matching the
// paper's 576). The design follows §3.3 exactly:
//
// * Pre-binning (§3.3.1): pairs are buffered into per-bin SoA *buckets* of
//   `bucket_capacity` (paper: k = 128) and processed a bucket at a time, so
//   vector operations touch a single bin's accumulators (cache reuse).
// * Lane accumulators (§3.3.2): each S[a,b,c] is an 8-wide lane array;
//   groups of 8 pairs accumulate lane-wise and one reduction per (primary,
//   bin) collapses the lanes — replacing N/8 vector reductions with one. It
//   is fused into the bin's last bucket block: the final lane values are
//   summed in registers with the fixed tree ((0+1)+(2+3))+((4+5)+(6+7)) and
//   written as the power sum, so that block never stores its lane block.
//   The power sums land bin-interleaved, [n_mono][nbins padded to kLanes],
//   ready for the bins-as-lanes a_lm assembly (alm_bins_as_lanes).
// * Two accumulation schemes (ablation, §3.3.2/§3.3.3):
//   - kRunningProduct: per 8-pair chunk, walk the (a,b,c) monomial tree
//     with running products; `ilp` independent chunks are interleaved to
//     expose instruction-level parallelism (paper: 4 independent vectors).
//   - kZBuffered: block over (a,b); a z-running buffer holds the whole
//     bucket so the inner c-loop streams 16 independent vectors per
//     monomial (the paper's cache-blocked variant).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "math/sph_table.hpp"
#include "util/aligned.hpp"
#include "util/check.hpp"

namespace galactos::core {

inline constexpr int kLanes = 8;  // 512-bit worth of doubles, as on KNL

enum class KernelScheme { kRunningProduct, kZBuffered };

// --- Runtime ISA dispatch -------------------------------------------------
//
// The bucket kernels, the a_lm assembly and the batched zeta update below
// are compiled once per ISA level (scalar / AVX2+FMA / AVX-512) into
// separate translation units with per-source target flags; every call
// dispatches to the best level the CPU supports. Every level executes the
// identical per-lane operation sequence, so power sums, a_lm and zeta are
// BITWISE identical across levels (asserted in ctest).
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
  int bucket_capacity = 128;  // pairs per bucket; multiple of kLanes
  KernelScheme scheme = KernelScheme::kRunningProduct;  // paper's design
  int ilp = 4;  // independent streams for kRunningProduct (1, 2 or 4)
};

// FLOPs per pair attributed to the kernel: one FMA (2 FLOPs) per monomial.
inline double kernel_flops_per_pair(int lmax) {
  return 2.0 * math::monomial_count(lmax);
}

// --- Raw bucket kernels (exposed for unit tests and the kernel bench). ---
// All require count % kLanes == 0 (callers pad with zero weight); `acc` is
// the lane accumulator block acc[n_mono][kLanes]. With `overwrite` the
// first contribution stores instead of accumulating, so callers never have
// to zero `acc` (the memset would cost as much as a ~40-pair bucket).
//
// With `sums` the bucket is the bin's last of the primary (count > 0): its
// final block does not store its lane values but reduces each monomial's
// 8 lanes in registers, ((0+1)+(2+3))+((4+5)+(6+7)), and writes the power
// sum to sums[t * sums_stride]. Earlier blocks of the bucket still update
// `acc`; after the call `acc` is stale.

void kernel_running_product(const double* ux, const double* uy,
                            const double* uz, const double* w, int count,
                            int lmax, double* acc, int ilp,
                            bool overwrite = false, double* sums = nullptr,
                            std::size_t sums_stride = 1);

void kernel_zbuffered(const double* ux, const double* uy, const double* uz,
                      const double* w, int count, int lmax, double* acc,
                      double* zscratch /* >= 2*count doubles */,
                      bool overwrite = false, double* sums = nullptr,
                      std::size_t sums_stride = 1);

// Scalar oracle (any count), accumulating directly into sums[n_mono].
void kernel_reference(const double* ux, const double* uy, const double* uz,
                      const double* w, int count, int lmax, double* sums);

// --- Bins-as-lanes a_lm assembly (ZetaAccumulator / compute_alm). ---
//
// For every (l, m >= 0) and every bin b of the nb listed in `bins`, replays
// SphHarmTable::alm_from_power_sums' chain
//
//   a = 0;  for each term t of table.terms(l, m):  a += conj(c_t) * S[mono_t]
//
// with the bins as SIMD lanes: per term one broadcast of the coefficient,
// one contiguous load over bins, then a mul and an add. conj(c_t) is purely
// real or purely imaginary (SphHarmTable::plane_terms), so each term feeds
// one plane: the other plane's product is +-0, and adding +-0 leaves a
// chain that starts at +0 unchanged (it never reaches -0). For finite sums
// each lane therefore ends on exactly the bits of alm_from_power_sums of
// its bin, at every ISA level. `sums` is bin-interleaved,
// S[mono * stride + bin] (MultipoleAccumulator::sums()), with stride a
// multiple of kLanes; lanes past the last listed bin's vector are never
// read, and unlisted lanes may hold anything.
// Bin b's a_lm lands at out_re / out_im [out_off[lm] + b * out_step[lm]],
// lm = lm_index(l, m); no other entry is written.
void alm_bins_as_lanes(const math::SphHarmTable& table, const double* sums,
                       std::size_t stride, const int* bins, int nb,
                       double* out_re, double* out_im,
                       const std::size_t* out_off,
                       const std::size_t* out_step);

// --- Batched zeta update (ZetaAccumulator's flush; exposed for tests). ---
//
// For np staged primaries p with weights wp[p] and real/imaginary operand
// vectors v_p = (vr, vi) + p * vstride, adds to the rows x cols block
// (zr, zi) with row stride ld, per entry and for p = 0, 1, ... in order:
//
//   t = wp[p] * v_p[r];  zr[r][c] += t.re * v_p[c].re + t.im * v_p[c].im
//                        zi[r][c] += t.im * v_p[c].re - t.re * v_p[c].im
//
// i.e. t * conj(v_p[c]) with exactly that IEEE operation sequence — the
// one ZetaAccumulator used per primary — so every ISA level, and any
// batch split, gives bitwise the same block. Rows and columns index the
// same operand vector. The block is walked in register tiles of 4 rows by
// two vectors of columns, each tile loaded once per batch; a ragged column
// tail runs as one tile on a padded copy, so each operand vector must stay
// readable for kZetaOperandPad entries past cols (their values are unused).
// Requires 0 <= np <= kZetaMaxPrimaries.
inline constexpr int kZetaMaxPrimaries = 8;
inline constexpr int kZetaOperandPad = 8;
void zeta_batch_update(const double* wp, int np, const double* vr,
                       const double* vi, std::size_t vstride, int rows,
                       int cols, double* zr, double* zi, std::size_t ld);

// --- Per-primary accumulator used by the engine. ---
//
// Lifecycle per primary: start_primary(); push(...) per secondary;
// finish_primary(); then read the touched bins' power sums. A full bucket
// is flushed on the next push into its bin, not on the push that fills it:
// the bucket boundaries are the same, but every touched bin reaches
// finish_primary with 1..capacity pending pairs, whose flush carries the
// fused lane reduction.
class MultipoleAccumulator {
 public:
  explicit MultipoleAccumulator(const KernelConfig& cfg);

  const KernelConfig& config() const { return cfg_; }
  int n_mono() const { return n_mono_; }

  void start_primary();

  // Adds one pair with unit separation (ux, uy, uz) and weight w to `bin`.
  void push(int bin, double ux, double uy, double uz, double w) {
    GLX_DCHECK(bin >= 0 && bin < cfg_.nbins);
    if (!touched_[bin]) touch(bin);
    double* bu = bucket_.data() +
                 static_cast<std::size_t>(bin) * 4 * cfg_.bucket_capacity;
    int f = fill_[bin];
    if (f == cfg_.bucket_capacity) {
      flush(bin, false);
      f = 0;
    }
    bu[f] = ux;
    bu[cfg_.bucket_capacity + f] = uy;
    bu[2 * cfg_.bucket_capacity + f] = uz;
    bu[3 * cfg_.bucket_capacity + f] = w;
    fill_[bin] = f + 1;
  }

  void finish_primary();

  // One bin's power sums S[a,b,c] in MonomialMap order, read with the
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
  // Every bin's sums at once, S[t * sums_stride() + bin], sums_stride() =
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
  // of a_lm downstream. Flushes split into full buckets (capacity pairs)
  // and final partial ones (fewer).
  struct Counters {
    std::uint64_t epilogues = 0;
    std::uint64_t full_flushes = 0;
    std::uint64_t partial_flushes = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  void touch(int bin);
  // Runs the configured bucket kernel over the bin's pending pairs (padded
  // to kLanes with zero weight), honoring the bin's first-flush overwrite;
  // `last` fuses the lane reduction into the bin's power sums.
  void flush(int bin, bool last);

  KernelConfig cfg_;
  int n_mono_;
  std::size_t sums_stride_;
  AlignedBuffer<double> acc_;     // [nbins][n_mono][kLanes]
  AlignedBuffer<double> bucket_;  // [nbins][4][capacity]
  AlignedBuffer<double> sums_;    // [n_mono][sums_stride_]
  AlignedBuffer<double> zscratch_;
  std::vector<int> fill_;
  std::vector<std::uint8_t> touched_;
  std::vector<std::uint8_t> first_flush_;
  std::vector<int> touched_list_;
  std::uint64_t pairs_ = 0;
  Counters counters_;
};

}  // namespace galactos::core
