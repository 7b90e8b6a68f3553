// Anisotropic 3PCF coefficients zeta^m_{l l'}(r1, r2) (paper §3.1):
//
//   zeta(r1_vec, r2_vec) = sum_{l l' m} zeta^m_{ll'}(r1, r2)
//                          Y_lm(r1_hat) Y*_l'm(r2_hat),
//
// estimated per primary as a_lm(r1) a*_l'm(r2) with
// a_lm(bin) = sum_j w_j conj(Y_lm(u_j)), then averaged over primaries.
// Only m >= 0 is stored: the density field is real, so
// a_{l,-m} = (-1)^m conj(a_lm) and the m < 0 products are conjugates of the
// stored ones.
//
// Symmetry: zeta^m_{ll'}(b1,b2) = conj(zeta^m_{l'l}(b2,b1)), so storage
// covers b1 <= b2 with all (l, l') and the accessor reflects.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "core/bins.hpp"
#include "util/check.hpp"

namespace galactos::math {
class SphHarmTable;
}

namespace galactos::core {

// Canonical enumeration of (l, l', m) with 0 <= l, l' <= lmax and
// 0 <= m <= min(l, l'): m outer, then l, then l' — m-major so that the hot
// zeta accumulation loop walks l' contiguously at fixed (m, l).
class LlmIndex {
 public:
  explicit LlmIndex(int lmax);

  int lmax() const { return lmax_; }
  int size() const { return static_cast<int>(triples_.size()); }

  struct Llm {
    int l, lp, m;
  };
  Llm at(int i) const { return triples_[i]; }
  int index(int l, int lp, int m) const {
    GLX_DCHECK(l >= 0 && l <= lmax_ && lp >= 0 && lp <= lmax_ && m >= 0 &&
               m <= std::min(l, lp));
    return lookup_[(l * (lmax_ + 1) + lp) * (lmax_ + 1) + m];
  }

  // Flat a_lm indices for each triple (precomputed for the hot loop).
  const std::vector<int>& alm_index_1() const { return alm1_; }
  const std::vector<int>& alm_index_2() const { return alm2_; }

 private:
  int lmax_;
  std::vector<Llm> triples_;
  std::vector<int> lookup_;
  std::vector<int> alm1_, alm2_;
};

// Accumulates zeta over primaries; one instance per thread, merged at the
// end (paper §3.3: "multipole values are combined at the end of the loop
// over primary galaxies").
//
// Storage: separate real/imaginary planes holding, per m, the upper bin
// blocks of the matrix with rows (b1, l) and columns (b2, l'), l, l' >= m:
// row (b1, l) is the contiguous run over b2 >= b1, then l'. The element
// count equals the public [bin_pair][llm] order, which snapshot() and
// raw() present.
//
// Batching: add_primary / add_primary_sums only stage the primary's a_lm,
// as m-major planes [m][bin][l], in a slot of a kBatch-primary batch
// (allocated on first use). A full batch is applied by one register-tiled
// update (zeta_batch_update in core/kernel.hpp, dispatched like the
// multipole kernel, so GALACTOS_KERNEL_ISA pins it too) that keeps a
// tile of zeta in registers while it walks the staged primaries in order
// — zeta crosses the cache once per batch instead of once per primary.
// Every other member flushes the batch first, so the results are BITWISE
// those of adding each primary on its own: each entry sees the same IEEE
// sequence z + (t.re*a.re + t.im*a.im), t = wp*a, in the same primary
// order. Bins a primary did not touch enter as zero planes; adding a
// +-0 product leaves any finite entry unchanged, and an entry can never
// be -0 (it starts at +0 and x + y rounds to -0 only when both are -0).
//
// The const readers (raw, snapshot, merge's argument) flush too, so they
// must not run concurrently on one instance while primaries are staged.
class ZetaAccumulator {
 public:
  static constexpr int kBatch = 8;  // primaries per batched update

  ZetaAccumulator(int lmax, int nbins);

  int lmax() const { return llm_.lmax(); }
  int nbins() const { return nbins_; }
  const LlmIndex& llm() const { return llm_; }

  static int bin_pair_count(int nbins) { return nbins * (nbins + 1) / 2; }
  int bin_pair(int b1, int b2) const {  // requires b1 <= b2
    GLX_DCHECK(b1 >= 0 && b1 <= b2 && b2 < nbins_);
    return b1 * nbins_ - b1 * (b1 - 1) / 2 + (b2 - b1);
  }

  // alm: [nbins][nlm(lmax)] complex; touched: per-bin validity flags.
  void add_primary(double wp, const std::complex<double>* alm,
                   const std::uint8_t* touched);

  // add_primary straight from one primary's power sums, as the engine's
  // MultipoleAccumulator holds them: bin-interleaved S[mono * stride + bin]
  // (MultipoleAccumulator::sums()), valid for the nb bins listed in `bins`.
  // One bins-as-lanes pass (alm_bins_as_lanes in core/kernel.hpp) writes
  // their a_lm straight into the batch slot — for finite sums bitwise what
  // add_primary with SphHarmTable::alm_from_power_sums per bin would stage.
  void add_primary_sums(double wp, const math::SphHarmTable& table,
                        const double* sums, std::size_t stride,
                        const int* bins, int nb);

  // Applies the staged primaries. Every reader does this itself; the
  // engine calls it once per thread so the cost lands in its own timer.
  void flush() const;

  // Two-pass completion term. With one primary's a_lm split over two
  // disjoint secondary sets, a = A + B (A = owned-only, already folded in
  // by add_primary; B = halo-only), the full product expands as
  //   a(b1) a*(b2) = A(b1) A*(b2) + [A(b1) B*(b2) + B(b1) A*(b2)
  //                                  + B(b1) B*(b2)],
  // and this adds exactly the bracket — a pure sum of products, no
  // cancellation — WITHOUT counting a new primary (add_primary already
  // did). Bins untouched in A resp. B contribute zero planes.
  void add_primary_cross(double wp, const std::complex<double>* alm_a,
                         const std::uint8_t* touched_a,
                         const std::complex<double>* alm_b,
                         const std::uint8_t* touched_b);

  // Subtracts the degenerate j == k "triplet" contribution for diagonal bin
  // pairs: self[llm] = sum_j w_j^2 conj(Y_lm(u_j)) Y_l'm(u_j), supplied as
  // the SelfPairAccumulator's SoA real/imaginary planes in LlmIndex order.
  void subtract_self(double wp, int bin, const double* self_re,
                     const double* self_im);

  void merge(const ZetaAccumulator& other);

  // Raw accumulated sum over primaries (not divided by sum of weights).
  std::complex<double> raw(int b1, int b2, int l, int lp, int m) const;

  double sum_weight() const { return sum_wp_; }
  std::uint64_t primaries() const { return n_primaries_; }
  // Interleaved complex copy in [bin_pair][LlmIndex] order.
  std::vector<std::complex<double>> snapshot() const;

 private:
  // Start of the m block in a transposed a_lm slot; bin b's entries
  // l = m..lmax follow contiguously at plane_offset(m) + b * (lmax+1-m).
  std::size_t plane_offset(int m) const {
    const int lmax = llm_.lmax();
    return static_cast<std::size_t>(nbins_) *
           (m * (lmax + 1) - m * (m - 1) / 2);
  }
  // Start of row (b1, l) of the m block in re_/im_; the row runs over
  // b2 = b1..nbins-1, then l', in (nbins - b1) * (lmax+1-m) entries.
  std::size_t row_offset(int m, int b1, int l) const {
    const std::size_t len = static_cast<std::size_t>(llm_.lmax() + 1 - m);
    return zeta_offset_[m] + len * len * bin_pair(b1, b1) +
           static_cast<std::size_t>(l - m) * (nbins_ - b1) * len;
  }
  std::size_t slot_size() const;
  void ensure_batch() const;
  // Counts the primary whose touched bins are flagged in batch_.open and
  // zeroes the slot's other bins; flushes a full batch.
  void commit_primary(double wp);

  int nbins_;
  LlmIndex llm_;
  std::vector<std::size_t> zeta_offset_;  // per-m start of the m block
  // Per lm_index(l, m): a_lm(l, m) of bin b sits at slot_off_[lm] +
  // b * slot_step_[lm] in a slot (the alm_bins_as_lanes output layout).
  std::vector<std::size_t> slot_off_, slot_step_;
  // The staged batch. Mutable with re_/im_: flushing leaves the observable
  // value unchanged, so the const readers apply it first.
  struct Batch {
    std::vector<double> re, im;  // [kBatch][m][bin][l] a_lm planes
    double wp[kBatch] = {};
    int count = 0;                     // staged primaries
    std::vector<std::uint8_t> open;    // bins staged into slot `count`
    std::vector<std::uint8_t> any;     // bins touched by a staged primary
  };
  mutable Batch batch_;
  mutable std::vector<double> re_, im_;  // per-m upper bin-block planes
  double sum_wp_ = 0.0;
  std::uint64_t n_primaries_ = 0;
};

// Final result: zeta coefficients plus the anisotropic-2PCF byproduct and
// run metadata. Produced by the engine, merged by the distributed runner.
struct ZetaResult {
  RadialBins bins;
  int lmax = 0;
  std::uint64_t n_primaries = 0;
  double sum_primary_weight = 0.0;
  std::uint64_t n_pairs = 0;

  // zeta data, [bin_pair][llm] in LlmIndex order (b1 <= b2).
  std::vector<std::complex<double>> zeta_data;

  // Weighted pair counts per bin: sum_p w_p sum_j w_j (the S[0,0,0] sums).
  std::vector<double> pair_counts;
  // Raw anisotropic 2PCF multipole sums: sum_p w_p sum_j w_j P_l(mu_j).
  std::vector<double> xi_raw;  // [lmax+1][nbins]

  // --- accessors ---
  std::complex<double> zeta_m(int b1, int b2, int l, int lp, int m) const;
  // Per-primary average: raw / sum of primary weights.
  std::complex<double> zeta_m_mean(int b1, int b2, int l, int lp, int m) const;
  // Isotropic multipole (Slepian–Eisenstein zeta_l): via the addition
  // theorem, N_l(b1,b2) = 4pi/(2l+1) sum_m zeta^m_{ll} — the Legendre
  // moment of the triplet counts.
  double isotropic(int l, int b1, int b2) const;
  // 2PCF multipole estimate for a box of density nbar:
  // xi_l(bin) = (2l+1) * xi_raw / RR_expected - delta_l0.
  double xi_l(int l, int bin, double nbar) const;
  double xi_raw_at(int l, int bin) const;

  void check_compatible(const ZetaResult& other) const;
  // Element-wise accumulation (used by reductions over ranks/jackknife).
  void accumulate(const ZetaResult& other);

  // --- distributed-reduction hooks (dist/runner.cpp) ---
  // Zero-valued result of the shape implied by (bins, lmax): the reduction
  // identity, and the contribution of a rank that owns no primaries.
  static ZetaResult zero_like(const RadialBins& bins, int lmax);
  // Flat additive payload (summed weight, zeta planes, pair counts, 2PCF
  // moments) for an elementwise allreduce across ranks; the integer
  // counters (n_primaries, n_pairs) travel separately to stay exact.
  std::vector<double> reduce_payload() const;
  void set_reduce_payload(const std::vector<double>& payload);
};

// Cross-backend accuracy metric: max relative deviation of `other` from
// `ref` over the GATED coefficients — zeta entries whose |ref| is at least
// `gate_frac` times the largest |ref| entry — plus every pair count.
// Coefficients below the gate are cancellation-dominated in both backends
// and carry no science; the gate keeps the metric meaningful. Used by the
// tree-vs-FFT validation tests and the FFT bench/regression gate.
double max_gated_rel_err(const ZetaResult& ref, const ZetaResult& other,
                         double gate_frac);

// Global relative L2 deviation sqrt(sum |delta zeta|^2 / sum |zeta_ref|^2)
// over all zeta coefficients. Aggregates over the whole coefficient set, so
// unlike the max metric it averages out which single coefficient a noise
// term lands on — the right metric for broadband effects like aliasing
// (the interlacing A/B test uses it).
double l2_rel_err(const ZetaResult& ref, const ZetaResult& other);

}  // namespace galactos::core
