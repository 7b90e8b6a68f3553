// Per-primary a_lm assembly and the optional self-pair correction.
//
// After the kernel has reduced a primary's power sums, a_lm(bin) follows
// from the precomputed Y_lm monomial tables (math/sph_table.hpp). Every
// production path assembles it with alm_bins_as_lanes (core/kernel.hpp):
// all touched bins of a primary at once, bins as SIMD lanes, from the
// bin-interleaved sums the kernel's fused reduction writes — bitwise the
// per-bin SphHarmTable::alm_from_power_sums, which stays as the oracle.
// ZetaAccumulator::add_primary_sums writes straight into the zeta batch;
// compute_alm below fills the complex [bin][lm] arrays of pass 2. For
// diagonal bin pairs (r1 and r2 in the same shell) the product
// a_lm(b) a*_l'm(b) includes the degenerate j == k terms — "triangles"
// whose two secondaries are the same galaxy. SelfPairAccumulator tracks
// sum_j w_j^2 conj(Y_lm(u_j)) Y_l'm(u_j) per bin so the engine can subtract
// them exactly (validated against the brute-force oracle both ways).
//
// The self matrix lives in structure-of-arrays real/imaginary planes
// (padded to the SIMD lane block) and the per-secondary accumulation runs
// through the math/simd.hpp vector wrapper: the (l, l', m) product loop is
// a pair of contiguous FMA sweeps over pre-gathered Y_lm operands.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "core/kernel.hpp"
#include "core/zeta.hpp"
#include "math/sph_table.hpp"
#include "util/aligned.hpp"

namespace galactos::core {

// compute_alm's complex [bin][lm] output as the per-lm (offset, step) pairs
// alm_bins_as_lanes scatters through: real parts at even doubles, imaginary
// at odd ones. Fixed per lmax; build it once beside the table and reuse it.
class AlmLayout {
 public:
  explicit AlmLayout(int lmax);

  int lmax() const { return lmax_; }
  const std::size_t* off() const { return off_.data(); }
  const std::size_t* step() const { return step_.data(); }

 private:
  int lmax_;
  std::vector<std::size_t> off_, step_;
};

// Computes alm[bin][lm] for the nb bins listed in `bins` from
// bin-interleaved power sums S[mono * stride + bin]; other bins are left
// unmodified. alm must hold (largest listed bin + 1) * nlm(lmax) complex
// entries.
void compute_alm(const math::SphHarmTable& table, const AlmLayout& layout,
                 const double* sums, std::size_t stride, const int* bins,
                 int nb, std::complex<double>* alm);

// The same for every touched bin of `acc`, flagged in touched[nbins];
// untouched bins are left unmodified (callers consult `touched`).
void compute_alm(const math::SphHarmTable& table, const AlmLayout& layout,
                 const MultipoleAccumulator& acc, std::complex<double>* alm,
                 std::uint8_t* touched);

class SelfPairAccumulator {
 public:
  SelfPairAccumulator(const math::SphHarmTable& table, const LlmIndex& llm,
                      int nbins);

  void start_primary();
  // Adds one secondary with unit direction (ux, uy, uz) and weight w.
  void add(int bin, double ux, double uy, double uz, double w);
  // Per-bin self planes in LlmIndex order; only touched bins are valid.
  // Feed these to ZetaAccumulator::subtract_self.
  const double* self_re(int bin) const {
    return re_.data() + static_cast<std::size_t>(bin) * stride_;
  }
  const double* self_im(int bin) const {
    return im_.data() + static_cast<std::size_t>(bin) * stride_;
  }
  bool bin_touched(int bin) const { return touched_[bin] != 0; }

 private:
  const math::SphHarmTable* table_;
  const LlmIndex* llm_;
  int nbins_;
  int stride_;  // llm size padded to the lane block (tail stays zero)
  std::vector<std::complex<double>> ylm_;  // scratch, nlm entries
  // Pre-gathered operands of conj(Y_lm) Y_l'm per LlmIndex entry; the
  // padded tails are zeroed once and never written, so the vector loop can
  // run the full stride.
  AlignedBuffer<double> y1re_, y1im_, y2re_, y2im_;
  AlignedBuffer<double> re_, im_;  // [nbins][stride] planes
  std::vector<std::uint8_t> touched_;
  std::vector<int> touched_list_;
};

}  // namespace galactos::core
