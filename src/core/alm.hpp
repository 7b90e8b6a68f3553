// Per-primary a_lm assembly and the optional self-pair correction.
//
// After the kernel has reduced a primary's minimal-basis power sums
// T[m,k] = sum w (x+iy)^m z^k, a_lm(bin) = sum_k c_lmk conj(T[m,k]) follows
// from the precomputed coefficient tables (math/sph_table.hpp). Every
// production path assembles it with alm_bins_as_lanes (core/kernel.hpp):
// all touched bins of a primary at once, bins as SIMD lanes, from the
// bin-interleaved sums the kernel's fused reduction writes — bitwise the
// per-bin SphHarmTable::alm_from_power_sums, which stays as the oracle;
// ZetaAccumulator::add_primary_sums writes it straight into the zeta
// batch. For diagonal bin pairs (r1 and r2 in the same shell) the product
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

class SelfPairAccumulator {
 public:
  SelfPairAccumulator(const math::SphHarmTable& table, const LlmIndex& llm,
                      int nbins);

  void start_primary();
  // Adds one secondary with unit direction (ux, uy, uz) and weight w.
  void add(int bin, double ux, double uy, double uz, double w);
  // add() for each staged pair, in order.
  void add(const StagedPairs& s);
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
