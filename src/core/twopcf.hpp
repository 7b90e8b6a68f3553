// Anisotropic 2PCF multipoles as a free byproduct of the 3PCF kernel.
//
// After the line-of-sight rotation, mu = cos(angle to LOS) of a pair is just
// the z-component of the unit separation, so the Legendre moments
// sum_pairs w P_l(mu) are linear combinations of the pure-z power sums
// S[0,0,c] that the kernel already accumulates. This is the quantity RSD
// analyses of the 2PCF use (paper §1.1) and it costs nothing extra.
#pragma once

#include <cstddef>
#include <vector>

#include "math/sph_table.hpp"

namespace galactos::core {

class TwoPcfAccumulator {
 public:
  TwoPcfAccumulator(int lmax, int nbins);

  // Adds one touched bin of one primary: S[t * stride] is the bin's power
  // sum t in MonomialMap order (the accumulator extracts the S[0,0,c]
  // entries; the engine's sums are bin-interleaved, hence the stride).
  void add_primary_bin(double wp, int bin, const double* S,
                       const math::MonomialMap& mono, std::size_t stride = 1);

  void merge(const TwoPcfAccumulator& other);

  // Raw weighted multipole sums, laid out [l][bin].
  const std::vector<double>& xi_raw() const { return xi_raw_; }
  // Weighted pair counts per bin (== the l = 0 row).
  const std::vector<double>& counts() const { return counts_; }

 private:
  int lmax_, nbins_;
  std::vector<double> legcoef_;  // [l][c]: coefficient of mu^c in P_l
  std::vector<double> xi_raw_;
  std::vector<double> counts_;
};

}  // namespace galactos::core
