// Anisotropic 2PCF multipoles as a free byproduct of the 3PCF kernel.
//
// After the line-of-sight rotation, mu = cos(angle to LOS) of a pair is just
// the z-component of the unit separation, so the Legendre moments
// sum_pairs w P_l(mu) are linear combinations of the m = 0 power sums
// T[0,k] = sum w z^k that the kernel already accumulates (slots 0..lmax of
// the minimal basis, math/sph_table.hpp). This is the quantity RSD
// analyses of the 2PCF use (paper §1.1) and it costs nothing extra.
#pragma once

#include <cstddef>
#include <vector>

namespace galactos::core {

class TwoPcfAccumulator {
 public:
  TwoPcfAccumulator(int lmax, int nbins);

  // Adds one touched bin of one primary: T[k * stride] is the bin's power
  // sum T[0,k], k = 0..lmax (the engine's sums are bin-interleaved, hence
  // the stride).
  void add_primary_bin(double wp, int bin, const double* T,
                       std::size_t stride = 1);

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
