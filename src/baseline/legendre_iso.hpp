// The Slepian–Eisenstein isotropic 3PCF algorithm (paper §2.2–2.3) — the
// state-of-the-art baseline Galactos is compared against.
//
//   zeta(r1, r2; r1_hat . r2_hat) = sum_l zeta_l(r1, r2) P_l(r1_hat . r2_hat)
//
// Per primary: bin secondaries into shells, expand each shell's angular
// distribution in spherical harmonics (direct Y_lm evaluation in the global
// frame — no LOS rotation, since the Legendre basis is rotation invariant),
// and contract over spins with the addition theorem. O(N^2), like Galactos,
// but tracks only the isotropic part. Neighbors come from one k-d tree
// query per primary; nothing else (pair staging, bucket kernel, a_lm
// assembly) is shared with the engine.
//
// Cross-check: Galactos' isotropic projection (ZetaResult::isotropic) must
// reproduce these multipoles exactly, because sum_m a_lm a*_l'm is rotation
// invariant. The test suite verifies this.
#pragma once

#include <cstdint>
#include <vector>

#include "core/bins.hpp"
#include "sim/catalog.hpp"

namespace galactos::baseline {

struct LegendreIsoConfig {
  core::RadialBins bins{1.0, 200.0, 10};
  int lmax = 10;
  int threads = 0;  // 0 = OpenMP default
};

struct LegendreIsoResult {
  core::RadialBins bins;
  int lmax = 0;
  std::uint64_t n_primaries = 0;
  double sum_primary_weight = 0.0;
  std::uint64_t n_pairs = 0;
  // N_l(b1, b2) = sum_triplets w P_l(cos theta_12), b1 <= b2 flattened like
  // ZetaResult (includes degenerate j == k terms, matching the engine with
  // self-pairs kept).
  std::vector<double> multipoles;  // [bin_pair][l]

  double zeta_l(int l, int b1, int b2) const;
  double wall_seconds = 0.0;
};

LegendreIsoResult legendre_isotropic_3pcf(const sim::Catalog& catalog,
                                          const LegendreIsoConfig& cfg);

}  // namespace galactos::baseline
