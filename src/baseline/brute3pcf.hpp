// Validation oracles for the Galactos engine.
//
// 1. BruteForceTriplets — the literal O(N^3) estimator the paper's §1.3
//    says is infeasible at survey scale: loop over every (primary, j, k)
//    triplet, evaluate Y_lm(u_j) Y*_l'm(u_k) per triplet, bin by (r_j, r_k).
//    Exponentially slower but definitionally transparent; used on tiny
//    catalogs to pin down the estimator semantics (including degenerate
//    j == k "triplets", which correspond to the engine's self-pair terms).
//
// 2. DirectSummation3PCF — the same O(N^2) algorithm as the engine but via
//    per-secondary Y_lm evaluation instead of power sums, with no
//    bucketing, no SIMD lanes and no spatial index. An independent
//    implementation of every step the kernel optimizes; agreement with the
//    engine to ~1e-12 validates the entire optimized path.
//
// Both share the engine's LOS conventions (core/los.hpp) and produce
// ZetaResult so every accessor can be compared directly.
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "core/zeta.hpp"
#include "sim/catalog.hpp"

namespace galactos::baseline {

struct OracleConfig {
  core::RadialBins bins{1.0, 200.0, 10};
  int lmax = 10;
  core::LineOfSight los = core::LineOfSight::kPlaneParallelZ;
  sim::Vec3 observer{0.0, 0.0, 0.0};
  // Include j == k terms (matches the engine with subtract_self_pairs off).
  bool include_degenerate = true;
};

// O(N^3): use only for N ~< 200.
core::ZetaResult brute_force_triplets(const sim::Catalog& catalog,
                                      const OracleConfig& cfg);

// O(N^2) direct summation (no spatial index: all pairs tested). When
// `primaries` is given, only those catalog indices act as primaries (the
// engine's primaries contract); every point still acts as a secondary.
core::ZetaResult direct_summation(
    const sim::Catalog& catalog, const OracleConfig& cfg,
    const std::vector<std::int64_t>* primaries = nullptr);

}  // namespace galactos::baseline
