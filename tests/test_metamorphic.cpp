// Metamorphic tests: transformations of the input catalog under which the
// anisotropic 3PCF is exactly invariant, so the engine must return the
// same zeta^m_ll' (to summation-order round-off) without any oracle:
//
//   * a 90-degree rotation about the z line of sight, (x, y) -> (-y, x):
//     it only phases every a_lm by e^{-i m pi/2}, and each zeta^m_ll' is a
//     product a_lm a*_l'm of equal m, so the phase cancels;
//   * a permutation of the catalog: the estimator is a sum over primaries
//     and pairs, blind to input order (the k-d tree and the traversal
//     order do change, so this also catches order-dependent bugs);
//   * a translation of a periodic box, wrapped mod the side: every
//     minimum-image separation is unchanged, though which galaxies get
//     boundary ghosts (core::periodic_box_3pcf) changes completely.
//
// Coordinates sit on the 1/64 grid (testing::snapped_to_grid), so every
// separation and r^2 is exact in float as well as double: both precisions
// accept and bin exactly the same pairs, and only round-off in the
// multipole sums separates the runs. Tolerance: 1e-12 relative, with an
// absolute floor of 1e-12 x the largest payload element for coefficients
// that vanish by symmetry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/estimator.hpp"
#include "test_helpers.hpp"

namespace c = galactos::core;
namespace s = galactos::sim;
using galactos::testing::expect_results_match;

namespace {

c::EngineConfig config(c::TreePrecision precision) {
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(1.0, 12.0, 4);
  cfg.lmax = 6;
  cfg.threads = 2;
  cfg.tree.precision = precision;
  return cfg;
}

s::Catalog input() {
  return galactos::testing::snapped_to_grid(
      galactos::testing::clumpy_catalog(1500, 60.0, 2026));
}

void expect_invariant(const c::ZetaResult& got, const c::ZetaResult& ref) {
  double scale = 0.0;
  for (double v : ref.reduce_payload()) scale = std::max(scale, std::abs(v));
  ASSERT_GT(scale, 0.0);
  EXPECT_EQ(got.n_pairs, ref.n_pairs);
  expect_results_match(got, ref, 1e-12, 1e-12 * scale);
}

class Metamorphic : public ::testing::TestWithParam<c::TreePrecision> {};

TEST_P(Metamorphic, QuarterTurnAboutLineOfSight) {
  const s::Catalog cat = input();
  s::Catalog turned;
  for (std::size_t i = 0; i < cat.size(); ++i)
    turned.push_back(-cat.y[i], cat.x[i], cat.z[i], cat.w[i]);
  const c::Engine engine(config(GetParam()));
  expect_invariant(engine.run(turned), engine.run(cat));
}

TEST_P(Metamorphic, CatalogPermutation) {
  const s::Catalog cat = input();
  std::vector<std::size_t> order(cat.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), std::mt19937_64(31));
  s::Catalog shuffled;
  for (std::size_t i : order) shuffled.push_back(cat.position(i), cat.w[i]);
  const c::Engine engine(config(GetParam()));
  expect_invariant(engine.run(shuffled), engine.run(cat));
}

TEST_P(Metamorphic, PeriodicTranslation) {
  const double side = 60.0;  // input() fills [0, 60]^3
  const s::Aabb box = s::Aabb::cube(side);
  const s::Catalog cat = input();
  // Multiples of 1/64: shifted and wrapped coordinates stay on the grid.
  const s::Vec3 shift{17.25, 41.0 + 3.0 / 64, 29.0 + 45.0 / 64};
  const auto wrap = [side](double v) { return v >= side ? v - side : v; };
  s::Catalog moved;
  for (std::size_t i = 0; i < cat.size(); ++i)
    moved.push_back(wrap(cat.x[i] + shift.x), wrap(cat.y[i] + shift.y),
                    wrap(cat.z[i] + shift.z), cat.w[i]);
  const c::EngineConfig cfg = config(GetParam());
  expect_invariant(c::periodic_box_3pcf(moved, box, cfg),
                   c::periodic_box_3pcf(cat, box, cfg));
}

INSTANTIATE_TEST_SUITE_P(Precision, Metamorphic,
                         ::testing::Values(c::TreePrecision::kMixed,
                                           c::TreePrecision::kDouble),
                         [](const auto& info) {
                           return info.param == c::TreePrecision::kMixed
                                      ? std::string("mixed")
                                      : std::string("double");
                         });

}  // namespace
