// Cache-aware traversal layout: Morton keys, the Z-order storage
// permutation and SIMD plane alignment.
//
// The layout invariants under test are the ones the engine's equivalence
// story rests on: Morton ordering is a pure storage permutation (per-query
// candidate sequences bitwise unchanged), and the coordinate planes are
// aligned and padded to the SIMD lane width with a zeroed tail.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "math/rng.hpp"
#include "sim/generators.hpp"
#include "test_helpers.hpp"
#include "tree/kdtree.hpp"
#include "tree/morton.hpp"
#include "util/aligned.hpp"

namespace s = galactos::sim;
namespace t = galactos::tree;
using galactos::kSimdAlign;

TEST(Morton, SpreadDilatesBitsThreeApart) {
  EXPECT_EQ(t::morton_spread3(0), 0u);
  EXPECT_EQ(t::morton_spread3(1), 1u);
  EXPECT_EQ(t::morton_spread3(0b11), 0b1001u);
  EXPECT_EQ(t::morton_spread3(0b101), 0b1000001u);
  // Full 21-bit input occupies every third bit of the 63-bit result.
  EXPECT_EQ(t::morton_spread3(0x1fffff), 0x1249249249249249ull);
  // Bits above 21 are masked off, not smeared into the key.
  EXPECT_EQ(t::morton_spread3(1ull << 21), 0u);
}

TEST(Morton, EncodeInterleavesXYZ) {
  EXPECT_EQ(t::morton_encode3(0, 0, 0), 0u);
  EXPECT_EQ(t::morton_encode3(1, 0, 0), 1u);
  EXPECT_EQ(t::morton_encode3(0, 1, 0), 2u);
  EXPECT_EQ(t::morton_encode3(0, 0, 1), 4u);
  EXPECT_EQ(t::morton_encode3(1, 1, 1), 7u);
  EXPECT_EQ(t::morton_encode3(2, 0, 0), 8u);
  EXPECT_EQ(t::morton_encode3(0, 0, 2), 32u);
  // Max cell on every axis fills all 63 bits.
  EXPECT_EQ(t::morton_encode3(0x1fffff, 0x1fffff, 0x1fffff),
            0x7fffffffffffffffull);
}

TEST(Morton, KeyQuantizesIntoTheBox) {
  const double lo[3] = {-10.0, 0.0, 5.0};
  const double hi[3] = {10.0, 4.0, 6.0};
  EXPECT_EQ(t::morton_key(-10.0, 0.0, 5.0, lo, hi), 0u);
  EXPECT_EQ(t::morton_key(10.0, 4.0, 6.0, lo, hi),
            t::morton_encode3(0x1fffff, 0x1fffff, 0x1fffff));
  // Out-of-box points clamp instead of wrapping.
  EXPECT_EQ(t::morton_key(-99.0, -99.0, -99.0, lo, hi), 0u);
  EXPECT_EQ(t::morton_key(99.0, 99.0, 99.0, lo, hi),
            t::morton_key(10.0, 4.0, 6.0, lo, hi));
  // A degenerate extent collapses that axis to cell 0.
  const double flat_hi[3] = {10.0, 0.0, 6.0};
  const std::uint64_t k = t::morton_key(0.0, 123.0, 5.5, lo, flat_hi);
  EXPECT_EQ(k, t::morton_key(0.0, -77.0, 5.5, lo, flat_hi));
  const double point_hi[3] = {-10.0, 0.0, 5.0};
  EXPECT_EQ(t::morton_key(1.0, 2.0, 3.0, lo, point_hi), 0u);
}

namespace {

// Asserts the index stores exactly the catalog, i.e. the Morton layout is a
// permutation: original_index is a bijection onto [0, n) and every stored
// point carries its catalog coordinates and weight.
template <typename Real>
void expect_is_permutation(const t::KdTree<Real>& idx, const s::Catalog& cat) {
  ASSERT_EQ(idx.size(), cat.size());
  std::vector<std::int64_t> orig(cat.size());
  for (std::size_t i = 0; i < cat.size(); ++i) {
    orig[i] = idx.original_index(i);
    const auto o = static_cast<std::size_t>(orig[i]);
    ASSERT_LT(o, cat.size());
    EXPECT_EQ(idx.x(i), static_cast<Real>(cat.x[o]));
    EXPECT_EQ(idx.y(i), static_cast<Real>(cat.y[o]));
    EXPECT_EQ(idx.z(i), static_cast<Real>(cat.z[o]));
    EXPECT_DOUBLE_EQ(idx.weight(i), cat.w[o]);
  }
  std::sort(orig.begin(), orig.end());
  for (std::size_t i = 0; i < orig.size(); ++i)
    ASSERT_EQ(orig[i], static_cast<std::int64_t>(i));
}

template <typename Real>
void expect_planes_aligned(const t::KdTree<Real>& idx) {
  constexpr std::size_t lanes = kSimdAlign / sizeof(Real);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(idx.x_plane()) % kSimdAlign, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(idx.y_plane()) % kSimdAlign, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(idx.z_plane()) % kSimdAlign, 0u);
  EXPECT_EQ(idx.plane_size() % lanes, 0u);
  EXPECT_GE(idx.plane_size(), idx.size());
  EXPECT_LT(idx.plane_size(), idx.size() + lanes);
  for (std::size_t i = idx.size(); i < idx.plane_size(); ++i) {
    EXPECT_EQ(idx.x_plane()[i], Real(0));
    EXPECT_EQ(idx.y_plane()[i], Real(0));
    EXPECT_EQ(idx.z_plane()[i], Real(0));
  }
}

}  // namespace

TEST(Morton, KdTreeStorageIsAPermutation) {
  const s::Catalog cat = s::uniform_box(777, s::Aabb::cube(50), 31);
  t::KdTree<double>::BuildParams bp;
  bp.leaf_size = 8;
  const t::KdTree<double> tree(cat, bp);
  expect_is_permutation(tree, cat);
  // Leaves tile the storage contiguously after the reorder.
  std::vector<char> covered(cat.size(), 0);
  for (std::size_t l = 0; l < tree.leaf_count(); ++l) {
    ASSERT_LE(tree.leaf_begin(l), tree.leaf_end(l));
    for (std::int32_t i = tree.leaf_begin(l); i < tree.leaf_end(l); ++i) {
      ASSERT_EQ(covered[static_cast<std::size_t>(i)], 0);
      covered[static_cast<std::size_t>(i)] = 1;
    }
  }
  EXPECT_EQ(std::count(covered.begin(), covered.end(), 1),
            static_cast<std::ptrdiff_t>(cat.size()));
}

TEST(Morton, PlanesAlignedAndPadded) {
  const s::Catalog cat = s::uniform_box(333, s::Aabb::cube(40), 33);
  expect_planes_aligned(t::KdTree<double>(cat));
  expect_planes_aligned(t::KdTree<float>(cat));
}

TEST(Morton, EmptyAndTinyCatalogsBuild) {
  const s::Catalog empty;
  const t::KdTree<double> te(empty);
  EXPECT_EQ(te.size(), 0u);
  s::Catalog one;
  one.push_back(1, 2, 3, 4.0);
  expect_is_permutation(t::KdTree<double>(one), one);
}

// Morton on vs off: every per-point gather must return bitwise identical
// sequences — same candidate order, same separations — because the layout
// permutes storage only, never the traversal topology. Both precisions:
// float backs kMixed, double backs kDouble and the isotropic baseline.
template <typename Real>
void expect_gather_independent_of_layout(std::uint64_t seed) {
  const s::Catalog cat = galactos::testing::clumpy_catalog(1200, 70.0, seed);
  typename t::KdTree<Real>::BuildParams on, off;
  on.leaf_size = off.leaf_size = 16;
  off.morton = false;
  const t::KdTree<Real> a(cat, on), b(cat, off);
  galactos::math::Rng rng(seed + 1);
  t::NeighborList<Real> la, lb;
  for (int q = 0; q < 25; ++q) {
    const double qx = rng.uniform(0, 70), qy = rng.uniform(0, 70),
                 qz = rng.uniform(0, 70);
    const double r = rng.uniform(2.0, 25.0);
    la.clear();
    lb.clear();
    a.gather_neighbors(qx, qy, qz, r, la);
    b.gather_neighbors(qx, qy, qz, r, lb);
    EXPECT_EQ(la.idx, lb.idx);
    EXPECT_EQ(la.dx, lb.dx);
    EXPECT_EQ(la.dy, lb.dy);
    EXPECT_EQ(la.dz, lb.dz);
    EXPECT_EQ(la.r2, lb.r2);
    EXPECT_EQ(la.w, lb.w);
  }
}

TEST(Morton, KdTreeGatherBitwiseIndependentOfLayout) {
  expect_gather_independent_of_layout<float>(34);
}

TEST(Morton, DoubleTreeGatherBitwiseIndependentOfLayout) {
  expect_gather_independent_of_layout<double>(36);
}
