// k-d tree: correctness against brute-force neighbor search, across
// precisions, leaf sizes and degenerate inputs (property-style sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "math/rng.hpp"
#include "sim/generators.hpp"
#include "test_helpers.hpp"
#include "tree/kdtree.hpp"

namespace s = galactos::sim;
namespace t = galactos::tree;

namespace {

// Brute-force reference: indices of points with |p - q| <= r (double math).
std::set<std::int64_t> brute_neighbors(const s::Catalog& c, double qx,
                                       double qy, double qz, double r) {
  std::set<std::int64_t> out;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const double dx = c.x[i] - qx, dy = c.y[i] - qy, dz = c.z[i] - qz;
    if (dx * dx + dy * dy + dz * dz <= r * r)
      out.insert(static_cast<std::int64_t>(i));
  }
  return out;
}

}  // namespace

struct KdTreeCase {
  int n;
  int leaf;
  std::uint64_t seed;
};

class KdTreeProperty : public ::testing::TestWithParam<KdTreeCase> {};

TEST_P(KdTreeProperty, DoubleTreeMatchesBruteForce) {
  const auto [n, leaf, seed] = GetParam();
  const s::Catalog c = s::uniform_box(n, s::Aabb::cube(100), seed);
  t::KdTree<double>::BuildParams bp;
  bp.leaf_size = leaf;
  const t::KdTree<double> tree(c, bp);
  EXPECT_EQ(tree.size(), c.size());

  galactos::math::Rng rng(seed + 1);
  t::NeighborList<double> nl;
  for (int q = 0; q < 20; ++q) {
    const double qx = rng.uniform(-10, 110);
    const double qy = rng.uniform(-10, 110);
    const double qz = rng.uniform(-10, 110);
    const double r = rng.uniform(1.0, 40.0);
    nl.clear();
    tree.gather_neighbors(qx, qy, qz, r, nl);
    std::set<std::int64_t> got(nl.idx.begin(), nl.idx.end());
    EXPECT_EQ(got.size(), nl.size());  // no duplicates
    EXPECT_EQ(got, brute_neighbors(c, qx, qy, qz, r));
    EXPECT_EQ(tree.count_within(qx, qy, qz, r), nl.size());
    // Separations and r2 are consistent.
    for (std::size_t i = 0; i < nl.size(); ++i) {
      const double rr =
          nl.dx[i] * nl.dx[i] + nl.dy[i] * nl.dy[i] + nl.dz[i] * nl.dz[i];
      EXPECT_NEAR(nl.r2[i], rr, 1e-12);
      EXPECT_LE(rr, r * r * (1 + 1e-12));
    }
  }
}

// The leaf-blocked gather (the engine's only gather): every leaf's block
// must hold each of its points' brute-force neighbors, once, with catalog
// coordinates.
TEST_P(KdTreeProperty, DoubleTreeLeafGatherCoversBruteForce) {
  const auto [n, leaf, seed] = GetParam();
  const s::Catalog c = s::uniform_box(n, s::Aabb::cube(100), seed);
  const double r = 12.0;
  t::KdTree<double>::BuildParams bp;
  bp.leaf_size = leaf;
  const t::KdTree<double> tree(c, bp);

  t::NeighborBlock<double> block;
  for (std::size_t l = 0; l < tree.leaf_count(); ++l) {
    block.clear();
    tree.gather_leaf_neighbors(l, r, block);
    const std::set<std::int64_t> got(block.idx.begin(), block.idx.end());
    ASSERT_EQ(got.size(), block.size()) << "leaf " << l;  // no duplicates
    for (std::size_t k = 0; k < block.size(); ++k) {
      const auto o = static_cast<std::size_t>(block.idx[k]);
      ASSERT_LT(o, c.size());
      EXPECT_EQ(block.x[k], c.x[o]);
      EXPECT_EQ(block.y[k], c.y[o]);
      EXPECT_EQ(block.z[k], c.z[o]);
      EXPECT_EQ(block.w[k], c.w[o]);
    }
    for (std::int32_t i = tree.leaf_begin(l); i < tree.leaf_end(l); ++i) {
      const auto o = static_cast<std::size_t>(tree.original_index(i));
      for (std::int64_t j : brute_neighbors(c, c.x[o], c.y[o], c.z[o], r))
        ASSERT_TRUE(got.count(j)) << "leaf " << l << " point " << o
                                  << " misses neighbor " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KdTreeProperty,
    ::testing::Values(KdTreeCase{100, 1, 1}, KdTreeCase{100, 8, 2},
                      KdTreeCase{1000, 16, 3}, KdTreeCase{1000, 32, 4},
                      KdTreeCase{5000, 32, 5}, KdTreeCase{5000, 64, 6},
                      KdTreeCase{317, 7, 7}, KdTreeCase{4096, 32, 8}));

// Everything a build produces that the engine reads: per leaf its storage
// range, box, stored points and gathered block.
template <typename Real>
struct BuiltTree {
  std::size_t nodes = 0;
  std::vector<std::int32_t> begin, end;
  std::vector<Real> box;  // lo[3], hi[3] per leaf
  std::vector<std::int64_t> orig;
  std::vector<Real> xs, ys, zs;
  std::vector<std::vector<std::int64_t>> block_idx;
  std::vector<std::vector<Real>> block_x;
};

template <typename Real>
BuiltTree<Real> describe(const s::Catalog& c, int leaf, int threads,
                         double r) {
  typename t::KdTree<Real>::BuildParams bp;
  bp.leaf_size = leaf;
  bp.threads = threads;
  const t::KdTree<Real> tree(c, bp);
  BuiltTree<Real> out;
  out.nodes = tree.node_count();
  for (std::size_t i = 0; i < tree.size(); ++i) {
    out.orig.push_back(tree.original_index(i));
    out.xs.push_back(tree.x(i));
    out.ys.push_back(tree.y(i));
    out.zs.push_back(tree.z(i));
  }
  t::NeighborBlock<Real> block;
  for (std::size_t l = 0; l < tree.leaf_count(); ++l) {
    out.begin.push_back(tree.leaf_begin(l));
    out.end.push_back(tree.leaf_end(l));
    Real lo[3], hi[3];
    tree.leaf_box(l, lo, hi);
    out.box.insert(out.box.end(), lo, lo + 3);
    out.box.insert(out.box.end(), hi, hi + 3);
    block.clear();
    tree.gather_leaf_neighbors(l, r, block);
    out.block_idx.push_back(block.idx);
    out.block_x.push_back(block.x);
  }
  return out;
}

// The task-parallel build splices its subtrees back in the serial build's
// preorder, so the tree is the same at any thread count: leaf ranges and
// boxes, the storage permutation and every gathered block. The catalogs
// are large enough for three levels of tasks; `pile` stacks most of its
// points on one spot, so a range above the task grain ends as a leaf.
template <typename Real>
void expect_build_independent_of_threads(const s::Catalog& c, int leaf,
                                         double r) {
  const BuiltTree<Real> ref = describe<Real>(c, leaf, 1, r);
  ASSERT_EQ(ref.orig.size(), c.size());
  for (int threads : {2, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    const BuiltTree<Real> got = describe<Real>(c, leaf, threads, r);
    EXPECT_EQ(got.nodes, ref.nodes);
    EXPECT_EQ(got.begin, ref.begin);
    EXPECT_EQ(got.end, ref.end);
    EXPECT_EQ(got.box, ref.box);
    EXPECT_EQ(got.orig, ref.orig);
    EXPECT_EQ(got.xs, ref.xs);
    EXPECT_EQ(got.ys, ref.ys);
    EXPECT_EQ(got.zs, ref.zs);
    EXPECT_EQ(got.block_idx, ref.block_idx);
    EXPECT_EQ(got.block_x, ref.block_x);
  }
}

s::Catalog build_catalog(const std::string& kind) {
  constexpr std::size_t kN = 36000;  // > 4 x the serial-build grain
  if (kind == "uniform") return s::uniform_box(kN, s::Aabb::cube(120), 41);
  if (kind == "clumpy")
    return galactos::testing::clumpy_catalog(kN, 120.0, 42);
  // A corner pile larger than half the catalog: the root's upper half is
  // all pile.
  s::Catalog c = s::uniform_box(kN * 4 / 9, s::Aabb::cube(120), 43);
  while (c.size() < kN) c.push_back(120, 120, 120, 1.0);
  return c;
}

using BuildCase = std::tuple<std::string, int>;  // catalog, leaf size

class KdTreeBuildThreads : public ::testing::TestWithParam<BuildCase> {};

TEST_P(KdTreeBuildThreads, FloatTreeIdentical) {
  const auto& [kind, leaf] = GetParam();
  expect_build_independent_of_threads<float>(build_catalog(kind), leaf, 5.0);
}

TEST_P(KdTreeBuildThreads, DoubleTreeIdentical) {
  const auto& [kind, leaf] = GetParam();
  expect_build_independent_of_threads<double>(build_catalog(kind), leaf, 5.0);
}

TEST(KdTree, PileHasLeavesAboveTheTaskGrain) {
  const BuiltTree<double> built =
      describe<double>(build_catalog("pile"), 5, 2, 5.0);
  std::int32_t largest = 0;
  for (std::size_t l = 0; l < built.begin.size(); ++l)
    largest = std::max(largest, built.end[l] - built.begin[l]);
  EXPECT_GT(largest, t::KdTree<double>::kBuildGrain);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KdTreeBuildThreads,
    ::testing::Combine(::testing::Values("uniform", "clumpy", "pile"),
                       ::testing::Values(5, 32)),
    [](const ::testing::TestParamInfo<BuildCase>& info) {
      return std::get<0>(info.param) + "_leaf" +
             std::to_string(std::get<1>(info.param));
    });

TEST(KdTree, FloatTreeMatchesBruteForceAwayFromBoundary) {
  // Float rounding can flip membership of points within ~1e-5 relative of
  // the query radius; exclude a shell of width eps when comparing.
  const s::Catalog c = s::uniform_box(4000, s::Aabb::cube(1000), 17);
  const t::KdTree<float> tree(c);
  galactos::math::Rng rng(18);
  t::NeighborList<float> nl;
  for (int q = 0; q < 15; ++q) {
    const double qx = rng.uniform(0, 1000), qy = rng.uniform(0, 1000),
                 qz = rng.uniform(0, 1000);
    const double r = rng.uniform(50, 200);
    const double eps = 1e-3 * r;
    nl.clear();
    tree.gather_neighbors(qx, qy, qz, r, nl);
    const std::set<std::int64_t> got(nl.idx.begin(), nl.idx.end());
    const auto inner = brute_neighbors(c, qx, qy, qz, r - eps);
    const auto outer = brute_neighbors(c, qx, qy, qz, r + eps);
    for (std::int64_t i : inner) EXPECT_TRUE(got.count(i)) << i;
    for (std::int64_t i : got) EXPECT_TRUE(outer.count(i)) << i;
  }
}

TEST(KdTree, EmptyAndSingleton) {
  const s::Catalog empty;
  const t::KdTree<double> te(empty);
  t::NeighborList<double> nl;
  te.gather_neighbors(0, 0, 0, 10, nl);
  EXPECT_EQ(nl.size(), 0u);

  s::Catalog one;
  one.push_back(1, 2, 3, 5.0);
  const t::KdTree<double> t1(one);
  t1.gather_neighbors(1, 2, 3, 0.5, nl);
  ASSERT_EQ(nl.size(), 1u);
  EXPECT_EQ(nl.idx[0], 0);
  EXPECT_DOUBLE_EQ(nl.w[0], 5.0);
  EXPECT_DOUBLE_EQ(nl.r2[0], 0.0);
}

TEST(KdTree, QueryRadiusBeyondExtentReturnsAll) {
  // A reach larger than the whole catalog (e.g. the isotropic baseline with
  // R_max past the box diagonal) must return every point exactly once.
  const s::Catalog c = s::uniform_box(600, s::Aabb::cube(30), 19);
  const t::KdTree<double> tree(c);
  t::NeighborList<double> nl;
  tree.gather_neighbors(15, 15, 15, 1000.0, nl);
  EXPECT_EQ(std::set<std::int64_t>(nl.idx.begin(), nl.idx.end()),
            brute_neighbors(c, 15, 15, 15, 1000.0));
  EXPECT_EQ(nl.size(), c.size());
}

TEST(KdTree, DuplicatePointsAllReturned) {
  s::Catalog c;
  for (int i = 0; i < 100; ++i) c.push_back(5, 5, 5, i);
  for (int i = 0; i < 50; ++i) c.push_back(8, 8, 8);
  const t::KdTree<double> tree(c);
  t::NeighborList<double> nl;
  tree.gather_neighbors(5, 5, 5, 1.0, nl);
  EXPECT_EQ(nl.size(), 100u);
  nl.clear();
  tree.gather_neighbors(6.5, 6.5, 6.5, 10.0, nl);
  EXPECT_EQ(nl.size(), 150u);
}

TEST(KdTree, WeightsAndIndicesPreserved) {
  s::Catalog c;
  for (int i = 0; i < 500; ++i)
    c.push_back(i * 0.1, 0, 0, 1000.0 + i);
  const t::KdTree<double> tree(c);
  t::NeighborList<double> nl;
  tree.gather_neighbors(25.0, 0, 0, 1.05, nl);
  ASSERT_GT(nl.size(), 0u);
  for (std::size_t i = 0; i < nl.size(); ++i)
    EXPECT_DOUBLE_EQ(nl.w[i], 1000.0 + nl.idx[i]);
}

TEST(KdTree, RadiusZeroReturnsOnlyCoincident) {
  const s::Catalog c = s::uniform_box(100, s::Aabb::cube(10), 3);
  const t::KdTree<double> tree(c);
  t::NeighborList<double> nl;
  tree.gather_neighbors(c.x[7], c.y[7], c.z[7], 0.0, nl);
  ASSERT_EQ(nl.size(), 1u);
  EXPECT_EQ(nl.idx[0], 7);
}

TEST(KdTree, ClusteredDataDeepTree) {
  // Highly clustered data stresses the splitting logic.
  const s::Aabb box = s::Aabb::cube(50);
  s::LevyFlightParams p;
  p.r0 = 0.01;
  const s::Catalog c = s::levy_flight(3000, box, 23, p);
  const t::KdTree<double> tree(c, {4});
  t::NeighborList<double> nl;
  tree.gather_neighbors(25, 25, 25, 5.0, nl);
  EXPECT_EQ(std::set<std::int64_t>(nl.idx.begin(), nl.idx.end()),
            brute_neighbors(c, 25, 25, 25, 5.0));
}
