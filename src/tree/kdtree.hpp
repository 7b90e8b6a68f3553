// Node-local k-d tree (paper §3.1/§3.3): median-split over the widest
// dimension, points reordered into contiguous leaf ranges, per-node bounding
// boxes for pruning. Templated on coordinate precision: the paper runs the
// tree search in single precision ("mixed" mode) because galaxy positions
// are insensitive to float rounding, while all multipole math stays double.
//
// Cache-aware layout: leaf storage is laid out in Morton (Z-order) of the
// leaf centers and the coordinate planes live in SIMD-aligned buffers padded
// to the lane width. It is storage-side only: tree topology and every
// query's candidate order are unchanged, so per-primary results stay
// bitwise identical to an unsorted build.
//
// The build can use several threads (BuildParams::threads) and yields the
// serial build's tree — node ids, leaf order, storage permutation — at any
// thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/box.hpp"
#include "sim/catalog.hpp"
#include "tree/neighbors.hpp"
#include "util/aligned.hpp"

namespace galactos::tree {

template <typename Real>
class KdTree {
 public:
  struct BuildParams {
    int leaf_size = 32;
    // Morton-order the leaf storage (pure permutation; see header comment).
    bool morton = true;
    // Build threads. Catalogs up to kBuildGrain points build serially, so
    // small indexes never open a parallel region.
    int threads = 1;
  };
  // Subtrees of at most this many points build serially (no tasks).
  static constexpr std::int32_t kBuildGrain = 8192;

  KdTree() = default;
  explicit KdTree(const sim::Catalog& catalog, BuildParams params = {});

  std::size_t size() const { return n_; }
  std::size_t node_count() const { return nodes_.size(); }

  // Appends every point with |p - q|^2 <= rmax^2 to `out` (separations
  // p - q computed in Real precision). The query point itself, if present
  // in the tree, is returned too (r2 == 0) — callers filter by index.
  void gather_neighbors(double qx, double qy, double qz, double rmax,
                        NeighborList<Real>& out) const;

  // Count of points within rmax (used by load-balance diagnostics).
  std::size_t count_within(double qx, double qy, double qz,
                           double rmax) const;

  // --- Leaf-blocked traversal (paper §3.3) ---------------------------------
  //
  // Leaves are contiguous storage ranges (Morton order of leaf centers by
  // default); one pruned node-vs-node traversal per source leaf collects
  // every point within rmax of the leaf's bounding box, so a single gather
  // serves all ~leaf_size primaries stored in the leaf. Pruning is
  // two-tier: box-box distance at the node level, then a per-point box
  // refinement against the query box — both in Real arithmetic that never
  // exceeds any contained primary's point distance, so the block is an
  // exact superset of each per-primary gather and the engine's r2 filter
  // recovers identical pair sets in identical order.
  std::size_t leaf_count() const { return leaves_.size(); }
  std::int32_t leaf_begin(std::size_t leaf) const {
    return nodes_[leaves_[leaf]].begin;
  }
  std::int32_t leaf_end(std::size_t leaf) const {
    return nodes_[leaves_[leaf]].end;
  }
  void gather_leaf_neighbors(std::size_t leaf, double rmax,
                             NeighborBlock<Real>& out) const;

  // Bounding box of the leaf's stored points (conservative in Real). The
  // engine hands it to a SECONDARY index's gather_box_neighbors so halo
  // points union into the leaf's candidate block (staged distributed runs),
  // and tests it against the two-pass SecondaryBound.
  void leaf_box(std::size_t leaf, Real lo[3], Real hi[3]) const;

  // Appends every point a Real-precision query from inside [lo, hi] could
  // accept within rmax to `out` — the external-box generalization of
  // gather_leaf_neighbors, same two-tier pruning, so the block is a
  // superset of any per-point gather from inside the box.
  void gather_box_neighbors(const Real lo[3], const Real hi[3], double rmax,
                            NeighborBlock<Real>& out) const;

  // LET admissibility walk (tree/let.hpp, dist halo compression): one
  // pruned traversal collecting every leaf whose bounding box lies within
  // `rmax` of [lo, hi] — exactly the leaves a query from inside the box
  // could touch, with whole subtrees skipped at the coarsest inadmissible
  // level. Returns ascending leaf ordinals (addressable via leaf_begin /
  // leaf_end / leaf_box); leaf_count() - result.size() leaves were pruned.
  // Conservative in the same Real box-box arithmetic as the traversal
  // pruning, so the surviving set is a superset of any per-point gather
  // from inside the box.
  std::vector<std::size_t> leaves_in_reach(const Real lo[3], const Real hi[3],
                                           double rmax) const;

  // Storage-order access (for iteration over all points).
  Real x(std::size_t i) const { return xs_[i]; }
  Real y(std::size_t i) const { return ys_[i]; }
  Real z(std::size_t i) const { return zs_[i]; }
  double weight(std::size_t i) const { return ws_[i]; }
  std::int64_t original_index(std::size_t i) const { return orig_[i]; }

  // Raw coordinate planes — SIMD-aligned, padded to the lane width (tests
  // assert the alignment; the padded tail is zero-initialized).
  const Real* x_plane() const { return xs_.data(); }
  const Real* y_plane() const { return ys_.data(); }
  const Real* z_plane() const { return zs_.data(); }
  std::size_t plane_size() const { return xs_.size(); }  // padded length

 private:
  struct Node {
    // Bounding box of the points in [begin, end).
    Real lo[3], hi[3];
    std::int32_t begin, end;
    std::int32_t left = -1, right = -1;  // children; -1 => leaf
  };

  // A subtree in depth-first preorder: node ids local to the part (its
  // root is node 0), leaves as local node ids in preorder.
  struct Part {
    std::vector<Node> nodes;
    std::vector<std::int32_t> leaves;
  };

  // Builds perm[begin, end) as a subtree appended to `out` and returns its
  // root's id there. With `tasks`, ranges above kBuildGrain build their
  // halves as OpenMP tasks into parts spliced back in preorder (call from
  // one thread of a parallel region).
  static std::int32_t build(std::int32_t begin, std::int32_t end,
                            std::vector<std::int32_t>& perm,
                            const sim::Catalog& catalog, int leaf_size,
                            bool tasks, Part& out);

  // Reorders `leaves_` by the Morton key of each leaf-box center and
  // rewrites the leaf nodes' [begin, end) to the new storage layout,
  // returning the point permutation new-slot -> build-slot. Internal nodes'
  // ranges are left stale — no query reads them (traversal descends by
  // child ids and only leaf_fn touches begin/end).
  std::vector<std::int32_t> morton_order_leaves(int threads);

  // Copies the points of [begin, end) that survive the point-box
  // refinement against [lo, hi] into `out`.
  void append_refined(std::int32_t begin, std::int32_t end, const Real lo[3],
                      const Real hi[3], Real r2max,
                      NeighborBlock<Real>& out) const;

  // Single traversal core shared by all queries: depth-first from the
  // root, skipping subtrees where prune(node) is true and handing reached
  // leaves to leaf_fn(node). All queries therefore visit surviving leaves
  // in one canonical order — the property the leaf-blocked engine relies
  // on for bitwise equivalence with the per-primary path.
  template <typename Prune, typename LeafFn>
  void traverse(Prune&& prune, LeafFn&& leaf_fn) const;

  std::vector<Node> nodes_;  // depth-first preorder: the root is node 0
  std::vector<std::int32_t> leaves_;  // leaf node ids, storage order
  std::size_t n_ = 0;
  AlignedBuffer<Real> xs_, ys_, zs_;  // padded to the SIMD lane width
  std::vector<double> ws_;
  std::vector<std::int64_t> orig_;

};

extern template class KdTree<float>;
extern template class KdTree<double>;

}  // namespace galactos::tree
