#include "tree/kdtree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "tree/morton.hpp"
#include "util/check.hpp"

namespace galactos::tree {

namespace {

// fn(i) for i in [0, n), statically split over `threads`; one thread runs
// the plain loop (even an inactive parallel region raised peak RSS).
template <typename Fn>
void parallel_for(int threads, std::int32_t n, const Fn& fn) {
  if (threads > 1) {
#pragma omp parallel for schedule(static) num_threads(threads)
    for (std::int32_t i = 0; i < n; ++i) fn(i);
  } else {
    for (std::int32_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace

template <typename Real>
KdTree<Real>::KdTree(const sim::Catalog& catalog, BuildParams params) {
  GLX_CHECK(params.leaf_size >= 1 && params.threads >= 1);
  const std::size_t n = catalog.size();
  if (n == 0) return;
  GLX_CHECK_MSG(n < static_cast<std::size_t>(
                        std::numeric_limits<std::int32_t>::max()),
                "catalog too large for 32-bit tree indices");
  const std::int32_t n32 = static_cast<std::int32_t>(n);
  // One thread unless the catalog has work for more than one task.
  const int threads = n32 > kBuildGrain ? params.threads : 1;

  std::vector<std::int32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);

  Part tree;
  tree.nodes.reserve(2 * n / params.leaf_size + 8);
  if (threads > 1) {
#pragma omp parallel num_threads(threads)
#pragma omp single
    build(0, n32, perm, catalog, params.leaf_size, true, tree);
  } else {
    build(0, n32, perm, catalog, params.leaf_size, false, tree);
  }
  nodes_ = std::move(tree.nodes);
  leaves_ = std::move(tree.leaves);

  // Storage layout: Morton order of the leaf centers (cache-adjacent
  // leaves are space-adjacent) composed with the build permutation; plain
  // tree order when disabled. `slot[i]` is the build-order position stored
  // at final position i.
  std::vector<std::int32_t> slot;
  if (params.morton && leaves_.size() > 1) slot = morton_order_leaves(threads);

  // Reorder coordinates into contiguous leaf ranges, SoA planes padded to
  // the SIMD lane width (zeroed tail — never gathered, loops stop at end).
  n_ = n;
  const std::size_t lanes = kSimdAlign / sizeof(Real);
  const std::size_t padded = (n + lanes - 1) / lanes * lanes;
  xs_.reset(padded);
  ys_.reset(padded);
  zs_.reset(padded);
  ws_.resize(n);
  orig_.resize(n);
  parallel_for(threads, n32, [&](std::int32_t i) {
    const std::int32_t p = perm[slot.empty() ? i : slot[i]];
    xs_[i] = static_cast<Real>(catalog.x[p]);
    ys_[i] = static_cast<Real>(catalog.y[p]);
    zs_[i] = static_cast<Real>(catalog.z[p]);
    ws_[i] = catalog.w[p];
    orig_[i] = p;
  });
  for (std::size_t i = n; i < padded; ++i) xs_[i] = ys_[i] = zs_[i] = 0;
}

template <typename Real>
std::int32_t KdTree<Real>::build(std::int32_t begin, std::int32_t end,
                                 std::vector<std::int32_t>& perm,
                                 const sim::Catalog& catalog, int leaf_size,
                                 bool tasks, Part& out) {
  const std::int32_t id = static_cast<std::int32_t>(out.nodes.size());
  out.nodes.emplace_back();

  // Bounding box over [begin, end).
  double lo[3] = {std::numeric_limits<double>::max(),
                  std::numeric_limits<double>::max(),
                  std::numeric_limits<double>::max()};
  double hi[3] = {std::numeric_limits<double>::lowest(),
                  std::numeric_limits<double>::lowest(),
                  std::numeric_limits<double>::lowest()};
  for (std::int32_t i = begin; i < end; ++i) {
    const std::int32_t p = perm[i];
    const double c[3] = {catalog.x[p], catalog.y[p], catalog.z[p]};
    for (int d = 0; d < 3; ++d) {
      lo[d] = std::min(lo[d], c[d]);
      hi[d] = std::max(hi[d], c[d]);
    }
  }
  {
    Node& nd = out.nodes[id];
    for (int d = 0; d < 3; ++d) {
      // Round the box conservatively outward when Real is float.
      nd.lo[d] = static_cast<Real>(lo[d]);
      nd.hi[d] = static_cast<Real>(hi[d]);
      if (static_cast<double>(nd.lo[d]) > lo[d])
        nd.lo[d] = std::nextafter(nd.lo[d], std::numeric_limits<Real>::lowest());
      if (static_cast<double>(nd.hi[d]) < hi[d])
        nd.hi[d] = std::nextafter(nd.hi[d], std::numeric_limits<Real>::max());
    }
    nd.begin = begin;
    nd.end = end;
  }

  if (end - begin <= leaf_size) {
    out.leaves.push_back(id);
    return id;
  }

  // Median split along the widest dimension.
  int dim = 0;
  double best = hi[0] - lo[0];
  for (int d = 1; d < 3; ++d)
    if (hi[d] - lo[d] > best) {
      best = hi[d] - lo[d];
      dim = d;
    }
  if (best == 0.0) {  // all points coincide; keep as (large) leaf
    out.leaves.push_back(id);
    return id;
  }

  const std::int32_t mid = begin + (end - begin) / 2;
  const auto key = [&](std::int32_t p) {
    return dim == 0 ? catalog.x[p] : (dim == 1 ? catalog.y[p] : catalog.z[p]);
  };
  std::nth_element(perm.begin() + begin, perm.begin() + mid,
                   perm.begin() + end,
                   [&](std::int32_t a, std::int32_t b) { return key(a) < key(b); });

  if (!tasks || end - begin <= kBuildGrain) {
    const std::int32_t l =
        build(begin, mid, perm, catalog, leaf_size, false, out);
    const std::int32_t r =
        build(mid, end, perm, catalog, leaf_size, false, out);
    out.nodes[id].left = l;
    out.nodes[id].right = r;
    return id;
  }
  // The halves partition disjoint ranges of perm, and nth_element is a
  // deterministic function of its range, so the tasks reproduce the serial
  // permutation. Splicing left then right after this node gives the ids
  // the serial recursion assigns (depth-first preorder).
  Part halves[2];
#pragma omp task default(shared)
  build(begin, mid, perm, catalog, leaf_size, true, halves[0]);
  build(mid, end, perm, catalog, leaf_size, true, halves[1]);
#pragma omp taskwait
  for (int h = 0; h < 2; ++h) {
    const auto base = static_cast<std::int32_t>(out.nodes.size());
    (h == 0 ? out.nodes[id].left : out.nodes[id].right) = base;
    for (Node node : halves[h].nodes) {
      if (node.left >= 0) {
        node.left += base;
        node.right += base;
      }
      out.nodes.push_back(node);
    }
    for (std::int32_t leaf : halves[h].leaves)
      out.leaves.push_back(leaf + base);
  }
  return id;
}

template <typename Real>
std::vector<std::int32_t> KdTree<Real>::morton_order_leaves(int threads) {
  const Node& root = nodes_.front();
  double rlo[3], rhi[3];
  for (int d = 0; d < 3; ++d) {
    rlo[d] = static_cast<double>(root.lo[d]);
    rhi[d] = static_cast<double>(root.hi[d]);
  }

  std::vector<std::uint64_t> key(leaves_.size());
  parallel_for(threads, static_cast<std::int32_t>(leaves_.size()),
               [&](std::int32_t l) {
    const Node& nd = nodes_[leaves_[l]];
    key[l] = morton_key(
        0.5 * (static_cast<double>(nd.lo[0]) + static_cast<double>(nd.hi[0])),
        0.5 * (static_cast<double>(nd.lo[1]) + static_cast<double>(nd.hi[1])),
        0.5 * (static_cast<double>(nd.lo[2]) + static_cast<double>(nd.hi[2])),
        rlo, rhi);
  });
  std::vector<std::size_t> order(leaves_.size());
  std::iota(order.begin(), order.end(), 0);
  // Stable on the key so equal-key leaves keep tree order: the layout is a
  // deterministic function of the build, never of sort internals.
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return key[a] < key[b]; });

  // The root range covers every point (n_ isn't set yet at this stage of
  // construction).
  std::vector<std::int32_t> slot(static_cast<std::size_t>(root.end));
  std::vector<std::int32_t> sorted_leaves(leaves_.size());
  std::int32_t pos = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::int32_t id = leaves_[order[k]];
    Node& nd = nodes_[id];
    const std::int32_t len = nd.end - nd.begin;
    for (std::int32_t i = 0; i < len; ++i) slot[pos + i] = nd.begin + i;
    nd.begin = pos;
    nd.end = pos + len;
    pos += len;
    sorted_leaves[k] = id;
  }
  leaves_ = std::move(sorted_leaves);
  return slot;
}

namespace {

// Squared distance from point q to box [lo, hi] (componentwise), in Real.
template <typename Real>
Real box_dist2(const Real q[3], const Real lo[3], const Real hi[3]) {
  Real d2 = 0;
  for (int d = 0; d < 3; ++d) {
    Real diff = 0;
    if (q[d] < lo[d]) diff = lo[d] - q[d];
    else if (q[d] > hi[d]) diff = q[d] - hi[d];
    d2 += diff * diff;
  }
  return d2;
}

}  // namespace

template <typename Real>
template <typename Prune, typename LeafFn>
void KdTree<Real>::traverse(Prune&& prune, LeafFn&& leaf_fn) const {
  if (nodes_.empty()) return;
  std::int32_t stack[128];
  int sp = 0;
  stack[sp++] = 0;  // the root
  while (sp > 0) {
    const std::int32_t id = stack[--sp];
    const Node& nd = nodes_[id];
    if (prune(nd)) continue;
    if (nd.left < 0) {
      leaf_fn(id, nd);
    } else {
      GLX_DCHECK(sp + 2 <= 128);
      stack[sp++] = nd.left;
      stack[sp++] = nd.right;
    }
  }
}

template <typename Real>
void KdTree<Real>::gather_neighbors(double qx, double qy, double qz,
                                    double rmax,
                                    NeighborList<Real>& out) const {
  const Real q[3] = {static_cast<Real>(qx), static_cast<Real>(qy),
                     static_cast<Real>(qz)};
  const Real r2max = static_cast<Real>(rmax) * static_cast<Real>(rmax);
  traverse(
      [&](const Node& nd) { return box_dist2<Real>(q, nd.lo, nd.hi) > r2max; },
      [&](std::int32_t, const Node& nd) {
        for (std::int32_t i = nd.begin; i < nd.end; ++i) {
          const Real dx = xs_[i] - q[0];
          const Real dy = ys_[i] - q[1];
          const Real dz = zs_[i] - q[2];
          const Real rr = dx * dx + dy * dy + dz * dz;
          if (rr <= r2max) out.push(dx, dy, dz, rr, ws_[i], orig_[i]);
        }
      });
}

template <typename Real>
std::size_t KdTree<Real>::count_within(double qx, double qy, double qz,
                                       double rmax) const {
  const Real q[3] = {static_cast<Real>(qx), static_cast<Real>(qy),
                     static_cast<Real>(qz)};
  const Real r2max = static_cast<Real>(rmax) * static_cast<Real>(rmax);
  std::size_t count = 0;
  traverse(
      [&](const Node& nd) { return box_dist2<Real>(q, nd.lo, nd.hi) > r2max; },
      [&](std::int32_t, const Node& nd) {
        for (std::int32_t i = nd.begin; i < nd.end; ++i) {
          const Real dx = xs_[i] - q[0];
          const Real dy = ys_[i] - q[1];
          const Real dz = zs_[i] - q[2];
          if (dx * dx + dy * dy + dz * dz <= r2max) ++count;
        }
      });
  return count;
}

template <typename Real>
void KdTree<Real>::append_refined(std::int32_t begin, std::int32_t end,
                                  const Real lo[3], const Real hi[3],
                                  Real r2max,
                                  NeighborBlock<Real>& out) const {
  for (std::int32_t i = begin; i < end; ++i)
    if (point_box_dist2<Real>(xs_[i], ys_[i], zs_[i], lo, hi) <= r2max)
      out.push(xs_[i], ys_[i], zs_[i], ws_[i], orig_[i]);
}

template <typename Real>
void KdTree<Real>::gather_leaf_neighbors(std::size_t leaf, double rmax,
                                         NeighborBlock<Real>& out) const {
  GLX_DCHECK(leaf < leaves_.size());
  const Node& src = nodes_[leaves_[leaf]];
  gather_box_neighbors(src.lo, src.hi, rmax, out);
}

template <typename Real>
void KdTree<Real>::leaf_box(std::size_t leaf, Real lo[3], Real hi[3]) const {
  GLX_DCHECK(leaf < leaves_.size());
  const Node& nd = nodes_[leaves_[leaf]];
  for (int d = 0; d < 3; ++d) {
    lo[d] = nd.lo[d];
    hi[d] = nd.hi[d];
  }
}

template <typename Real>
void KdTree<Real>::gather_box_neighbors(const Real lo[3], const Real hi[3],
                                        double rmax,
                                        NeighborBlock<Real>& out) const {
  const Real r2max = static_cast<Real>(rmax) * static_cast<Real>(rmax);
  traverse(
      [&](const Node& nd) {
        return box_box_dist2<Real>(lo, hi, nd.lo, nd.hi) > r2max;
      },
      [&](std::int32_t, const Node& nd) {
        append_refined(nd.begin, nd.end, lo, hi, r2max, out);
      });
}

template <typename Real>
std::vector<std::size_t> KdTree<Real>::leaves_in_reach(const Real lo[3],
                                                       const Real hi[3],
                                                       double rmax) const {
  std::vector<std::size_t> out;
  if (nodes_.empty()) return out;
  const Real r2max = static_cast<Real>(rmax) * static_cast<Real>(rmax);
  // One pruned walk collects the surviving leaf *node ids*; the traversal
  // visits leaves in canonical (tree) order, which after the Morton
  // relabeling is not storage order, so map ids back to ordinals via the
  // shared ascending-begin property of `leaves_` (leaf ranges partition
  // [0, n) in storage order, so begins are unique and increasing).
  std::vector<std::int32_t> hit;
  traverse(
      [&](const Node& nd) {
        return box_box_dist2<Real>(lo, hi, nd.lo, nd.hi) > r2max;
      },
      [&](std::int32_t id, const Node&) { hit.push_back(id); });
  std::sort(hit.begin(), hit.end(), [&](std::int32_t a, std::int32_t b) {
    return nodes_[static_cast<std::size_t>(a)].begin <
           nodes_[static_cast<std::size_t>(b)].begin;
  });
  out.reserve(hit.size());
  std::size_t j = 0;
  for (std::size_t l = 0; l < leaves_.size() && j < hit.size(); ++l)
    if (leaves_[l] == hit[j]) {
      out.push_back(l);
      ++j;
    }
  GLX_DCHECK(j == hit.size());
  return out;
}

template class KdTree<float>;
template class KdTree<double>;

}  // namespace galactos::tree
