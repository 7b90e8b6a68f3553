// Neighbor gather buffers filled by the k-d tree.
//
// The engine's first step per primary (paper Algorithm 1) is "search the
// node-local k-d tree for all secondaries within R_max". The tree fills
// this SoA buffer with separation components (in index precision — float in
// the paper's mixed mode), weights and original indices; the engine then
// rotates, bins and accumulates in double.
#pragma once

#include <cstdint>
#include <vector>

namespace galactos::tree {

// Shared candidate block for the leaf-blocked traversal (paper §3.3): one
// pruned node-vs-node search per *source leaf* fills this with the absolute
// positions of every secondary any primary in the leaf could see within
// R_max. Primaries then form their separations by subtracting their own
// position from the block — SIMD-friendly, and the block stays hot in cache
// while ~leaf_size primaries drain it.
template <typename Real>
struct NeighborBlock {
  std::vector<Real> x, y, z;     // absolute positions (index precision)
  std::vector<double> w;         // weight
  std::vector<std::int64_t> idx; // index into the source catalog

  void clear() {
    x.clear();
    y.clear();
    z.clear();
    w.clear();
    idx.clear();
  }
  std::size_t size() const { return x.size(); }
  void push(Real px, Real py, Real pz, double weight, std::int64_t index) {
    x.push_back(px);
    y.push_back(py);
    z.push_back(pz);
    w.push_back(weight);
    idx.push_back(index);
  }
};

// Minimum squared distance between two boxes [alo, ahi] and [blo, bhi].
// Monotone float arithmetic guarantees the value never exceeds the
// point-box distance of any point contained in the first box — the
// conservative-superset property every pruned gather relies on (the k-d
// tree's node pruning).
template <typename Real>
inline Real box_box_dist2(const Real alo[3], const Real ahi[3],
                          const Real blo[3], const Real bhi[3]) {
  Real d2 = 0;
  for (int d = 0; d < 3; ++d) {
    Real diff = 0;
    if (bhi[d] < alo[d]) diff = alo[d] - bhi[d];
    else if (blo[d] > ahi[d]) diff = blo[d] - ahi[d];
    d2 += diff * diff;
  }
  return d2;
}

// Squared distance from point p to box [lo, hi]. The same monotonicity
// argument as box_box_dist2, pointwise: for any query q with lo <= q <= hi
// (componentwise, in Real), fl(p - q) has magnitude >= the clamped diff
// computed here, so the value never exceeds the Real r2 any in-box query
// forms against p. Filtering a gathered candidate on
// point_box_dist2 > r2max therefore only drops points EVERY in-box primary
// rejects — the accepted set and candidate order are untouched, which keeps
// the leaf-blocked driver's bitwise agreement with the per-primary path.
template <typename Real>
inline Real point_box_dist2(Real px, Real py, Real pz, const Real lo[3],
                            const Real hi[3]) {
  const Real p[3] = {px, py, pz};
  Real d2 = 0;
  for (int d = 0; d < 3; ++d) {
    Real diff = 0;
    if (p[d] < lo[d]) diff = lo[d] - p[d];
    else if (p[d] > hi[d]) diff = p[d] - hi[d];
    d2 += diff * diff;
  }
  return d2;
}

template <typename Real>
struct NeighborList {
  std::vector<Real> dx, dy, dz;  // separation: secondary - primary
  std::vector<Real> r2;          // squared distance (already computed)
  std::vector<double> w;         // weight
  std::vector<std::int64_t> idx; // index into the source catalog

  void clear() {
    dx.clear();
    dy.clear();
    dz.clear();
    r2.clear();
    w.clear();
    idx.clear();
  }
  std::size_t size() const { return dx.size(); }
  void push(Real x, Real y, Real z, Real rr, double weight,
            std::int64_t index) {
    dx.push_back(x);
    dy.push_back(y);
    dz.push_back(z);
    r2.push_back(rr);
    w.push_back(weight);
    idx.push_back(index);
  }
};

}  // namespace galactos::tree
