// Morton (Z-order) keys for cache-aware spatial layout.
//
// The k-d tree lays its leaf storage out in Morton order of the leaf
// centers: leaves that are close in space become close in memory, so a
// leaf-blocked gather — which visits exactly the spatial neighborhood of
// the source leaf — streams a handful of contiguous cache ranges instead
// of hopping across the depth-first tree layout, and
// consecutive leaves processed by one thread share most of their gathered
// working set. The layout is pure storage permutation: tree topology, per
// leaf point order and every query's candidate order are unchanged, so
// per-primary results stay bitwise identical and leaf-blocked results move
// only by cross-leaf FP reassociation (the scheduling-order freedom the
// engine already has).
#pragma once

#include <cstdint>

namespace galactos::tree {

// Spreads the low 21 bits of v so consecutive bits land 3 apart
// (0b...c_b_a -> 0b...c00b00a) — the classic magic-mask dilation.
inline std::uint64_t morton_spread3(std::uint64_t v) {
  v &= 0x1fffff;  // 21 bits: 3 * 21 = 63 <= 64
  v = (v | (v << 32)) & 0x1f00000000ffffull;
  v = (v | (v << 16)) & 0x1f0000ff0000ffull;
  v = (v | (v << 8)) & 0x100f00f00f00f00full;
  v = (v | (v << 4)) & 0x10c30c30c30c30c3ull;
  v = (v | (v << 2)) & 0x1249249249249249ull;
  return v;
}

// Interleaves three 21-bit cell coordinates into one 63-bit Z-order key
// (x in the lowest lane, matching the usual zyx...zyx convention).
inline std::uint64_t morton_encode3(std::uint32_t x, std::uint32_t y,
                                    std::uint32_t z) {
  return morton_spread3(x) | (morton_spread3(y) << 1) |
         (morton_spread3(z) << 2);
}

// Z-order key of a point inside [lo, hi]^3, quantized to 21 bits per
// dimension. Degenerate extents collapse to coordinate 0 on that axis.
inline std::uint64_t morton_key(double x, double y, double z,
                                const double lo[3], const double hi[3]) {
  constexpr double kScale = 2097151.0;  // 2^21 - 1
  auto quantize = [&](double v, int d) -> std::uint32_t {
    const double extent = hi[d] - lo[d];
    if (!(extent > 0.0)) return 0;
    double t = (v - lo[d]) / extent;
    if (t < 0.0) t = 0.0;
    if (t > 1.0) t = 1.0;
    return static_cast<std::uint32_t>(t * kScale);
  };
  return morton_encode3(quantize(x, 0), quantize(y, 1), quantize(z, 2));
}

}  // namespace galactos::tree
