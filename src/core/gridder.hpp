// Periodic mass assignment and field interpolation on a cubic mesh — the
// gridding layer of the FFT estimator backend.
//
// Conventions: the box is [0, box_side)^3 with n cells per axis of width
// h = box_side / n; cell i covers [i*h, (i+1)*h) and its *center* sits at
// (i + 0.5) * h. Mass-assignment windows (NGP / CIC / TSC, orders 1/2/3)
// are centered on cell centers, and interpolation of a mesh-sampled field
// at an arbitrary point uses the same window, so assignment followed by
// interpolation is the standard (window)^2-smoothed estimate. Positions are
// wrapped periodically; an optional half-cell shift supports interlaced
// meshes.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/catalog.hpp"
#include "util/check.hpp"

namespace galactos::core {

enum class MassAssignment { kNgp, kCic, kTsc };

const char* assignment_name(MassAssignment a);
MassAssignment assignment_from_name(const std::string& name);
// Window support in cells per axis (1, 2, 3) — also the exponent p of the
// Fourier window sinc^p used for compensation.
int assignment_order(MassAssignment a);

// Per-point, per-axis assignment stencil: weights `w[k]` applied to cells
// `cell[k]` (already wrapped into [0, n)); `lo` is the leftmost cell
// before wrapping.
struct AxisStencil {
  int cell[3];
  int lo = 0;
  double w[3] = {0, 0, 0};
  int count = 0;
};

// Stencil for coordinate x (box units) on an n-cell axis of cell width h.
// `shift` is an extra displacement in cell units added to x/h — pass 0.5
// for the interlaced mesh.
AxisStencil axis_stencil(MassAssignment a, double x, double h, std::size_t n,
                         double shift);

// Dense n^3 mesh of the weighted catalog: mesh[(ix*n+iy)*n+iz] receives
// sum_p w_p * W(x_p - cell center). `mesh` is resized and zeroed first.
void assign_to_mesh(const sim::Catalog& c, MassAssignment a, std::size_t n,
                    double box_side, double shift, std::vector<double>& mesh);

// Trilinear-family gather of per-cell values at a point: accumulates
// sum_cells weight(cell) * values[cell_index] via `acc(weight, index)`.
// Shared by the scalar interpolators and the estimator's multi-field
// gathers (one stencil, many fields).
template <typename Acc>
inline void for_each_stencil_cell(const AxisStencil& sx, const AxisStencil& sy,
                                  const AxisStencil& sz, std::size_t n,
                                  Acc&& acc) {
  for (int a = 0; a < sx.count; ++a) {
    const std::size_t bx = static_cast<std::size_t>(sx.cell[a]) * n;
    for (int b = 0; b < sy.count; ++b) {
      const std::size_t bxy =
          (bx + static_cast<std::size_t>(sy.cell[b])) * n;
      const double wxy = sx.w[a] * sy.w[b];
      for (int cidx = 0; cidx < sz.count; ++cidx)
        acc(wxy * sz.w[cidx],
            bxy + static_cast<std::size_t>(sz.cell[cidx]));
    }
  }
}

// Interpolate a real mesh field at (x, y, z) with assignment window `a`.
double interpolate(const std::vector<double>& mesh, MassAssignment a,
                   std::size_t n, double box_side, double x, double y,
                   double z);

// Convert a mesh back into a catalog of cell-center points (cells with
// |weight| <= weight_floor skipped). With NGP assignment this inverts
// assign_to_mesh exactly; tests use it to compare the FFT estimator against
// the tree engine on an identical discrete point set.
sim::Catalog mesh_to_catalog(const std::vector<double>& mesh, std::size_t n,
                             double box_side, double weight_floor = 0.0);

}  // namespace galactos::core
