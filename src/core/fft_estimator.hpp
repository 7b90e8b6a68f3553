// FFT-based 3PCF estimator backend (Slepian & Eisenstein 1506.04746).
//
// The tree backend forms, around every primary at x,
//
//   a_lm(b; x) = sum_j w_j conj(Y_lm(s_hat)) [ |s| in bin b ],  s = x_j - x,
//
// by explicit pair enumeration. This backend observes that a_lm(b; .) is a
// cross-correlation of the density field with a fixed kernel
//
//   K_lm^b(s) = conj(Y_lm(s_hat)) [ |s| in bin b ],
//
// so on a periodic mesh all primaries are served by ONE convolution per
// (l, m, b): a-field = IFFT( FFT(W) * FFT(K_rev) ), K_rev(s) = K(-s), with
// W the mass-assigned catalog. The a_lm fields are then interpolated back
// at each primary's EXACT position (same assignment window) and fed into
// the same zeta/2PCF accumulation the tree backend uses, so n_primaries,
// sum_primary_weight and every coefficient have identical semantics; only
// the secondary side is gridded. Fields are streamed one m at a time to
// bound memory at (lmax+1-m) * nbins meshes.
//
// Validity gates (checked by validate_fft_config):
//   - periodic box [0, box_side)^3, box_side > 0 (positions are wrapped);
//   - plane-parallel +z line of sight (a convolution has one global LOS);
//   - bins.rmin() > 0 (excludes the zero-lag self cell) and
//     bins.rmax() < box_side / 2 (minimum-image separations unambiguous);
//   - subtract_self_pairs unsupported (needs per-pair Y products);
//   - grid_n a power of two (radix-2 FFT).
//
// n_pairs is reported as 0: the mesh has no discrete pair count.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "math/fft.hpp"
#include "math/sph_table.hpp"

namespace galactos::core {

// Throws (GLX_CHECK) unless cfg is a valid FFT-backend configuration.
void validate_fft_config(const EngineConfig& cfg);

// The serial FFT backend, with Engine::run's primaries and stats contract.
// Engine::run is the front door and delegates here when backend == kFFT;
// dist::fft_slab_3pcf calls it directly on one rank.
ZetaResult fft_3pcf(const EngineConfig& cfg, const sim::Catalog& catalog,
                    const std::vector<std::int64_t>* primaries = nullptr,
                    EngineStats* stats = nullptr);

// ---- Shared building blocks (serial path here, slab path in dist/) ----

// Cells of the separation mesh that fall inside the radial bins. Cell
// (ix, iy, iz) of the n^3 separation mesh represents the minimum-image
// offset s = (sgn(ix), sgn(iy), sgn(iz)) * h with sgn(i) = i <= n/2 ?
// i : i - n; only |s| in [rmin, rmax) matters — a small fraction of the
// mesh — so kernel sampling walks this compact list and zero-fills the
// rest. `x_begin`/`x_end` select a plane range (slab decomposition); idx is
// relative to the range: (ix - x_begin)*n*n + iy*n + iz.
struct FftBinCells {
  struct Cell {
    std::size_t idx;
    int bin;
    double weight;      // bin membership: 1, or a volume fraction (see below)
    double ux, uy, uz;  // direction of -s (the REVERSED kernel direction)
  };
  std::vector<Cell> cells;

  // With `edge_antialias`, a cell whose cube [s - h/2, s + h/2]^3 straddles
  // a radial bin edge is split across the straddled bins by supersampled
  // volume fractions (one Cell entry per overlapped bin, weights summing to
  // the in-range fraction) instead of sharply assigned by its center
  // radius; cells fully inside one bin keep weight 1. The zero-lag cell is
  // always excluded (its direction is undefined).
  static FftBinCells build(const RadialBins& bins, std::size_t n, double h,
                           std::size_t x_begin, std::size_t x_end,
                           bool edge_antialias);
};

// Fills per_bin[b] (each resized and zeroed to the plane-range size) with
// the reversed kernel K_rev = conj(Y_lm(-s_hat)) [ |s| in b ].
void sample_ylm_bin_kernels(const math::SphHarmTable& ylm, int l, int m,
                            const FftBinCells& cells, std::size_t mesh_size,
                            int nbins, std::vector<std::vector<math::cplx>>& per_bin);

// One factor of the mass-assignment Fourier window along one axis:
// sinc(pi j~ / n)^order with the signed mode j~ = j <= n/2 ? j : j - n.
// Compensation divides the density spectrum by the product over axes,
// squared (once for assignment, once for interpolation).
double assignment_window_1d(std::size_t j, std::size_t n, int order);

// Interlace phase factor exp(+i pi (jx~ + jy~ + jz~) / n) applied to the
// half-cell-shifted mesh's spectrum before averaging with the unshifted
// one (cancels the leading odd aliased images).
math::cplx interlace_phase(std::size_t jx, std::size_t jy, std::size_t jz,
                           std::size_t n);

// Accumulates zeta / 2PCF raw sums from per-primary field samples, one m
// at a time. One instance per thread, merged in thread order, finalized
// into a ZetaResult (n_pairs = 0).
class FftZetaAccumulator {
 public:
  FftZetaAccumulator(int lmax, int nbins);

  // Count the primary (once, not per m).
  void count_primary(double wp);

  // v[(l - m) * nbins + b] = a_lm(b; x_p) for fixed m, l in [m, lmax].
  // m == 0 also feeds pair counts and the 2PCF moments.
  void add_primary(int m, double wp, const math::cplx* v);

  void merge(const FftZetaAccumulator& other);
  ZetaResult finalize(const RadialBins& bins) const;

 private:
  int lmax_, nbins_;
  LlmIndex llm_;
  std::vector<math::cplx> zeta_;   // [bin_pair][llm]
  std::vector<double> xi_raw_;     // [lmax+1][nbins]
  std::vector<double> counts_;     // [nbins]
  double sum_wp_ = 0.0;
  std::uint64_t n_primaries_ = 0;
};

}  // namespace galactos::core
