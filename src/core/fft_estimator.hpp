// FFT-based 3PCF estimator (Slepian & Eisenstein 1506.04746): a free
// function beside the engine, used as independent evidence for it (tests,
// bench_fft_estimator, `galactos --backend fft`). It shares no gather or
// kernel code with core::Engine, only the zeta/2PCF accumulation.
//
// The engine forms, around every primary at x,
//
//   a_lm(b; x) = sum_j w_j conj(Y_lm(s_hat)) [ |s| in bin b ],  s = x_j - x,
//
// by explicit pair enumeration. The mesh observes that a_lm(b; .) is a
// cross-correlation of the density field with a fixed kernel
//
//   K_lm^b(s) = conj(Y_lm(s_hat)) [ |s| in bin b ],
//
// so on a periodic mesh all primaries are served by ONE convolution per
// (l, m, b): a-field = IFFT( FFT(W) * FFT(K_rev) ), K_rev(s) = K(-s), with
// W the mass-assigned catalog. The a_lm fields are then interpolated back
// at each primary's EXACT position (same assignment window) and fed into
// the same zeta/2PCF accumulation the engine uses, so n_primaries,
// sum_primary_weight and every coefficient have identical semantics; only
// the secondary side is gridded. Fields are streamed one m at a time to
// bound memory at (lmax+1-m) * nbins meshes.
//
// Validity gates (checked by validate_fft_config; the mesh reads bins,
// lmax, los, threads and subtract_self_pairs of the EngineConfig, and
// ignores its tree settings):
//   - periodic box [0, box_side)^3, box_side > 0 (positions are wrapped);
//   - plane-parallel +z line of sight (a convolution has one global LOS);
//   - bins.rmin() > 0 (excludes the zero-lag self cell) and
//     bins.rmax() < box_side / 2 (minimum-image separations unambiguous);
//   - subtract_self_pairs unsupported (needs per-pair Y products);
//   - grid_n a power of two (radix-2 FFT);
//   - threads >= 0 (0: OpenMP default).
//
// n_pairs is reported as 0: the mesh has no discrete pair count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "core/gridder.hpp"
#include "math/fft.hpp"

namespace galactos::core {

// Mesh settings. The catalog must live in the periodic box
// [0, box_side)^3, box_side > 0 (there is no ghost replication —
// periodicity is native to the mesh). Accuracy improves with grid_n and
// assignment order; interlacing (a second half-cell-shifted mesh averaged
// in Fourier space) cancels the leading aliased images, and compensation
// divides the density spectrum by the assignment window (squared: once for
// assignment, once for the field interpolation back at the primaries).
struct FftConfig {
  std::size_t grid_n = 64;  // power of two
  MassAssignment assignment = MassAssignment::kCic;
  bool interlace = false;
  bool compensate = true;
  // Volume-fraction bin membership for kernel cells straddling a radial bin
  // edge (supersampled), instead of all-or-nothing assignment by the cell
  // center radius. Cuts the radial quantization error — the dominant error
  // term at practical grids — at identical runtime. Disable to make the
  // mesh reproduce the engine's sharp binning on exactly-gridded data (the
  // cross-estimator equivalence tests do).
  bool edge_antialias = true;
  double box_side = 0.0;  // required
};

// Throws (GLX_CHECK) unless (cfg, fft) is a valid mesh configuration.
void validate_fft_config(const EngineConfig& cfg, const FftConfig& fft);

// The mesh estimate of the 3PCF, with Engine::run's primaries and stats
// contract. Single node only: nothing in dist/ calls it.
ZetaResult fft_3pcf(const EngineConfig& cfg, const FftConfig& fft,
                    const sim::Catalog& catalog,
                    const std::vector<std::int64_t>* primaries = nullptr,
                    EngineStats* stats = nullptr);

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

}  // namespace galactos::core
