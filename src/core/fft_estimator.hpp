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

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "math/fft.hpp"

namespace galactos::core {

// Throws (GLX_CHECK) unless cfg is a valid FFT-backend configuration.
void validate_fft_config(const EngineConfig& cfg);

// The FFT backend, with Engine::run's primaries and stats contract.
// Engine::run is the front door and delegates here when backend == kFFT.
// Single node only: the distributed runner rejects kFFT.
ZetaResult fft_3pcf(const EngineConfig& cfg, const sim::Catalog& catalog,
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
