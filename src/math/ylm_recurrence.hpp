// Recurrence-based Y_lm evaluation — O(1) work per (l, m).
//
// Used where per-point spherical harmonics are needed directly (the
// isotropic Legendre baseline of §2.3 and the self-pair correction) instead
// of the power-sum kernel. Writing Y_lm = N_lm Q_lm(z) (x+iy)^m with
// Q_lm = P_lm / sin^m(theta) keeps everything polynomial in (x, y, z):
//   Q_mm     = (-1)^m (2m-1)!!
//   Q_{m+1,m} = z (2m+1) Q_mm
//   (l-m) Q_lm = (2l-1) z Q_{l-1,m} - (l+m-1) Q_{l-2,m}
// Header-only; validated against the SphHarmTable evaluation in tests.
#pragma once

#include <cmath>
#include <complex>
#include <vector>

#include "math/legendre.hpp"
#include "math/simd.hpp"
#include "math/sph_table.hpp"
#include "util/check.hpp"

namespace galactos::math {

class YlmRecurrence {
 public:
  explicit YlmRecurrence(int lmax) : lmax_(lmax) {
    GLX_CHECK(lmax >= 0 && lmax <= 32);
    norm_.resize(nlm(lmax));
    qmm_.resize(lmax + 1);
    for (int l = 0; l <= lmax; ++l)
      for (int m = 0; m <= l; ++m)
        norm_[lm_index(l, m)] = std::sqrt((2.0 * l + 1.0) / (4.0 * M_PI) *
                                          factorial(l - m) / factorial(l + m));
    for (int m = 0; m <= lmax; ++m)
      qmm_[m] = (m % 2 ? -1.0 : 1.0) * double_factorial(2 * m - 1);
  }

  int lmax() const { return lmax_; }

  // Evaluates Y_lm for all 0 <= m <= l <= lmax at unit vector (ux, uy, uz)
  // into ylm[lm_index(l, m)].
  void eval_all(double ux, double uy, double uz,
                std::complex<double>* ylm) const {
    const std::complex<double> xy(ux, uy);
    std::complex<double> xym(1.0, 0.0);  // (x+iy)^m
    double q[33][2];  // per m: rolling Q_{l-2,m}, Q_{l-1,m} (managed below)
    (void)q;
    for (int m = 0; m <= lmax_; ++m) {
      // March l upward at fixed m.
      double qlm2 = qmm_[m];                     // Q_{m,m}
      ylm[lm_index(m, m)] = norm_[lm_index(m, m)] * qlm2 * xym;
      if (m + 1 <= lmax_) {
        double qlm1 = uz * (2.0 * m + 1.0) * qlm2;  // Q_{m+1,m}
        ylm[lm_index(m + 1, m)] = norm_[lm_index(m + 1, m)] * qlm1 * xym;
        for (int l = m + 2; l <= lmax_; ++l) {
          const double qlm = ((2.0 * l - 1.0) * uz * qlm1 -
                              (l + m - 1.0) * qlm2) /
                             static_cast<double>(l - m);
          ylm[lm_index(l, m)] = norm_[lm_index(l, m)] * qlm * xym;
          qlm2 = qlm1;
          qlm1 = qlm;
        }
      }
      xym *= xy;
    }
  }

  // Structure-of-arrays batch: evaluates `count` unit vectors at once,
  // writing point i of harmonic (l, m) to re[lm_index(l, m) * stride + i]
  // (and likewise im). Requires stride >= count. Full SIMD-width chunks run
  // the recurrence vectorized across points via math/simd.hpp; points are
  // independent and each lane executes eval_all's operation sequence, so
  // per-point values match the scalar path (the ragged tail literally calls
  // eval_all). Used by the isotropic Legendre baseline's pair loop.
  void eval_batch(const double* ux, const double* uy, const double* uz,
                  int count, std::size_t stride, double* re,
                  double* im) const {
    namespace sd = simd;
    GLX_DCHECK(stride >= static_cast<std::size_t>(count));
    int i = 0;
    for (; i + sd::DVec::kWidth <= count; i += sd::DVec::kWidth) {
      const sd::DVec x = sd::dv_load(ux + i);
      const sd::DVec y = sd::dv_load(uy + i);
      const sd::DVec z = sd::dv_load(uz + i);
      sd::DVec xmr = sd::dv_broadcast(1.0);  // (x+iy)^m, SoA
      sd::DVec xmi = sd::dv_zero();
      for (int m = 0; m <= lmax_; ++m) {
        sd::DVec qlm2 = sd::dv_broadcast(qmm_[m]);  // Q_{m,m}
        sd::DVec s = sd::dv_broadcast(norm_[lm_index(m, m)]) * qlm2;
        sd::dv_store(re + lm_index(m, m) * stride + i, s * xmr);
        sd::dv_store(im + lm_index(m, m) * stride + i, s * xmi);
        if (m + 1 <= lmax_) {
          sd::DVec qlm1 = z * sd::dv_broadcast(2.0 * m + 1.0) * qlm2;
          s = sd::dv_broadcast(norm_[lm_index(m + 1, m)]) * qlm1;
          sd::dv_store(re + lm_index(m + 1, m) * stride + i, s * xmr);
          sd::dv_store(im + lm_index(m + 1, m) * stride + i, s * xmi);
          for (int l = m + 2; l <= lmax_; ++l) {
            const sd::DVec qlm =
                (sd::dv_broadcast(2.0 * l - 1.0) * z * qlm1 -
                 sd::dv_broadcast(l + m - 1.0) * qlm2) /
                sd::dv_broadcast(static_cast<double>(l - m));
            s = sd::dv_broadcast(norm_[lm_index(l, m)]) * qlm;
            sd::dv_store(re + lm_index(l, m) * stride + i, s * xmr);
            sd::dv_store(im + lm_index(l, m) * stride + i, s * xmi);
            qlm2 = qlm1;
            qlm1 = qlm;
          }
        }
        const sd::DVec tr = xmr * x - xmi * y;  // xym *= (x + iy)
        const sd::DVec ti = xmr * y + xmi * x;
        xmr = tr;
        xmi = ti;
      }
    }
    if (i < count) {
      std::vector<std::complex<double>> tmp(nlm(lmax_));
      for (; i < count; ++i) {
        eval_all(ux[i], uy[i], uz[i], tmp.data());
        for (int t = 0; t < nlm(lmax_); ++t) {
          re[t * stride + i] = tmp[t].real();
          im[t * stride + i] = tmp[t].imag();
        }
      }
    }
  }

 private:
  int lmax_;
  std::vector<double> norm_;
  std::vector<double> qmm_;
};

}  // namespace galactos::math
