#include "math/sph_table.hpp"

#include <cmath>
#include <cstdlib>

#include "math/legendre.hpp"

namespace galactos::math {

SphHarmTable::SphHarmTable(int lmax) : lmax_(lmax) {
  GLX_CHECK(lmax >= 0 && lmax <= 24);
  terms_.resize(nlm(lmax));
  plane_terms_.resize(2 * terms_.size());
  for (int l = 0; l <= lmax; ++l) {
    for (int m = 0; m <= l; ++m) {
      // Includes the Condon–Shortley phase (-1)^m of P_l^m.
      const double K =
          (m % 2 ? -1.0 : 1.0) *
          std::sqrt((2.0 * l + 1.0) / (4.0 * M_PI) * factorial(l - m) /
                    factorial(l + m));
      // D_lm(z) = d^m P_l / dz^m as a dense polynomial in z.
      const std::vector<double> d = legendre_deriv_coeffs(l, m);
      const int lm = lm_index(l, m);
      for (int k = 0; k < static_cast<int>(d.size()); ++k) {
        if (d[k] == 0.0) continue;
        const double c = K * d[k];
        terms_[lm].push_back({k, c});
        // a_lm = sum_k c_k conj(T[m,k]): Re T with c, Im T with -c.
        const int slot = basis_slot(lmax, m, k);
        plane_terms_[2 * lm].push_back({slot, c});
        if (m > 0) plane_terms_[2 * lm + 1].push_back({slot + 1, -c});
      }
    }
  }
}

std::complex<double> SphHarmTable::eval(int l, int m, double ux, double uy,
                                        double uz) const {
  GLX_CHECK(l >= 0 && l <= lmax_ && std::abs(m) <= l);
  const int ma = std::abs(m);
  double p = 0.0;
  for (const Term& t : terms_[lm_index(l, ma)])
    p += t.coeff * std::pow(uz, t.k);
  std::complex<double> y = p;
  for (int j = 0; j < ma; ++j) y *= std::complex<double>(ux, uy);
  if (m < 0) {
    y = std::conj(y);
    if (ma % 2 == 1) y = -y;
  }
  return y;
}

void SphHarmTable::eval_all(double ux, double uy, double uz,
                            std::complex<double>* ylm) const {
  double pz[32];
  pz[0] = 1.0;
  for (int k = 1; k <= lmax_; ++k) pz[k] = pz[k - 1] * uz;
  double xr = 1.0, xi = 0.0;  // (x + iy)^m
  for (int m = 0; m <= lmax_; ++m) {
    if (m > 0) {
      const double r = xr * ux - xi * uy;
      xi = xr * uy + xi * ux;
      xr = r;
    }
    for (int l = m; l <= lmax_; ++l) {
      double p = 0.0;
      for (const Term& t : terms_[lm_index(l, m)]) p += t.coeff * pz[t.k];
      ylm[lm_index(l, m)] = {xr * p, xi * p};
    }
  }
}

void SphHarmTable::alm_from_power_sums(const double* T,
                                       std::complex<double>* alm) const {
  for (int lm = 0; lm < nlm(lmax_); ++lm) {
    double re = 0.0, im = 0.0;
    for (const PlaneTerm& t : plane_terms_[2 * lm]) re = re + t.coeff * T[t.slot];
    for (const PlaneTerm& t : plane_terms_[2 * lm + 1])
      im = im + t.coeff * T[t.slot];
    alm[lm] = {re, im};
  }
}

}  // namespace galactos::math
