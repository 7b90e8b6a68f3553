#include "math/sph_table.hpp"

#include <cmath>

#include "math/legendre.hpp"

namespace galactos::math {

MonomialMap::MonomialMap(int lmax) : lmax_(lmax) {
  GLX_CHECK(lmax >= 0 && lmax <= 24);
  const int n1 = lmax + 1;
  index_.assign(n1 * n1 * n1, -1);
  for (int a = 0; a <= lmax; ++a)
    for (int b = 0; b + a <= lmax; ++b)
      for (int c = 0; c + b + a <= lmax; ++c) {
        index_[(a * n1 + b) * n1 + c] = static_cast<int>(abc_.size());
        abc_.push_back({a, b, c});
      }
  GLX_CHECK(static_cast<int>(abc_.size()) == monomial_count(lmax));
}

int MonomialMap::index(int a, int b, int c) const {
  GLX_DCHECK(a >= 0 && b >= 0 && c >= 0 && a + b + c <= lmax_);
  const int n1 = lmax_ + 1;
  return index_[(a * n1 + b) * n1 + c];
}

SphHarmTable::SphHarmTable(int lmax) : lmax_(lmax), mono_(lmax) {
  terms_.resize(nlm(lmax));
  for (int l = 0; l <= lmax; ++l) {
    for (int m = 0; m <= l; ++m) {
      // Includes the Condon–Shortley phase (-1)^m of P_l^m.
      const double K =
          (m % 2 ? -1.0 : 1.0) *
          std::sqrt((2.0 * l + 1.0) / (4.0 * M_PI) * factorial(l - m) /
                    factorial(l + m));
      // D_lm(z) = d^m P_l / dz^m as a dense polynomial in z.
      const std::vector<double> d = legendre_deriv_coeffs(l, m);
      // (x + iy)^m = sum_a C(m,a) i^a x^{m-a} y^a.
      std::vector<Term>& out = terms_[lm_index(l, m)];
      for (int a = 0; a <= m; ++a) {
        // binomial(m, a)
        double binom = 1.0;
        for (int t = 0; t < a; ++t) binom = binom * (m - t) / (t + 1);
        // i^a cycles {1, i, -1, -i}
        static const std::complex<double> ipow[4] = {
            {1, 0}, {0, 1}, {-1, 0}, {0, -1}};
        const std::complex<double> cxy = binom * ipow[a % 4];
        for (int j = 0; j < static_cast<int>(d.size()); ++j) {
          if (d[j] == 0.0) continue;
          const std::complex<double> coeff = K * cxy * d[j];
          out.push_back({mono_.index(m - a, a, j), coeff});
        }
      }
    }
  }
  plane_terms_.resize(2 * terms_.size());
  for (std::size_t lm = 0; lm < terms_.size(); ++lm)
    for (const Term& t : terms_[lm]) {
      const std::complex<double> c = std::conj(t.coeff);
      GLX_CHECK(c.real() == 0.0 || c.imag() == 0.0);
      if (c.real() != 0.0) plane_terms_[2 * lm].push_back({t.mono, c.real()});
      if (c.imag() != 0.0)
        plane_terms_[2 * lm + 1].push_back({t.mono, c.imag()});
    }
}

std::complex<double> SphHarmTable::eval(int l, int m, double ux, double uy,
                                        double uz) const {
  GLX_CHECK(l >= 0 && l <= lmax_ && std::abs(m) <= l);
  const bool neg = m < 0;
  const int ma = std::abs(m);
  // Power tables up to degree l.
  double px[32], py[32], pz[32];
  px[0] = py[0] = pz[0] = 1.0;
  for (int k = 1; k <= l; ++k) {
    px[k] = px[k - 1] * ux;
    py[k] = py[k - 1] * uy;
    pz[k] = pz[k - 1] * uz;
  }
  std::complex<double> y{0.0, 0.0};
  for (const Term& t : terms_[lm_index(l, ma)]) {
    const auto [a, b, c] = mono_.abc(t.mono);
    y += t.coeff * (px[a] * py[b] * pz[c]);
  }
  if (neg) {
    y = std::conj(y);
    if (ma % 2 == 1) y = -y;
  }
  return y;
}

void SphHarmTable::eval_all(double ux, double uy, double uz,
                            std::complex<double>* ylm) const {
  double px[32], py[32], pz[32];
  px[0] = py[0] = pz[0] = 1.0;
  for (int k = 1; k <= lmax_; ++k) {
    px[k] = px[k - 1] * ux;
    py[k] = py[k - 1] * uy;
    pz[k] = pz[k - 1] * uz;
  }
  for (int l = 0; l <= lmax_; ++l)
    for (int m = 0; m <= l; ++m) {
      std::complex<double> y{0.0, 0.0};
      for (const Term& t : terms_[lm_index(l, m)]) {
        const auto [a, b, c] = mono_.abc(t.mono);
        y += t.coeff * (px[a] * py[b] * pz[c]);
      }
      ylm[lm_index(l, m)] = y;
    }
}

void SphHarmTable::alm_from_power_sums(const double* S,
                                       std::complex<double>* alm) const {
  for (int l = 0; l <= lmax_; ++l)
    for (int m = 0; m <= l; ++m) {
      std::complex<double> a{0.0, 0.0};
      for (const Term& t : terms_[lm_index(l, m)])
        a += std::conj(t.coeff) * S[t.mono];
      alm[lm_index(l, m)] = a;
    }
}

}  // namespace galactos::math
