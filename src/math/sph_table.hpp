// Spherical harmonics in the minimal basis of the unit vector.
//
// The Galactos kernel (paper §3.1, Eq. 1) never evaluates Y_lm per pair.
// It accumulates power sums and reconstructs the shell coefficients
// afterwards. That works because on the unit sphere every Y_lm factors as
//
//     Y_lm(x,y,z) = (-1)^m K_lm (x + i y)^m  d^m P_l / dz^m (z),   m >= 0,
//
// with K_lm = sqrt((2l+1)/(4pi) (l-m)!/(l+m)!) and the Condon–Shortley
// phase (-1)^m of P_l^m kept explicitly (sin^m(theta) e^{i m phi} =
// (x+iy)^m on the unit sphere). Negative m follows from
// Y_{l,-m} = (-1)^m conj(Y_lm). With d^m P_l / dz^m = sum_k d_k z^k,
//
//     Y_lm = sum_k c_lmk (x + i y)^m z^k,   c_lmk = (-1)^m K_lm d_k  (real),
//
// so the per-bin power sums only need the minimal basis
//
//     T[m,k] = sum_j w_j (x_j + i y_j)^m z_j^k,   m + k <= lmax,
//
// (lmax+1)^2 real slots — 121 at lmax 10, against the paper's 286
// monomials x^a y^b z^c — and a_lm = sum_k c_lmk conj(T[m,k]) (the
// spherical-harmonic decomposition of Slepian & Eisenstein rests on the
// same factorization). The m = 0 column is real, one slot per k; every
// other (m, k) is a complex pair, Re at basis_slot(lmax, m, k), Im next
// to it. The slots run m-major, k-minor: the kernel's loop order.
// SphHarmTable stores, per (l, m >= 0), the coefficients c_lmk.
#pragma once

#include <complex>
#include <vector>

#include "util/check.hpp"

namespace galactos::math {

// Number of monomials x^a y^b z^c with a+b+c <= lmax:
// (lmax+1)(lmax+2)(lmax+3)/6. For lmax = 10 this is the paper's 286; the
// paper-equivalent kernel FLOP count (core::kernel_flops_per_pair) keeps
// it as its unit.
constexpr int monomial_count(int lmax) {
  return (lmax + 1) * (lmax + 2) * (lmax + 3) / 6;
}

// Real slots of the minimal basis T[m,k], m + k <= lmax: (lmax+1)^2.
constexpr int basis_size(int lmax) { return (lmax + 1) * (lmax + 1); }

// Slot of T[m,k] (m = 0), or of Re T[m,k] with Im at the next slot (m > 0):
// the m = 0 column first, then per m the pairs (Re, Im) for k = 0, 1, ...
constexpr int basis_slot(int lmax, int m, int k) {
  return m == 0 ? k : (lmax + 1) + (m - 1) * (2 * lmax + 2 - m) + 2 * k;
}

// Number of (l, m) pairs with 0 <= m <= l <= lmax.
constexpr int nlm(int lmax) { return (lmax + 1) * (lmax + 2) / 2; }

// Flat index for (l, m), m >= 0.
constexpr int lm_index(int l, int m) { return l * (l + 1) / 2 + m; }

// Y_lm -> minimal-basis expansion for all 0 <= m <= l <= lmax.
class SphHarmTable {
 public:
  explicit SphHarmTable(int lmax);

  int lmax() const { return lmax_; }

  struct Term {
    int k;         // power of z
    double coeff;  // c_lmk: Y_lm = sum_k coeff (x + iy)^m z^k
  };
  const std::vector<Term>& terms(int l, int m) const {
    GLX_DCHECK(l >= 0 && l <= lmax_ && m >= 0 && m <= l);
    return terms_[lm_index(l, m)];
  }

  // The terms of lm = lm_index(l, m) on T's slots, split by plane of
  // a_lm = sum_k c_k conj(T[m,k]): plane 0 holds {Re slot, c_k}, plane 1
  // (m > 0 only) {Im slot, -c_k}, each in terms() order.
  struct PlaneTerm {
    int slot;
    double coeff;
  };
  const std::vector<PlaneTerm>& plane_terms(int lm, int plane) const {
    GLX_DCHECK(lm >= 0 && lm < nlm(lmax_) && (plane == 0 || plane == 1));
    return plane_terms_[2 * lm + plane];
  }

  // Direct evaluation of Y_lm(u) for a unit vector u, m may be negative.
  // Reference path for tests and the brute-force oracle.
  std::complex<double> eval(int l, int m, double ux, double uy,
                            double uz) const;

  // Evaluates Y_lm for all (l, m >= 0) at once into ylm[nlm(lmax)],
  // reusing shared power tables. Used by baselines and self-pair correction.
  void eval_all(double ux, double uy, double uz,
                std::complex<double>* ylm) const;

  // a_lm = sum_j w_j conj(Y_lm(u_j)) reconstructed from the basis sums T
  // (basis_size(lmax) slots): per plane, in plane_terms() order,
  // re += c * T[slot] and im += c * T[slot].
  void alm_from_power_sums(const double* T, std::complex<double>* alm) const;

 private:
  int lmax_;
  std::vector<std::vector<Term>> terms_;
  std::vector<std::vector<PlaneTerm>> plane_terms_;  // [lm][plane]
};

}  // namespace galactos::math
