// Spherical harmonics as Cartesian monomials of the unit vector.
//
// The Galactos kernel (paper §3.1, Eq. 1) never evaluates Y_lm per pair.
// Instead it accumulates power sums
//
//     S[a,b,c] = sum_j w_j (dx/r)^a (dy/r)^b (dz/r)^c,   a+b+c <= lmax,
//
// and reconstructs the shell coefficients afterwards. That works because on
// the unit sphere every Y_lm is a polynomial in (x, y, z):
//
//     Y_lm(x,y,z) = (-1)^m K_lm (x + i y)^m  d^m P_l / dz^m (z),   m >= 0,
//
// with K_lm = sqrt((2l+1)/(4pi) (l-m)!/(l+m)!) and the Condon–Shortley
// phase (-1)^m of P_l^m kept explicitly (sin^m(theta) e^{i m phi} =
// (x+iy)^m on the unit sphere). Negative m follows from
// Y_{l,-m} = (-1)^m conj(Y_lm).
//
// MonomialMap fixes the canonical ordering of the (a,b,c) triples — the same
// ordering the SIMD kernel uses — and SphHarmTable stores, per (l, m>=0),
// the sparse list of (monomial index, complex coefficient).
#pragma once

#include <complex>
#include <vector>

#include "util/check.hpp"

namespace galactos::math {

// Number of monomials x^a y^b z^c with a+b+c <= lmax:
// (lmax+1)(lmax+2)(lmax+3)/6. For lmax = 10 this is the paper's 286.
constexpr int monomial_count(int lmax) {
  return (lmax + 1) * (lmax + 2) * (lmax + 3) / 6;
}

// Number of (l, m) pairs with 0 <= m <= l <= lmax.
constexpr int nlm(int lmax) { return (lmax + 1) * (lmax + 2) / 2; }

// Flat index for (l, m), m >= 0.
constexpr int lm_index(int l, int m) { return l * (l + 1) / 2 + m; }

// Canonical ordering of monomials: the exact nested-loop order of the
// kernel — outer a, middle b, inner c (a+b+c <= lmax).
class MonomialMap {
 public:
  explicit MonomialMap(int lmax);

  int lmax() const { return lmax_; }
  int size() const { return static_cast<int>(abc_.size()); }

  struct ABC {
    int a, b, c;
  };
  ABC abc(int idx) const { return abc_[idx]; }
  int index(int a, int b, int c) const;

 private:
  int lmax_;
  std::vector<ABC> abc_;
  std::vector<int> index_;  // dense (lmax+1)^3 lookup
};

// Sparse Y_lm -> monomial expansion for all 0 <= m <= l <= lmax.
class SphHarmTable {
 public:
  explicit SphHarmTable(int lmax);

  int lmax() const { return lmax_; }
  const MonomialMap& monomials() const { return mono_; }

  struct Term {
    int mono;                    // index into MonomialMap ordering
    std::complex<double> coeff;  // coefficient of that monomial in Y_lm
  };
  const std::vector<Term>& terms(int l, int m) const {
    GLX_DCHECK(l >= 0 && l <= lmax_ && m >= 0 && m <= l);
    return terms_[lm_index(l, m)];
  }

  // conj(coeff) of the terms of lm = lm_index(l, m), split by plane:
  // plane 0 holds the real parts of the real coefficients, plane 1 the
  // imaginary parts of the imaginary ones, each in terms() order.
  // (x + iy)^m expands in powers of i, so every coefficient is purely real
  // or purely imaginary and each term lands in exactly one plane.
  struct PlaneTerm {
    int mono;
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

  // a_lm = sum_j w_j conj(Y_lm(u_j)) reconstructed from power sums:
  // alm[lm_index(l,m)] = sum_t conj(coeff_t) * S[mono_t].
  // S must be laid out in MonomialMap order.
  void alm_from_power_sums(const double* S, std::complex<double>* alm) const;

 private:
  int lmax_;
  MonomialMap mono_;
  std::vector<std::vector<Term>> terms_;
  std::vector<std::vector<PlaneTerm>> plane_terms_;  // [lm][plane]
};

}  // namespace galactos::math
