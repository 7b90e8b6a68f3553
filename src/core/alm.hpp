// The self-pair correction: the degenerate j == k terms of the diagonal bin
// pairs, sum_j w_j^2 conj(Y_lm(u_j)) Y_l'm(u_j). For equal m that product
// is N_lm N_l'm P_l^m(u_z) P_l'^m(u_z): real, free of phi and a polynomial
// of degree l + l' in u_z, so it is exactly sum_L C[(l,l',m)][L] P_L(u_z)
// with |l - l'| <= L <= l + l', L + l + l' even (the Gaunt coupling at
// M = 0; Slepian & Eisenstein 1709.10150). Per pair the engine accumulates
// the 2 lmax + 1 moments sum wp w^2 P_L(u_z) of its bin; the term is linear
// in them, so each thread contracts every bin once, after its last leaf.
// Validated against the brute-force oracle with and without the correction.
#pragma once

#include <vector>

#include "core/kernel.hpp"
#include "core/zeta.hpp"
#include "math/sph_table.hpp"

namespace galactos::core {

// C, built once per traversal by Gauss-Legendre quadrature of the engine's
// own SphHarmTable::eval_all at (sqrt(1-z^2), 0, z): 2 lmax + 1 nodes
// integrate the degree <= 4 lmax integrand exactly.
class SelfPairTable {
 public:
  explicit SelfPairTable(const math::SphHarmTable& table);

  const LlmIndex& llm() const { return llm_; }
  int moments() const { return 2 * llm_.lmax() + 1; }  // L = 0 .. 2 lmax

  // self[i] = sum_L C[i][L] mom[L] over the LlmIndex entries i.
  void contract(const double* mom, double* self) const;

 private:
  LlmIndex llm_;
  std::vector<double> c_;  // [llm entry][L], zero outside the coupled L
};

// One thread's moments M_b[L] = sum_p wp sum_j w_j^2 P_L(u_z,j).
class SelfPairAccumulator {
 public:
  SelfPairAccumulator(const SelfPairTable& table, int nbins);

  // Adds the pairs staged for a primary of weight wp.
  void add(double wp, const StagedPairs& s);

  // Subtracts each bin's contracted moments from zeta's diagonal pair
  // (b, b) and clears them.
  void subtract_from(ZetaAccumulator& zeta);

 private:
  const SelfPairTable* table_;
  int nbins_;
  std::vector<double> rec_a_, rec_b_;  // Bonnet: (2k-1)/k and (k-1)/k
  std::vector<double> mom_;            // [nbins][moments]
  std::vector<int> start_;             // counting sort by bin
  std::vector<double> z_, qa_, qb_;    // by bin: u_z and two Q_k rows
  std::vector<double> self_;           // one self plane, LlmIndex order
};

}  // namespace galactos::core
