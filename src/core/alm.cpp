#include "core/alm.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdlib>

#include "math/legendre.hpp"

namespace galactos::core {

SelfPairTable::SelfPairTable(const math::SphHarmTable& table)
    : llm_(table.lmax()) {
  const int nmom = moments();
  std::vector<double> node, weight, pl(nmom);
  math::gauss_legendre(nmom, node, weight);
  std::vector<std::complex<double>> ylm(math::nlm(table.lmax()));
  c_.assign(static_cast<std::size_t>(llm_.size()) * nmom, 0.0);
  for (int q = 0; q < nmom; ++q) {
    // C[i][L] = (2L+1)/2 int conj(Y_lm) Y_l'm P_L dz, at phi = 0 where
    // every Y_lm is real.
    const double z = node[q];
    table.eval_all(std::sqrt((1.0 - z) * (1.0 + z)), 0.0, z, ylm.data());
    math::legendre_all(nmom - 1, z, pl.data());
    for (int i = 0; i < llm_.size(); ++i) {
      const LlmIndex::Llm t = llm_.at(i);
      const double y = weight[q] * ylm[llm_.alm_index_1()[i]].real() *
                       ylm[llm_.alm_index_2()[i]].real();
      for (int L = std::abs(t.l - t.lp); L <= t.l + t.lp; L += 2)
        c_[static_cast<std::size_t>(i) * nmom + L] +=
            0.5 * (2 * L + 1) * y * pl[L];
    }
  }
}

void SelfPairTable::contract(const double* mom, double* self) const {
  const int nmom = moments();
  for (int i = 0; i < llm_.size(); ++i) {
    const double* c = c_.data() + static_cast<std::size_t>(i) * nmom;
    double s = 0.0;
    for (int L = 0; L < nmom; ++L) s += c[L] * mom[L];
    self[i] = s;
  }
}

SelfPairAccumulator::SelfPairAccumulator(const SelfPairTable& table,
                                         int nbins)
    : table_(&table), nbins_(nbins) {
  const int nmom = table.moments();
  rec_a_.assign(nmom, 0.0);
  rec_b_.assign(nmom, 0.0);
  for (int k = 1; k < nmom; ++k) {
    rec_a_[k] = (2.0 * k - 1.0) / k;
    rec_b_[k] = (k - 1.0) / k;
  }
  mom_.assign(static_cast<std::size_t>(nbins) * nmom, 0.0);
  self_.assign(table.llm().size(), 0.0);
}

void SelfPairAccumulator::add(double wp, const StagedPairs& s) {
  // Counting sort of (u_z, wp w^2) by bin, so that each bin's pairs reduce
  // in vector sweeps: a per-pair scatter would chain same-bin neighbors
  // through memory. The placement leaves start_[b] at the end of bin b.
  const int n = static_cast<int>(s.count);
  start_.assign(nbins_ + 1, 0);
  for (int i = 0; i < n; ++i) {
    GLX_DCHECK(s.bin[i] >= 0 && s.bin[i] < nbins_);
    ++start_[s.bin[i] + 1];
  }
  for (int b = 0; b < nbins_; ++b) start_[b + 1] += start_[b];
  z_.resize(n);
  qa_.assign(n, 0.0);
  qb_.resize(n);
  for (int i = 0; i < n; ++i) {
    const int j = start_[s.bin[i]]++;
    z_[j] = s.uz[i];
    qb_[j] = wp * s.w[i] * s.w[i];
  }

  // Q_k = wp w^2 P_k(u_z) obeys the Bonnet recurrence from Q_0 = wp w^2
  // (and Q_-1 = 0, which k = 1 multiplies by zero): one vector sweep per k
  // over the bin's run, rolled through two rows.
  const int nmom = table_->moments();
  for (int b = 0, lo = 0; b < nbins_; lo = start_[b++]) {
    const int len = start_[b] - lo;
    if (len == 0) continue;
    const double* __restrict z = z_.data() + lo;
    double* __restrict qa = qa_.data() + lo;  // Q_{k-2}, overwritten by Q_k
    double* __restrict qb = qb_.data() + lo;  // Q_{k-1}
    double* m = mom_.data() + static_cast<std::size_t>(b) * nmom;
    double s0 = 0.0;
#pragma omp simd reduction(+ : s0)
    for (int i = 0; i < len; ++i) s0 += qb[i];
    m[0] += s0;
    for (int k = 1; k < nmom; ++k) {
      const double ak = rec_a_[k], bk = rec_b_[k];
      double sk = 0.0;
#pragma omp simd reduction(+ : sk)
      for (int i = 0; i < len; ++i) {
        qa[i] = ak * z[i] * qb[i] - bk * qa[i];
        sk += qa[i];
      }
      m[k] += sk;
      std::swap(qa, qb);
    }
  }
}

void SelfPairAccumulator::subtract_from(ZetaAccumulator& zeta) {
  const int nmom = table_->moments();
  for (int b = 0; b < nbins_; ++b) {
    double* m = mom_.data() + static_cast<std::size_t>(b) * nmom;
    table_->contract(m, self_.data());
    zeta.subtract_self(b, self_.data());
    std::fill_n(m, nmom, 0.0);
  }
}

}  // namespace galactos::core
