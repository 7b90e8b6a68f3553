#include "core/twopcf.hpp"

#include "math/legendre.hpp"
#include "util/check.hpp"

namespace galactos::core {

TwoPcfAccumulator::TwoPcfAccumulator(int lmax, int nbins)
    : lmax_(lmax), nbins_(nbins) {
  GLX_CHECK(lmax >= 0 && nbins >= 1);
  legcoef_.assign(static_cast<std::size_t>(lmax + 1) * (lmax + 1), 0.0);
  for (int l = 0; l <= lmax; ++l) {
    const std::vector<double> c = math::legendre_coeffs(l);
    for (std::size_t k = 0; k < c.size(); ++k)
      legcoef_[static_cast<std::size_t>(l) * (lmax + 1) + k] = c[k];
  }
  xi_raw_.assign(static_cast<std::size_t>(lmax + 1) * nbins, 0.0);
  counts_.assign(nbins, 0.0);
}

void TwoPcfAccumulator::add_primary_bin(double wp, int bin, const double* T,
                                        std::size_t stride) {
  GLX_DCHECK(bin >= 0 && bin < nbins_);
  // Gather the pure-z sums T[0,c].
  double sz[32] = {};
  for (int c = 0; c <= lmax_; ++c)
    sz[c] = T[static_cast<std::size_t>(c) * stride];
  counts_[bin] += wp * sz[0];
  for (int l = 0; l <= lmax_; ++l) {
    double v = 0.0;
    const double* coef = legcoef_.data() + static_cast<std::size_t>(l) *
                                               (lmax_ + 1);
    for (int c = 0; c <= l; ++c) v += coef[c] * sz[c];
    xi_raw_[static_cast<std::size_t>(l) * nbins_ + bin] += wp * v;
  }
}

void TwoPcfAccumulator::merge(const TwoPcfAccumulator& other) {
  GLX_CHECK(other.lmax_ == lmax_ && other.nbins_ == nbins_);
  for (std::size_t i = 0; i < xi_raw_.size(); ++i)
    xi_raw_[i] += other.xi_raw_[i];
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
}

}  // namespace galactos::core
