#include "core/alm.hpp"

#include "math/simd.hpp"

namespace galactos::core {

SelfPairAccumulator::SelfPairAccumulator(const math::SphHarmTable& table,
                                         const LlmIndex& llm, int nbins)
    : table_(&table), llm_(&llm), nbins_(nbins) {
  GLX_CHECK(table.lmax() == llm.lmax());
  stride_ = (llm.size() + kLanes - 1) / kLanes * kLanes;
  ylm_.resize(math::nlm(table.lmax()));
  y1re_.reset(stride_);
  y1im_.reset(stride_);
  y2re_.reset(stride_);
  y2im_.reset(stride_);
  y1re_.fill(0.0);
  y1im_.fill(0.0);
  y2re_.fill(0.0);
  y2im_.fill(0.0);
  re_.reset(static_cast<std::size_t>(nbins) * stride_);
  im_.reset(static_cast<std::size_t>(nbins) * stride_);
  re_.fill(0.0);
  im_.fill(0.0);
  touched_.assign(nbins, 0);
  touched_list_.reserve(nbins);
}

void SelfPairAccumulator::start_primary() {
  for (int b : touched_list_) {
    touched_[b] = 0;
    double* r = re_.data() + static_cast<std::size_t>(b) * stride_;
    double* i = im_.data() + static_cast<std::size_t>(b) * stride_;
    for (int k = 0; k < stride_; ++k) r[k] = 0.0;
    for (int k = 0; k < stride_; ++k) i[k] = 0.0;
  }
  touched_list_.clear();
}

void SelfPairAccumulator::add(int bin, double ux, double uy, double uz,
                              double w) {
  namespace sd = math::simd;
  GLX_DCHECK(bin >= 0 && bin < nbins_);
  if (!touched_[bin]) {
    touched_[bin] = 1;
    touched_list_.push_back(bin);
  }
  table_->eval_all(ux, uy, uz, ylm_.data());

  // Gather the two a_lm operands of every (l, l', m) triple into contiguous
  // SoA lanes (the tails beyond llm size stay zero), then accumulate
  // conj(y1) y2 with pure vector FMAs — no per-entry index chasing in the
  // arithmetic loop.
  const int n = llm_->size();
  const int* __restrict i1 = llm_->alm_index_1().data();
  const int* __restrict i2 = llm_->alm_index_2().data();
  double* __restrict g1r = y1re_.data();
  double* __restrict g1i = y1im_.data();
  double* __restrict g2r = y2re_.data();
  double* __restrict g2i = y2im_.data();
  for (int i = 0; i < n; ++i) {
    const std::complex<double> y1 = ylm_[i1[i]];
    const std::complex<double> y2 = ylm_[i2[i]];
    g1r[i] = y1.real();
    g1i[i] = y1.imag();
    g2r[i] = y2.real();
    g2i[i] = y2.imag();
  }

  double* __restrict dr = re_.data() + static_cast<std::size_t>(bin) * stride_;
  double* __restrict di = im_.data() + static_cast<std::size_t>(bin) * stride_;
  const sd::DVec w2 = sd::dv_broadcast(w * w);
  for (int i = 0; i < stride_; i += sd::DVec::kWidth) {
    const sd::DVec r1 = sd::dv_load(g1r + i), m1 = sd::dv_load(g1i + i);
    const sd::DVec r2 = sd::dv_load(g2r + i), m2 = sd::dv_load(g2i + i);
    // conj(y1) * y2 = (r1 r2 + m1 m2) + i (r1 m2 - m1 r2)
    const sd::DVec pre = sd::dv_fmadd(r1, r2, m1 * m2);
    const sd::DVec pim = sd::dv_fmsub(r1, m2, m1 * r2);
    sd::dv_store(dr + i, sd::dv_fmadd(w2, pre, sd::dv_load(dr + i)));
    sd::dv_store(di + i, sd::dv_fmadd(w2, pim, sd::dv_load(di + i)));
  }
}

void SelfPairAccumulator::add(const StagedPairs& s) {
  for (std::size_t i = 0; i < s.count; ++i)
    add(s.bin[i], s.ux[i], s.uy[i], s.uz[i], s.w[i]);
}

}  // namespace galactos::core
