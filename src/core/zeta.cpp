#include "core/zeta.hpp"

#include <algorithm>
#include <cmath>

#include "core/kernel.hpp"
#include "math/sph_table.hpp"

namespace galactos::core {

LlmIndex::LlmIndex(int lmax) : lmax_(lmax) {
  GLX_CHECK(lmax >= 0);
  const int n1 = lmax + 1;
  lookup_.assign(n1 * n1 * n1, -1);
  // m-major ordering: the zeta hot loop runs contiguously over lp.
  for (int m = 0; m <= lmax; ++m)
    for (int l = m; l <= lmax; ++l)
      for (int lp = m; lp <= lmax; ++lp) {
        lookup_[(l * n1 + lp) * n1 + m] = static_cast<int>(triples_.size());
        triples_.push_back({l, lp, m});
        alm1_.push_back(math::lm_index(l, m));
        alm2_.push_back(math::lm_index(lp, m));
      }
}

ZetaAccumulator::ZetaAccumulator(int lmax, int nbins)
    : nbins_(nbins), llm_(lmax) {
  GLX_CHECK(nbins >= 1);
  std::size_t total = 0;
  for (int m = 0; m <= lmax; ++m) {
    zeta_offset_.push_back(total);
    const std::size_t len = static_cast<std::size_t>(lmax + 1 - m);
    total += static_cast<std::size_t>(bin_pair_count(nbins)) * len * len;
  }
  GLX_CHECK(total == static_cast<std::size_t>(bin_pair_count(nbins)) *
                         llm_.size());
  re_.assign(total, 0.0);
  im_.assign(total, 0.0);
  for (int l = 0; l <= lmax; ++l)
    for (int m = 0; m <= l; ++m) {
      slot_off_.push_back(plane_offset(m) + static_cast<std::size_t>(l - m));
      slot_step_.push_back(static_cast<std::size_t>(lmax + 1 - m));
    }
}

std::size_t ZetaAccumulator::slot_size() const {
  return static_cast<std::size_t>(nbins_) * math::nlm(llm_.lmax());
}

static_assert(ZetaAccumulator::kBatch <= kZetaMaxPrimaries,
              "one flush must fit one zeta_batch_update call");

void ZetaAccumulator::ensure_batch() const {
  if (!batch_.re.empty()) return;
  batch_.re.assign(kBatch * slot_size() + kZetaOperandPad, 0.0);
  batch_.im.assign(kBatch * slot_size() + kZetaOperandPad, 0.0);
  batch_.open.assign(nbins_, 0);
}

void ZetaAccumulator::add_primary(double wp, const std::complex<double>* alm,
                                  const std::uint8_t* touched) {
  ensure_batch();
  const int nlm = math::nlm(llm_.lmax());
  const std::size_t slot = static_cast<std::size_t>(batch_.count) * slot_size();
  double* sr = batch_.re.data() + slot;
  double* si = batch_.im.data() + slot;
  for (int b = 0; b < nbins_; ++b) {
    if (!touched[b]) continue;
    const std::complex<double>* a = alm + static_cast<std::size_t>(b) * nlm;
    for (int lm = 0; lm < nlm; ++lm) {
      const std::size_t k = slot_off_[lm] + b * slot_step_[lm];
      sr[k] = a[lm].real();
      si[k] = a[lm].imag();
    }
    for (int l = 0; l <= llm_.lmax(); ++l)
      if (a[math::lm_index(l, 0)].imag() != 0.0) batch_.m0_imag = true;
    batch_.open[b] = 1;
  }
  commit_primary(wp);
}

void ZetaAccumulator::add_primary_sums(double wp,
                                       const math::SphHarmTable& table,
                                       const double* sums, std::size_t stride,
                                       const int* bins, int nb) {
  GLX_CHECK(table.lmax() == llm_.lmax());
  ensure_batch();
  const std::size_t slot = static_cast<std::size_t>(batch_.count) * slot_size();
  alm_bins_as_lanes(table, sums, stride, bins, nb, batch_.re.data() + slot,
                    batch_.im.data() + slot, slot_off_.data(),
                    slot_step_.data());
  for (int i = 0; i < nb; ++i) {
    GLX_DCHECK(bins[i] >= 0 && bins[i] < nbins_);
    batch_.open[bins[i]] = 1;
  }
  commit_primary(wp);
}

void ZetaAccumulator::commit_primary(double wp) {
  const int lmax = llm_.lmax();
  const std::size_t slot = static_cast<std::size_t>(batch_.count) * slot_size();
  for (int b = 0; b < nbins_; ++b) {
    if (batch_.open[b]) {
      batch_.open[b] = 0;
      continue;
    }
    // The slot holds an earlier primary's data: zero the untouched bin.
    for (int m = 0; m <= lmax; ++m) {
      const int len = lmax + 1 - m;
      const std::size_t base =
          slot + plane_offset(m) + static_cast<std::size_t>(b) * len;
      std::fill_n(batch_.re.begin() + base, len, 0.0);
      std::fill_n(batch_.im.begin() + base, len, 0.0);
    }
  }
  batch_.wp[batch_.count++] = wp;
  sum_wp_ += wp;
  n_primaries_ += 1;
  if (batch_.count == kBatch) flush();
}

void ZetaAccumulator::flush() const {
  if (batch_.count == 0) return;
  const int lmax = llm_.lmax();
  for (int m = 0; m <= lmax; ++m) {
    // m = 0 with no imaginary operand: the real-only update (class note).
    const bool imag = m > 0 || batch_.m0_imag;
    const std::size_t z = zeta_offset_[m];
    zeta_batch_update(batch_.wp, batch_.count,
                      batch_.re.data() + plane_offset(m),
                      batch_.im.data() + plane_offset(m), slot_size(),
                      lmax + 1 - m, nbins_, re_.data() + z,
                      imag ? im_.data() + z : nullptr);
  }
  batch_.count = 0;
  batch_.m0_imag = false;
}

void ZetaAccumulator::subtract_self(int bin, const double* self) {
  flush();
  const int lmax = llm_.lmax();
  int i = 0;  // LlmIndex order: m, then l, then l'
  for (int m = 0; m <= lmax; ++m)
    for (int l = m; l <= lmax; ++l) {
      const std::size_t row = row_offset(m, bin, l);  // b2 == bin: first run
      for (int lp = m; lp <= lmax; ++lp, ++i)
        re_[row + (lp - m)] -= self[i];
    }
}

void ZetaAccumulator::merge(const ZetaAccumulator& other) {
  GLX_CHECK(other.nbins_ == nbins_ && other.llm_.lmax() == llm_.lmax());
  flush();
  other.flush();
  for (std::size_t i = 0; i < re_.size(); ++i) {
    re_[i] += other.re_[i];
    im_[i] += other.im_[i];
  }
  sum_wp_ += other.sum_wp_;
  n_primaries_ += other.n_primaries_;
}

std::complex<double> ZetaAccumulator::raw(int b1, int b2, int l, int lp,
                                          int m) const {
  GLX_DCHECK(m <= std::min(l, lp));
  flush();
  if (b1 <= b2) {
    const std::size_t i = row_offset(m, b1, l) +
                          static_cast<std::size_t>(b2 - b1) * (lmax() + 1 - m) +
                          (lp - m);
    return {re_[i], im_[i]};
  }
  const std::size_t i = row_offset(m, b2, lp) +
                        static_cast<std::size_t>(b1 - b2) * (lmax() + 1 - m) +
                        (l - m);
  return {re_[i], -im_[i]};
}

std::vector<std::complex<double>> ZetaAccumulator::snapshot() const {
  flush();
  const int lmax = llm_.lmax();
  std::vector<std::complex<double>> out(re_.size());
  const std::size_t nllm = static_cast<std::size_t>(llm_.size());
  for (int b1 = 0; b1 < nbins_; ++b1)
    for (int b2 = b1; b2 < nbins_; ++b2) {
      std::complex<double>* o =
          out.data() + static_cast<std::size_t>(bin_pair(b1, b2)) * nllm;
      for (int m = 0; m <= lmax; ++m) {
        const int len = lmax + 1 - m;
        for (int l = m; l <= lmax; ++l) {
          const std::size_t row = row_offset(m, b1, l) +
                                  static_cast<std::size_t>(b2 - b1) * len;
          for (int k = 0; k < len; ++k, ++o) *o = {re_[row + k], im_[row + k]};
        }
      }
    }
  return out;
}

std::complex<double> ZetaResult::zeta_m(int b1, int b2, int l, int lp,
                                        int m) const {
  LlmIndex llm(lmax);  // cheap relative to analysis use; callers may cache
  const int nb = bins.count();
  GLX_CHECK(b1 >= 0 && b1 < nb && b2 >= 0 && b2 < nb);
  auto bp = [&](int a, int b) { return a * nb - a * (a - 1) / 2 + (b - a); };
  if (b1 <= b2)
    return zeta_data[static_cast<std::size_t>(bp(b1, b2)) * llm.size() +
                     llm.index(l, lp, m)];
  return std::conj(
      zeta_data[static_cast<std::size_t>(bp(b2, b1)) * llm.size() +
                llm.index(lp, l, m)]);
}

std::complex<double> ZetaResult::zeta_m_mean(int b1, int b2, int l, int lp,
                                             int m) const {
  GLX_CHECK(sum_primary_weight != 0.0);
  return zeta_m(b1, b2, l, lp, m) / sum_primary_weight;
}

double ZetaResult::isotropic(int l, int b1, int b2) const {
  // sum over all m in [-l, l]: m=0 term plus twice the real part for m>0.
  double s = zeta_m(b1, b2, l, l, 0).real();
  for (int m = 1; m <= l; ++m) s += 2.0 * zeta_m(b1, b2, l, l, m).real();
  return 4.0 * M_PI / (2.0 * l + 1.0) * s;
}

double ZetaResult::xi_raw_at(int l, int bin) const {
  GLX_CHECK(l >= 0 && l <= lmax && bin >= 0 && bin < bins.count());
  return xi_raw[static_cast<std::size_t>(l) * bins.count() + bin];
}

double ZetaResult::xi_l(int l, int bin, double nbar) const {
  const double rr = sum_primary_weight * nbar * bins.shell_volume(bin);
  GLX_CHECK(rr > 0);
  const double v = (2.0 * l + 1.0) * xi_raw_at(l, bin) / rr;
  return l == 0 ? v - 1.0 : v;
}

void ZetaResult::check_compatible(const ZetaResult& other) const {
  GLX_CHECK(other.lmax == lmax);
  GLX_CHECK(other.bins.count() == bins.count());
  GLX_CHECK(other.zeta_data.size() == zeta_data.size());
  GLX_CHECK(other.xi_raw.size() == xi_raw.size());
}

ZetaResult ZetaResult::zero_like(const RadialBins& bins, int lmax) {
  ZetaResult r;
  r.bins = bins;
  r.lmax = lmax;
  const std::size_t npairs =
      static_cast<std::size_t>(ZetaAccumulator::bin_pair_count(bins.count()));
  r.zeta_data.assign(npairs * LlmIndex(lmax).size(), {0.0, 0.0});
  r.pair_counts.assign(static_cast<std::size_t>(bins.count()), 0.0);
  r.xi_raw.assign(static_cast<std::size_t>(lmax + 1) * bins.count(), 0.0);
  return r;
}

std::vector<double> ZetaResult::reduce_payload() const {
  std::vector<double> p;
  p.reserve(1 + 2 * zeta_data.size() + pair_counts.size() + xi_raw.size());
  p.push_back(sum_primary_weight);
  for (const std::complex<double>& z : zeta_data) {
    p.push_back(z.real());
    p.push_back(z.imag());
  }
  p.insert(p.end(), pair_counts.begin(), pair_counts.end());
  p.insert(p.end(), xi_raw.begin(), xi_raw.end());
  return p;
}

void ZetaResult::set_reduce_payload(const std::vector<double>& payload) {
  GLX_CHECK(payload.size() ==
            1 + 2 * zeta_data.size() + pair_counts.size() + xi_raw.size());
  std::size_t k = 0;
  sum_primary_weight = payload[k++];
  for (std::complex<double>& z : zeta_data) {
    const double re = payload[k++];
    const double im = payload[k++];
    z = {re, im};
  }
  for (double& v : pair_counts) v = payload[k++];
  for (double& v : xi_raw) v = payload[k++];
}

void ZetaResult::accumulate(const ZetaResult& other) {
  check_compatible(other);
  n_primaries += other.n_primaries;
  sum_primary_weight += other.sum_primary_weight;
  n_pairs += other.n_pairs;
  for (std::size_t i = 0; i < zeta_data.size(); ++i)
    zeta_data[i] += other.zeta_data[i];
  for (std::size_t i = 0; i < pair_counts.size(); ++i)
    pair_counts[i] += other.pair_counts[i];
  for (std::size_t i = 0; i < xi_raw.size(); ++i)
    xi_raw[i] += other.xi_raw[i];
}

double max_gated_rel_err(const ZetaResult& ref, const ZetaResult& other,
                         double gate_frac) {
  ref.check_compatible(other);
  double zmax = 0.0;
  for (const std::complex<double>& z : ref.zeta_data)
    zmax = std::max(zmax, std::abs(z));
  const double gate = gate_frac * zmax;
  double err = 0.0;
  for (std::size_t i = 0; i < ref.zeta_data.size(); ++i) {
    const double mag = std::abs(ref.zeta_data[i]);
    if (mag < gate) continue;
    err = std::max(err, std::abs(ref.zeta_data[i] - other.zeta_data[i]) / mag);
  }
  for (std::size_t b = 0; b < ref.pair_counts.size(); ++b)
    if (ref.pair_counts[b] != 0.0)
      err = std::max(err, std::abs(ref.pair_counts[b] - other.pair_counts[b]) /
                              std::abs(ref.pair_counts[b]));
  return err;
}

double l2_rel_err(const ZetaResult& ref, const ZetaResult& other) {
  ref.check_compatible(other);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < ref.zeta_data.size(); ++i) {
    num += std::norm(ref.zeta_data[i] - other.zeta_data[i]);
    den += std::norm(ref.zeta_data[i]);
  }
  return den > 0.0 ? std::sqrt(num / den) : 0.0;
}

}  // namespace galactos::core
