#include "baseline/brute3pcf.hpp"

#include <cmath>
#include <complex>
#include <vector>

#include "math/ylm_recurrence.hpp"

namespace galactos::baseline {

namespace {

// Per-secondary data cached for one primary.
struct Sec {
  int bin;
  double w;
  std::vector<std::complex<double>> ylm;  // [nlm]
};

// Gathers binned secondaries of primary p with the engine's conventions.
std::vector<Sec> gather(const sim::Catalog& c, std::size_t p,
                        const OracleConfig& cfg,
                        const math::YlmRecurrence& ylm_eval) {
  std::vector<Sec> secs;
  core::Rotation rot;
  bool rotate = false;
  if (cfg.los == core::LineOfSight::kRadial) {
    rot = core::rotation_to_z(c.position(p) - cfg.observer);
    rotate = true;
  }
  const int nlm = math::nlm(cfg.lmax);
  for (std::size_t j = 0; j < c.size(); ++j) {
    if (j == p) continue;
    double dx = c.x[j] - c.x[p];
    double dy = c.y[j] - c.y[p];
    double dz = c.z[j] - c.z[p];
    if (rotate) rot.apply(dx, dy, dz);
    const double r2 = dx * dx + dy * dy + dz * dz;
    if (r2 <= 0.0) continue;
    const double r = std::sqrt(r2);
    const int bin = cfg.bins.bin_of(r);
    if (bin < 0) continue;
    Sec s;
    s.bin = bin;
    s.w = c.w[j];
    s.ylm.resize(nlm);
    const double inv = 1.0 / r;
    ylm_eval.eval_all(dx * inv, dy * inv, dz * inv, s.ylm.data());
    secs.push_back(std::move(s));
  }
  return secs;
}

core::ZetaResult make_result_shell(const OracleConfig& cfg) {
  core::ZetaResult r;
  r.bins = cfg.bins;
  r.lmax = cfg.lmax;
  const int nb = cfg.bins.count();
  core::LlmIndex llm(cfg.lmax);
  r.zeta_data.assign(
      static_cast<std::size_t>(core::ZetaAccumulator::bin_pair_count(nb)) *
          llm.size(),
      {0.0, 0.0});
  r.pair_counts.assign(nb, 0.0);
  r.xi_raw.assign(static_cast<std::size_t>(cfg.lmax + 1) * nb, 0.0);
  return r;
}

// Adds pair-level (2PCF) statistics: mu is the unit z-component.
void add_pair_stats(core::ZetaResult& res, double wp, const Sec& s,
                    double mu, int lmax) {
  res.pair_counts[s.bin] += wp * s.w;
  double pl[32];
  math::legendre_all(lmax, mu, pl);
  for (int l = 0; l <= lmax; ++l)
    res.xi_raw[static_cast<std::size_t>(l) * res.bins.count() + s.bin] +=
        wp * s.w * pl[l];
}

}  // namespace

core::ZetaResult brute_force_triplets(const sim::Catalog& catalog,
                                      const OracleConfig& cfg) {
  GLX_CHECK_MSG(catalog.size() <= 2000,
                "brute_force_triplets is O(N^3); refusing N > 2000");
  const math::YlmRecurrence ylm_eval(cfg.lmax);
  const core::LlmIndex llm(cfg.lmax);
  const int nb = cfg.bins.count();
  core::ZetaResult res = make_result_shell(cfg);
  auto bp = [&](int a, int b) { return a * nb - a * (a - 1) / 2 + (b - a); };

  std::uint64_t pairs = 0;
  for (std::size_t p = 0; p < catalog.size(); ++p) {
    const double wp = catalog.w[p];
    // Re-derive secondary unit vectors to get mu for the 2PCF stats.
    core::Rotation rot;
    const bool rotate = cfg.los == core::LineOfSight::kRadial;
    if (rotate) rot = core::rotation_to_z(catalog.position(p) - cfg.observer);

    const std::vector<Sec> secs = gather(catalog, p, cfg, ylm_eval);
    pairs += secs.size();

    // 2PCF stats need mu per secondary; recompute cheaply.
    {
      std::size_t si = 0;
      for (std::size_t j = 0; j < catalog.size(); ++j) {
        if (j == p) continue;
        double dx = catalog.x[j] - catalog.x[p];
        double dy = catalog.y[j] - catalog.y[p];
        double dz = catalog.z[j] - catalog.z[p];
        if (rotate) rot.apply(dx, dy, dz);
        const double r2 = dx * dx + dy * dy + dz * dz;
        if (r2 <= 0.0) continue;
        const double r = std::sqrt(r2);
        if (cfg.bins.bin_of(r) < 0) continue;
        add_pair_stats(res, wp, secs[si], dz / r, cfg.lmax);
        ++si;
      }
      GLX_CHECK(si == secs.size());
    }

    // The triple loop: every ordered (j, k) with bin_j <= bin_k contributes
    // wp * w_j * w_k * conj(Y_lm(u_j)) * Y_l'm(u_k) to
    // zeta^m_{ll'}(bin_j, bin_k).
    for (const Sec& sj : secs)
      for (const Sec& sk : secs) {
        if (!cfg.include_degenerate && &sj == &sk) continue;
        if (sj.bin > sk.bin) continue;
        std::complex<double>* out =
            res.zeta_data.data() +
            static_cast<std::size_t>(bp(sj.bin, sk.bin)) * llm.size();
        const double w3 = wp * sj.w * sk.w;
        for (int i = 0; i < llm.size(); ++i) {
          const auto [l, lp, m] = llm.at(i);
          out[i] += w3 * std::conj(sj.ylm[math::lm_index(l, m)]) *
                    sk.ylm[math::lm_index(lp, m)];
        }
      }

    res.n_primaries += 1;
    res.sum_primary_weight += wp;
  }
  res.n_pairs = pairs;
  return res;
}

core::ZetaResult direct_summation(
    const sim::Catalog& catalog, const OracleConfig& cfg,
    const std::vector<std::int64_t>* primaries) {
  const math::YlmRecurrence ylm_eval(cfg.lmax);
  const core::LlmIndex llm(cfg.lmax);
  const int nb = cfg.bins.count();
  const int nlm = math::nlm(cfg.lmax);
  core::ZetaResult res = make_result_shell(cfg);
  auto bp = [&](int a, int b) { return a * nb - a * (a - 1) / 2 + (b - a); };

  std::vector<std::complex<double>> alm(static_cast<std::size_t>(nb) * nlm);
  std::vector<std::complex<double>> ylm(nlm);
  std::vector<std::uint8_t> touched(nb);
  std::uint64_t pairs = 0;

  const std::size_t nprim = primaries ? primaries->size() : catalog.size();
  for (std::size_t i = 0; i < nprim; ++i) {
    const std::size_t p =
        primaries ? static_cast<std::size_t>((*primaries)[i]) : i;
    const double wp = catalog.w[p];
    core::Rotation rot;
    bool rotate = false;
    if (cfg.los == core::LineOfSight::kRadial) {
      rot = core::rotation_to_z(catalog.position(p) - cfg.observer);
      rotate = true;
    }
    std::fill(alm.begin(), alm.end(), std::complex<double>{0.0, 0.0});
    std::fill(touched.begin(), touched.end(), 0);

    for (std::size_t j = 0; j < catalog.size(); ++j) {
      if (j == p) continue;
      double dx = catalog.x[j] - catalog.x[p];
      double dy = catalog.y[j] - catalog.y[p];
      double dz = catalog.z[j] - catalog.z[p];
      if (rotate) rot.apply(dx, dy, dz);
      const double r2 = dx * dx + dy * dy + dz * dz;
      if (r2 <= 0.0) continue;
      const double r = std::sqrt(r2);
      const int bin = cfg.bins.bin_of(r);
      if (bin < 0) continue;
      ++pairs;
      const double inv = 1.0 / r;
      ylm_eval.eval_all(dx * inv, dy * inv, dz * inv, ylm.data());
      touched[bin] = 1;
      std::complex<double>* a = alm.data() + static_cast<std::size_t>(bin) * nlm;
      // a_lm += w * conj(Y_lm)
      for (int i = 0; i < nlm; ++i) a[i] += catalog.w[j] * std::conj(ylm[i]);
      Sec stats;
      stats.bin = bin;
      stats.w = catalog.w[j];
      add_pair_stats(res, wp, stats, dz * inv, cfg.lmax);
    }

    const int* i1 = llm.alm_index_1().data();
    const int* i2 = llm.alm_index_2().data();
    for (int b1 = 0; b1 < nb; ++b1) {
      if (!touched[b1]) continue;
      const std::complex<double>* a1 =
          alm.data() + static_cast<std::size_t>(b1) * nlm;
      for (int b2 = b1; b2 < nb; ++b2) {
        if (!touched[b2]) continue;
        const std::complex<double>* a2 =
            alm.data() + static_cast<std::size_t>(b2) * nlm;
        std::complex<double>* out =
            res.zeta_data.data() +
            static_cast<std::size_t>(bp(b1, b2)) * llm.size();
        for (int i = 0; i < llm.size(); ++i)
          out[i] += wp * (a1[i1[i]] * std::conj(a2[i2[i]]));
      }
    }

    if (!cfg.include_degenerate) {
      // Subtract j == k terms, as the engine's subtract_self_pairs does.
      // Redo the pass over secondaries accumulating the self matrices.
      for (std::size_t j = 0; j < catalog.size(); ++j) {
        if (j == p) continue;
        double dx = catalog.x[j] - catalog.x[p];
        double dy = catalog.y[j] - catalog.y[p];
        double dz = catalog.z[j] - catalog.z[p];
        if (rotate) rot.apply(dx, dy, dz);
        const double r2 = dx * dx + dy * dy + dz * dz;
        if (r2 <= 0.0) continue;
        const double r = std::sqrt(r2);
        const int bin = cfg.bins.bin_of(r);
        if (bin < 0) continue;
        const double inv = 1.0 / r;
        ylm_eval.eval_all(dx * inv, dy * inv, dz * inv, ylm.data());
        std::complex<double>* out =
            res.zeta_data.data() +
            static_cast<std::size_t>(bp(bin, bin)) * llm.size();
        const double w2 = catalog.w[j] * catalog.w[j];
        for (int i = 0; i < llm.size(); ++i) {
          const auto [l, lp, m] = llm.at(i);
          out[i] -= wp * w2 * std::conj(ylm[math::lm_index(l, m)]) *
                    ylm[math::lm_index(lp, m)];
        }
      }
    }

    res.n_primaries += 1;
    res.sum_primary_weight += wp;
  }
  res.n_pairs = pairs;
  return res;
}

}  // namespace galactos::baseline
