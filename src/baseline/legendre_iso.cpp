#include "baseline/legendre_iso.hpp"

#include <omp.h>

#include <cmath>
#include <complex>

#include "math/sph_table.hpp"
#include "math/ylm_recurrence.hpp"
#include "tree/kdtree.hpp"
#include "util/timer.hpp"

namespace galactos::baseline {

double LegendreIsoResult::zeta_l(int l, int b1, int b2) const {
  GLX_CHECK(l >= 0 && l <= lmax);
  const int nb = bins.count();
  GLX_CHECK(b1 >= 0 && b1 < nb && b2 >= 0 && b2 < nb);
  if (b1 > b2) std::swap(b1, b2);
  const std::size_t bp = static_cast<std::size_t>(
      b1 * nb - b1 * (b1 - 1) / 2 + (b2 - b1));
  return multipoles[bp * (lmax + 1) + l];
}

LegendreIsoResult legendre_isotropic_3pcf(const sim::Catalog& catalog,
                                          const LegendreIsoConfig& cfg) {
  Timer wall;
  const int nb = cfg.bins.count();
  const int lmax = cfg.lmax;
  const int nlm = math::nlm(lmax);
  const std::size_t nbp = static_cast<std::size_t>(nb) * (nb + 1) / 2;

  LegendreIsoResult res;
  res.bins = cfg.bins;
  res.lmax = lmax;
  res.multipoles.assign(nbp * (lmax + 1), 0.0);

  const tree::KdTree<double> kd(catalog);
  const math::YlmRecurrence ylm_eval(lmax);
  const int nthreads = cfg.threads > 0 ? cfg.threads : omp_get_max_threads();

  std::uint64_t pairs_total = 0;
  double sum_wp = 0.0;
  std::uint64_t nprim = 0;

  // Accepted pairs are staged into SoA arrays and their harmonics evaluated
  // kYlmChunk points at a time through YlmRecurrence::eval_batch (SIMD across
  // points). Per (bin, lm) slot the accumulation still walks pairs in
  // acceptance order, so results match the former pair-at-a-time loop.
  constexpr int kYlmChunk = 128;

#pragma omp parallel num_threads(nthreads)
  {
    tree::NeighborList<double> nl;
    std::vector<double> are(static_cast<std::size_t>(nb) * nlm);
    std::vector<double> aim(static_cast<std::size_t>(nb) * nlm);
    std::vector<double> yre(static_cast<std::size_t>(nlm) * kYlmChunk);
    std::vector<double> yim(static_cast<std::size_t>(nlm) * kYlmChunk);
    std::vector<double> sux, suy, suz, sw;
    std::vector<int> sbin;
    std::vector<std::uint8_t> touched(nb);
    std::vector<double> local(nbp * (lmax + 1), 0.0);
    std::uint64_t my_pairs = 0;
    double my_wp = 0.0;
    std::uint64_t my_prim = 0;

#pragma omp for schedule(dynamic, 4)
    for (std::int64_t p = 0; p < static_cast<std::int64_t>(catalog.size());
         ++p) {
      const double wp = catalog.w[p];
      nl.clear();
      kd.gather_neighbors(catalog.x[p], catalog.y[p], catalog.z[p],
                          cfg.bins.rmax(), nl);
      std::fill(are.begin(), are.end(), 0.0);
      std::fill(aim.begin(), aim.end(), 0.0);
      std::fill(touched.begin(), touched.end(), 0);
      sux.clear();
      suy.clear();
      suz.clear();
      sw.clear();
      sbin.clear();

      for (std::size_t j = 0; j < nl.size(); ++j) {
        if (nl.idx[j] == p) continue;
        const double r2 = nl.r2[j];
        if (r2 <= 0.0) continue;
        const double r = std::sqrt(r2);
        const int bin = cfg.bins.bin_of(r);
        if (bin < 0) continue;
        ++my_pairs;
        const double inv = 1.0 / r;
        sux.push_back(nl.dx[j] * inv);
        suy.push_back(nl.dy[j] * inv);
        suz.push_back(nl.dz[j] * inv);
        sw.push_back(nl.w[j]);
        sbin.push_back(bin);
        touched[bin] = 1;
      }

      const int npair = static_cast<int>(sbin.size());
      for (int base = 0; base < npair; base += kYlmChunk) {
        const int cnt = std::min(kYlmChunk, npair - base);
        ylm_eval.eval_batch(sux.data() + base, suy.data() + base,
                            suz.data() + base, cnt, kYlmChunk, yre.data(),
                            yim.data());
        const double* wv = sw.data() + base;
        const int* bv = sbin.data() + base;
        for (int t = 0; t < nlm; ++t) {
          const double* __restrict yr = yre.data() + t * kYlmChunk;
          const double* __restrict yi = yim.data() + t * kYlmChunk;
          for (int k = 0; k < cnt; ++k) {
            // a += w * conj(ylm)
            const std::size_t a =
                static_cast<std::size_t>(bv[k]) * nlm + t;
            are[a] += wv[k] * yr[k];
            aim[a] -= wv[k] * yi[k];
          }
        }
      }

      // Contract over spins: N_l(b1,b2) += wp * 4pi/(2l+1) *
      //   [a_l0(b1) a*_l0(b2) + 2 Re sum_{m>0} a_lm(b1) a*_lm(b2)].
      for (int b1 = 0; b1 < nb; ++b1) {
        if (!touched[b1]) continue;
        const double* a1r = are.data() + static_cast<std::size_t>(b1) * nlm;
        const double* a1i = aim.data() + static_cast<std::size_t>(b1) * nlm;
        for (int b2 = b1; b2 < nb; ++b2) {
          if (!touched[b2]) continue;
          const double* a2r = are.data() + static_cast<std::size_t>(b2) * nlm;
          const double* a2i = aim.data() + static_cast<std::size_t>(b2) * nlm;
          const std::size_t bp = static_cast<std::size_t>(
              b1 * nb - b1 * (b1 - 1) / 2 + (b2 - b1));
          for (int l = 0; l <= lmax; ++l) {
            // Re[a1 conj(a2)] = r1 r2 + i1 i2.
            const int t0 = math::lm_index(l, 0);
            double s = a1r[t0] * a2r[t0] + a1i[t0] * a2i[t0];
            for (int m = 1; m <= l; ++m) {
              const int t = math::lm_index(l, m);
              s += 2.0 * (a1r[t] * a2r[t] + a1i[t] * a2i[t]);
            }
            local[bp * (lmax + 1) + l] +=
                wp * 4.0 * M_PI / (2.0 * l + 1.0) * s;
          }
        }
      }
      my_wp += wp;
      ++my_prim;
    }

#pragma omp critical
    {
      for (std::size_t i = 0; i < local.size(); ++i)
        res.multipoles[i] += local[i];
      pairs_total += my_pairs;
      sum_wp += my_wp;
      nprim += my_prim;
    }
  }

  res.n_pairs = pairs_total;
  res.sum_primary_weight = sum_wp;
  res.n_primaries = nprim;
  res.wall_seconds = wall.seconds();
  return res;
}

}  // namespace galactos::baseline
