#include "core/fft_estimator.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>

#include "math/sph_table.hpp"
#include "util/timer.hpp"

namespace galactos::core {

using math::cplx;

void validate_fft_config(const EngineConfig& cfg, const FftConfig& f) {
  GLX_CHECK(cfg.lmax >= 0 && cfg.lmax <= 16);
  GLX_CHECK(cfg.bins.count() >= 1);
  GLX_CHECK(cfg.threads >= 0);
  GLX_CHECK_MSG(f.box_side > 0.0,
                "fft_3pcf: box_side must be set (> 0)");
  GLX_CHECK_MSG(math::is_pow2(f.grid_n) && f.grid_n >= 4,
                "fft_3pcf: grid_n must be a power of two >= 4, got "
                    << f.grid_n);
  GLX_CHECK_MSG(cfg.los == LineOfSight::kPlaneParallelZ,
                "fft_3pcf: only the plane-parallel +z line of sight is "
                "supported (a mesh convolution has one global LOS)");
  GLX_CHECK_MSG(!cfg.subtract_self_pairs,
                "fft_3pcf: subtract_self_pairs is unsupported");
  GLX_CHECK_MSG(cfg.bins.rmin() > 0.0,
                "fft_3pcf: bins.rmin() must be > 0 (the zero-lag cell "
                "holds the primary itself)");
  GLX_CHECK_MSG(cfg.bins.rmax() < 0.5 * f.box_side,
                "fft_3pcf: bins.rmax() must be < box_side / 2 "
                "(minimum-image separations), got rmax = "
                    << cfg.bins.rmax() << " box_side = " << f.box_side);
}

namespace {

// Cells of the separation mesh that fall inside the radial bins. Cell
// (ix, iy, iz) of the n^3 separation mesh, idx = (ix*n + iy)*n + iz,
// represents the minimum-image offset s = (sgn(ix), sgn(iy), sgn(iz)) * h
// with sgn(i) = i <= n/2 ? i : i - n; only |s| in [rmin, rmax) matters — a
// small fraction of the mesh — so kernel sampling walks this compact list
// and zero-fills the rest.
struct FftBinCells {
  struct Cell {
    std::size_t idx;
    int bin;
    double weight;      // bin membership: 1, or a volume fraction (see below)
    double ux, uy, uz;  // direction of -s (the REVERSED kernel direction)
  };
  std::vector<Cell> cells;

  // With `edge_antialias`, a cell whose cube [s - h/2, s + h/2]^3 straddles
  // a radial bin edge is split across the straddled bins by supersampled
  // volume fractions (one Cell entry per overlapped bin, weights summing to
  // the in-range fraction) instead of sharply assigned by its center
  // radius; cells fully inside one bin keep weight 1. The zero-lag cell is
  // always excluded (its direction is undefined).
  static FftBinCells build(const RadialBins& bins, std::size_t n, double h,
                           bool edge_antialias);
};

FftBinCells FftBinCells::build(const RadialBins& bins, std::size_t n,
                               double h, bool edge_antialias) {
  FftBinCells out;
  const double rmax = bins.rmax();
  // Per-axis pruning margin: a cell can reach `rmax` if any point of its
  // cube can, so the antialiased list keeps cells whose center is up to h/2
  // per axis beyond the sharp cut.
  const double margin = edge_antialias ? 0.5 * h : 0.0;
  auto axis_min = [margin](double s) {
    return std::max(0.0, std::abs(s) - margin);
  };
  const double rmax2 = rmax * rmax;
  auto sgn = [n](std::size_t i) {
    return static_cast<double>(i <= n / 2
                                   ? static_cast<long long>(i)
                                   : static_cast<long long>(i) -
                                         static_cast<long long>(n));
  };
  constexpr int kSub = 4;  // supersampling per axis for straddling cells
  for (std::size_t ix = 0; ix < n; ++ix) {
    const double sx = sgn(ix) * h;
    if (axis_min(sx) * axis_min(sx) >= rmax2) continue;
    for (std::size_t iy = 0; iy < n; ++iy) {
      const double sy = sgn(iy) * h;
      const double sxy2 =
          axis_min(sx) * axis_min(sx) + axis_min(sy) * axis_min(sy);
      if (sxy2 >= rmax2) continue;
      const std::size_t base = (ix * n + iy) * n;
      for (std::size_t iz = 0; iz < n; ++iz) {
        const double sz = sgn(iz) * h;
        const double r2 = sx * sx + sy * sy + sz * sz;
        if (r2 == 0.0) continue;  // zero lag: no direction, never binned
        const double r = std::sqrt(r2);
        const double ux = -sx / r, uy = -sy / r, uz = -sz / r;
        if (!edge_antialias) {
          if (r2 >= rmax2) continue;
          const int bin = bins.bin_of(r);
          if (bin < 0) continue;
          out.cells.push_back({base + iz, bin, 1.0, ux, uy, uz});
          continue;
        }
        // Radial extent of the cube [s - h/2, s + h/2]^3.
        const double rlo =
            std::sqrt(axis_min(sx) * axis_min(sx) +
                      axis_min(sy) * axis_min(sy) +
                      axis_min(sz) * axis_min(sz));
        const double rhi = std::sqrt((std::abs(sx) + margin) *
                                         (std::abs(sx) + margin) +
                                     (std::abs(sy) + margin) *
                                         (std::abs(sy) + margin) +
                                     (std::abs(sz) + margin) *
                                         (std::abs(sz) + margin));
        if (rhi <= bins.rmin() || rlo >= rmax) continue;
        const int blo = bins.bin_of(rlo);
        if (blo >= 0 && blo == bins.bin_of(rhi)) {
          out.cells.push_back({base + iz, blo, 1.0, ux, uy, uz});
          continue;
        }
        // Straddles an edge (or the in-range boundary): volume fractions.
        int counts[64] = {0};  // generous nbins ceiling for the stack array
        GLX_CHECK(bins.count() <= 64);
        for (int a = 0; a < kSub; ++a) {
          const double ox = sx + ((a + 0.5) / kSub - 0.5) * h;
          for (int b = 0; b < kSub; ++b) {
            const double oy = sy + ((b + 0.5) / kSub - 0.5) * h;
            for (int c = 0; c < kSub; ++c) {
              const double oz = sz + ((c + 0.5) / kSub - 0.5) * h;
              const int sb =
                  bins.bin_of(std::sqrt(ox * ox + oy * oy + oz * oz));
              if (sb >= 0) ++counts[sb];
            }
          }
        }
        const double inv = 1.0 / (kSub * kSub * kSub);
        for (int bin = 0; bin < bins.count(); ++bin)
          if (counts[bin] > 0)
            out.cells.push_back(
                {base + iz, bin, counts[bin] * inv, ux, uy, uz});
      }
    }
  }
  return out;
}

// Fills per_bin[b] (each resized and zeroed to the mesh size) with the
// reversed kernel K_rev = conj(Y_lm(-s_hat)) [ |s| in b ].
void sample_ylm_bin_kernels(const math::SphHarmTable& ylm, int l, int m,
                            const FftBinCells& cells, std::size_t mesh_size,
                            int nbins,
                            std::vector<std::vector<cplx>>& per_bin) {
  per_bin.resize(static_cast<std::size_t>(nbins));
  for (auto& k : per_bin) k.assign(mesh_size, cplx(0.0, 0.0));
  for (const FftBinCells::Cell& c : cells.cells)
    per_bin[static_cast<std::size_t>(c.bin)][c.idx] =
        c.weight * std::conj(ylm.eval(l, m, c.ux, c.uy, c.uz));
}

}  // namespace

double assignment_window_1d(std::size_t j, std::size_t n, int order) {
  const long long js = j <= n / 2 ? static_cast<long long>(j)
                                  : static_cast<long long>(j) -
                                        static_cast<long long>(n);
  if (js == 0) return 1.0;
  const double x = M_PI * static_cast<double>(js) / static_cast<double>(n);
  return std::pow(std::sin(x) / x, order);
}

cplx interlace_phase(std::size_t jx, std::size_t jy, std::size_t jz,
                     std::size_t n) {
  auto sgn = [n](std::size_t j) {
    return j <= n / 2 ? static_cast<long long>(j)
                      : static_cast<long long>(j) -
                            static_cast<long long>(n);
  };
  const double ang = M_PI *
                     static_cast<double>(sgn(jx) + sgn(jy) + sgn(jz)) /
                     static_cast<double>(n);
  return cplx(std::cos(ang), std::sin(ang));
}

namespace {

// Accumulates zeta / 2PCF raw sums from per-primary field samples, one m
// at a time. One instance per thread, merged in thread order, finalized
// into a ZetaResult (n_pairs = 0).
class FftZetaAccumulator {
 public:
  FftZetaAccumulator(int lmax, int nbins);

  // Count the primary (once, not per m).
  void count_primary(double wp);

  // v[(l - m) * nbins + b] = a_lm(b; x_p) for fixed m, l in [m, lmax].
  // m == 0 also feeds pair counts and the 2PCF moments.
  void add_primary(int m, double wp, const cplx* v);

  void merge(const FftZetaAccumulator& other);
  ZetaResult finalize(const RadialBins& bins) const;

 private:
  int lmax_, nbins_;
  LlmIndex llm_;
  std::vector<cplx> zeta_;      // [bin_pair][llm]
  std::vector<double> xi_raw_;  // [lmax+1][nbins]
  std::vector<double> counts_;  // [nbins]
  double sum_wp_ = 0.0;
  std::uint64_t n_primaries_ = 0;
};

FftZetaAccumulator::FftZetaAccumulator(int lmax, int nbins)
    : lmax_(lmax),
      nbins_(nbins),
      llm_(lmax),
      zeta_(static_cast<std::size_t>(
                ZetaAccumulator::bin_pair_count(nbins)) *
                static_cast<std::size_t>(llm_.size()),
            cplx(0.0, 0.0)),
      xi_raw_(static_cast<std::size_t>(lmax + 1) *
                  static_cast<std::size_t>(nbins),
              0.0),
      counts_(static_cast<std::size_t>(nbins), 0.0) {}

void FftZetaAccumulator::count_primary(double wp) {
  sum_wp_ += wp;
  ++n_primaries_;
}

void FftZetaAccumulator::add_primary(int m, double wp, const cplx* v) {
  const int nllm = llm_.size();
  if (m == 0) {
    // a_00 = sum_j w_j / sqrt(4pi); Y_l0 = sqrt((2l+1)/4pi) P_l(mu).
    for (int b = 0; b < nbins_; ++b)
      counts_[b] += wp * std::sqrt(4.0 * M_PI) * v[b].real();
    for (int l = 0; l <= lmax_; ++l)
      for (int b = 0; b < nbins_; ++b)
        xi_raw_[static_cast<std::size_t>(l) * nbins_ + b] +=
            wp * std::sqrt(4.0 * M_PI / (2.0 * l + 1.0)) *
            v[static_cast<std::size_t>(l) * nbins_ + b].real();
  }
  for (int l = m; l <= lmax_; ++l) {
    const cplx* vl = v + static_cast<std::size_t>(l - m) * nbins_;
    for (int lp = m; lp <= lmax_; ++lp) {
      const cplx* vlp = v + static_cast<std::size_t>(lp - m) * nbins_;
      const int k = llm_.index(l, lp, m);
      for (int b1 = 0; b1 < nbins_; ++b1) {
        const cplx a1 = wp * vl[b1];
        std::size_t bp =
            static_cast<std::size_t>(b1 * nbins_ - b1 * (b1 - 1) / 2);
        for (int b2 = b1; b2 < nbins_; ++b2, ++bp)
          zeta_[bp * nllm + k] += a1 * std::conj(vlp[b2]);
      }
    }
  }
}

void FftZetaAccumulator::merge(const FftZetaAccumulator& other) {
  GLX_CHECK(other.lmax_ == lmax_ && other.nbins_ == nbins_);
  for (std::size_t i = 0; i < zeta_.size(); ++i) zeta_[i] += other.zeta_[i];
  for (std::size_t i = 0; i < xi_raw_.size(); ++i)
    xi_raw_[i] += other.xi_raw_[i];
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  sum_wp_ += other.sum_wp_;
  n_primaries_ += other.n_primaries_;
}

ZetaResult FftZetaAccumulator::finalize(const RadialBins& bins) const {
  ZetaResult r = ZetaResult::zero_like(bins, lmax_);
  GLX_CHECK(r.zeta_data.size() == zeta_.size() &&
            r.xi_raw.size() == xi_raw_.size() &&
            r.pair_counts.size() == counts_.size());
  r.n_primaries = n_primaries_;
  r.sum_primary_weight = sum_wp_;
  r.zeta_data = zeta_;
  r.pair_counts = counts_;
  r.xi_raw = xi_raw_;
  return r;
}

void validate_primaries(std::size_t catalog_size,
                        const std::vector<std::int64_t>* primaries) {
  if (!primaries) return;
  std::vector<std::uint8_t> seen(catalog_size, 0);
  for (std::int64_t p : *primaries) {
    GLX_CHECK_MSG(p >= 0 && p < static_cast<std::int64_t>(catalog_size),
                  "primary index out of range: " << p);
    GLX_CHECK_MSG(!seen[static_cast<std::size_t>(p)],
                  "duplicate primary index: " << p);
    seen[static_cast<std::size_t>(p)] = 1;
  }
}

}  // namespace

ZetaResult fft_3pcf(const EngineConfig& cfg, const FftConfig& f,
                    const sim::Catalog& catalog,
                    const std::vector<std::int64_t>* primaries,
                    EngineStats* stats) {
  validate_fft_config(cfg, f);
  GLX_CHECK_MSG(!catalog.empty(), "empty catalog");
  validate_primaries(catalog.size(), primaries);

  Timer wall;
  EngineStats local_stats;
  EngineStats& st = stats ? *stats : local_stats;
  st = EngineStats{};

  const std::size_t n = f.grid_n;
  const std::size_t ncube = n * n * n;
  const double h = f.box_side / static_cast<double>(n);
  const int nbins = cfg.bins.count();
  const int lmax = cfg.lmax;
  const int nthreads = cfg.threads > 0 ? cfg.threads : omp_get_max_threads();
  const std::size_t nprim = primaries ? primaries->size() : catalog.size();

  // --- gridding ---
  Timer t;
  std::vector<double> mesh, mesh2;
  assign_to_mesh(catalog, f.assignment, n, f.box_side, 0.0, mesh);
  if (f.interlace)
    assign_to_mesh(catalog, f.assignment, n, f.box_side, 0.5, mesh2);
  st.phases.add("gridding", t.seconds());

  // --- density spectrum: interlace combine, then window compensation ---
  t.restart();
  std::vector<cplx> what;
  math::fft_r2c_3d(mesh.data(), 1, n, what);
  mesh.clear();
  mesh.shrink_to_fit();
  if (f.interlace) {
    std::vector<cplx> w2;
    math::fft_r2c_3d(mesh2.data(), 1, n, w2);
    mesh2.clear();
    mesh2.shrink_to_fit();
#pragma omp parallel for schedule(static) collapse(2) num_threads(nthreads)
    for (long long jx = 0; jx < static_cast<long long>(n); ++jx)
      for (long long jy = 0; jy < static_cast<long long>(n); ++jy) {
        const std::size_t base =
            (static_cast<std::size_t>(jx) * n + static_cast<std::size_t>(jy)) *
            n;
        for (std::size_t jz = 0; jz < n; ++jz) {
          const cplx ph = interlace_phase(static_cast<std::size_t>(jx),
                                          static_cast<std::size_t>(jy), jz, n);
          what[base + jz] = 0.5 * (what[base + jz] + ph * w2[base + jz]);
        }
      }
  }
  if (f.compensate) {
    const int order = assignment_order(f.assignment);
    std::vector<double> win(n);
    for (std::size_t j = 0; j < n; ++j)
      win[j] = assignment_window_1d(j, n, order);
#pragma omp parallel for schedule(static) collapse(2) num_threads(nthreads)
    for (long long jx = 0; jx < static_cast<long long>(n); ++jx)
      for (long long jy = 0; jy < static_cast<long long>(n); ++jy) {
        const std::size_t base =
            (static_cast<std::size_t>(jx) * n + static_cast<std::size_t>(jy)) *
            n;
        const double wxy = win[static_cast<std::size_t>(jx)] *
                           win[static_cast<std::size_t>(jy)];
        for (std::size_t jz = 0; jz < n; ++jz) {
          // Squared: deconvolve assignment AND the field interpolation back
          // at the primaries.
          const double u = wxy * win[jz];
          what[base + jz] /= u * u;
        }
      }
  }
  st.phases.add("density fft", t.seconds());

  // Without interlacing the combined spectrum is Hermitian to round-off, so
  // the m == 0 fields (real kernels) can use the half-cost c2r inverse and
  // real field storage. The interlace phase breaks exact Hermitian symmetry
  // at the Nyquist planes, so that path keeps fields complex throughout.
  const bool m0_real = !f.interlace;

  const FftBinCells cells =
      FftBinCells::build(cfg.bins, n, h, f.edge_antialias);
  const math::SphHarmTable ylm(lmax);

  std::vector<FftZetaAccumulator> acc(
      static_cast<std::size_t>(nthreads), FftZetaAccumulator(lmax, nbins));

  for (int m = 0; m <= lmax; ++m) {
    const int nf = (lmax + 1 - m) * nbins;
    const bool real_fields = m0_real && m == 0;
    std::vector<std::vector<double>> re_fields;
    std::vector<std::vector<cplx>> cx_fields;
    if (real_fields)
      re_fields.resize(static_cast<std::size_t>(nf));
    else
      cx_fields.resize(static_cast<std::size_t>(nf));

    t.restart();
    std::vector<std::vector<cplx>> per_bin;
    for (int l = m; l <= lmax; ++l) {
      sample_ylm_bin_kernels(ylm, l, m, cells, ncube, nbins, per_bin);
      for (int b = 0; b < nbins; ++b) {
        std::vector<cplx>& kern = per_bin[static_cast<std::size_t>(b)];
        math::fft_3d(kern, n, -1);
#pragma omp parallel for schedule(static) num_threads(nthreads)
        for (long long i = 0; i < static_cast<long long>(ncube); ++i)
          kern[static_cast<std::size_t>(i)] *=
              what[static_cast<std::size_t>(i)];
        const std::size_t fidx =
            static_cast<std::size_t>(l - m) * nbins + static_cast<std::size_t>(b);
        if (real_fields) {
          re_fields[fidx].resize(ncube);
          math::fft_c2r_3d(kern, n, re_fields[fidx].data(), 1);
        } else {
          math::fft_3d(kern, n, +1);
          cx_fields[fidx] = std::move(kern);
        }
      }
    }
    st.phases.add("kernel fft + convolution", t.seconds());

    // --- interpolate the a_lm fields at each primary and accumulate ---
    t.restart();
#pragma omp parallel num_threads(nthreads)
    {
      const int tid = omp_get_thread_num();
      FftZetaAccumulator& a = acc[static_cast<std::size_t>(tid)];
      std::vector<cplx> v(static_cast<std::size_t>(nf));
      double sw[27];
      std::size_t sidx[27];
#pragma omp for schedule(static)
      for (long long i = 0; i < static_cast<long long>(nprim); ++i) {
        const std::size_t p = primaries
                                  ? static_cast<std::size_t>(
                                        (*primaries)[static_cast<std::size_t>(i)])
                                  : static_cast<std::size_t>(i);
        const AxisStencil sx =
            axis_stencil(f.assignment, catalog.x[p], h, n, 0.0);
        const AxisStencil sy =
            axis_stencil(f.assignment, catalog.y[p], h, n, 0.0);
        const AxisStencil sz =
            axis_stencil(f.assignment, catalog.z[p], h, n, 0.0);
        int ns = 0;
        for_each_stencil_cell(sx, sy, sz, n,
                              [&](double w, std::size_t idx) {
                                sw[ns] = w;
                                sidx[ns] = idx;
                                ++ns;
                              });
        std::fill(v.begin(), v.end(), cplx(0.0, 0.0));
        if (real_fields) {
          for (int k = 0; k < nf; ++k) {
            const double* fld = re_fields[static_cast<std::size_t>(k)].data();
            double s = 0.0;
            for (int c = 0; c < ns; ++c) s += sw[c] * fld[sidx[c]];
            v[static_cast<std::size_t>(k)] = s;
          }
        } else {
          for (int k = 0; k < nf; ++k) {
            const cplx* fld = cx_fields[static_cast<std::size_t>(k)].data();
            cplx s(0.0, 0.0);
            for (int c = 0; c < ns; ++c) s += sw[c] * fld[sidx[c]];
            v[static_cast<std::size_t>(k)] = s;
          }
        }
        const double wp = catalog.w[p];
        if (m == 0) a.count_primary(wp);
        a.add_primary(m, wp, v.data());
      }
    }
    st.phases.add("interpolate+zeta", t.seconds());
  }

  t.restart();
  for (int tid = 1; tid < nthreads; ++tid)
    acc[0].merge(acc[static_cast<std::size_t>(tid)]);
  ZetaResult result = acc[0].finalize(cfg.bins);
  st.phases.add("merge", t.seconds());
  st.wall_seconds = wall.seconds();
  return result;
}

}  // namespace galactos::core
