#include "core/engine.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "core/alm.hpp"
#include "core/fft_estimator.hpp"
#include "core/twopcf.hpp"
#include "tree/cellgrid.hpp"
#include "tree/kdtree.hpp"
#include "tree/let.hpp"

namespace galactos::core {

namespace detail {

// Per-thread partial accumulators parked in the Staged handle between the
// owned pass and the secondary pass. In the fused run_indexed path the
// same partials live on the stack for the duration of one call; the
// two-pass pipeline moves their lifetime here so pass 2 can keep adding
// into the exact per-thread slots pass 1 filled, and the final merge runs
// in the same thread-id order either way.
// Owned-only power sums snapshotted during pass 1 for primaries that might
// see halo secondaries (within R_max of the SecondaryBound box). One
// instance per thread; concatenated SoA records, looked up by primary id
// in pass 2 so the owned a_lm is rebuilt by compute_alm instead of
// a kernel re-run.
struct SavedPrimaries {
  std::vector<std::int64_t> prim;  // primary id per record
  std::vector<int> nbins;          // touched-bin count per record
  std::vector<int> bins;           // concatenated touched-bin ids
  std::vector<double> sums;        // concatenated [n_mono] blocks
};

struct TraversalPartials {
  int nthreads = 0;
  std::vector<std::unique_ptr<ZetaAccumulator>> zeta;
  std::vector<std::unique_ptr<TwoPcfAccumulator>> xi;
  std::vector<std::uint64_t> pairs;   // per thread; pass 2 adds halo pairs
  std::vector<SavedPrimaries> saved;  // per thread; empty without a bound
};

}  // namespace detail

namespace {

// `for_secondary`: halo indexes answer only per-point and per-box queries
// (never gather_leaf_neighbors), so they skip the interaction-list build;
// the Morton layout is shared with the primary build.
template <typename Real, typename Index>
Index make_index(const sim::Catalog& catalog, const EngineConfig& cfg,
                 bool for_secondary) {
  const double ilist_rmax =
      (!for_secondary && cfg.tree.interaction_lists) ? cfg.bins.rmax() : 0.0;
  if constexpr (std::is_same_v<Index, tree::KdTree<Real>>) {
    typename tree::KdTree<Real>::BuildParams bp;
    bp.leaf_size = cfg.tree.leaf_size;
    bp.morton = cfg.tree.morton_order;
    bp.interaction_rmax = ilist_rmax;
    return tree::KdTree<Real>(catalog, bp);
  } else {
    typename tree::CellGrid<Real>::BuildParams bp;
    bp.morton = cfg.tree.morton_order;
    bp.interaction_rmax = ilist_rmax;
    return tree::CellGrid<Real>(catalog, cfg.bins.rmax(), bp);
  }
}

// Dense accepted-pair staging shared by every traversal driver. fill()
// applies the candidate block's range filter / self exclusion / coincident
// rejection and compacts the survivors — in candidate order — into SoA
// arrays of separation, r, 1/r and weight. This reproduces the accept set
// the per-primary index query computes during its gather, so (like
// separation formation) the filter runs on neighbor-query time; the kernel
// phase then walks only real pairs with no data-dependent branches.
//
// No bits change anywhere: the range compare stays in index precision
// (Real), acceptance order is candidate order, sqrt and reciprocal are
// IEEE-exact (the 8-wide hoist yields bitwise the values the accept loops
// used to compute inline), and dx stays unnormalized so the consumer still
// forms dx * (1/r) from identical operands. Compaction is branchless
// (always-store, masked advance): rejected lanes write junk (1/0 = inf)
// that the next candidate overwrites or `count` hides.
class PairStage {
 public:
  std::size_t count = 0;
  std::vector<double> dx, dy, dz, r, inv, w;

  // `r2max` in index precision (pass infinity when the block is already
  // range-filtered); `self` is the primary's catalog index (-1 to keep
  // every candidate, e.g. for disjoint halo blocks).
  template <typename Real>
  void fill(const Real* sdx, const Real* sdy, const Real* sdz,
            const Real* sr2, const double* sw, const std::int64_t* sidx,
            std::size_t n, Real r2max, std::int64_t self) {
    hr_.resize(n);
    hinv_.resize(n);
    double* __restrict rp = hr_.data();
    double* __restrict ip = hinv_.data();
#pragma omp simd
    for (std::size_t j = 0; j < n; ++j) {
      const double rj = std::sqrt(static_cast<double>(sr2[j]));
      rp[j] = rj;
      ip[j] = 1.0 / rj;
    }
    dx.resize(n);
    dy.resize(n);
    dz.resize(n);
    r.resize(n);
    inv.resize(n);
    w.resize(n);
    std::size_t cnt = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const unsigned ok = static_cast<unsigned>(sr2[j] <= r2max) &
                          static_cast<unsigned>(sidx[j] != self) &
                          static_cast<unsigned>(
                              static_cast<double>(sr2[j]) > 0.0);
      dx[cnt] = static_cast<double>(sdx[j]);
      dy[cnt] = static_cast<double>(sdy[j]);
      dz[cnt] = static_cast<double>(sdz[j]);
      r[cnt] = rp[j];
      inv[cnt] = ip[j];
      w[cnt] = sw[j];
      cnt += ok;
    }
    count = cnt;
  }

 private:
  std::vector<double> hr_, hinv_;  // full-length hoisted sqrt / 1/r
};

// Forms one primary's separations against a gathered block (SIMD
// subtraction + squared norm). ONE definition shared by the fused
// traversal and both two-pass call sites, so the pass-1 vs pass-2
// bitwise-A guarantee cannot be broken by divergent arithmetic.
template <typename Real>
inline void form_separations(const tree::NeighborBlock<Real>& block, Real px,
                             Real py, Real pz, Real* __restrict dxv,
                             Real* __restrict dyv, Real* __restrict dzv,
                             Real* __restrict r2v) {
  const Real* __restrict bx = block.x.data();
  const Real* __restrict by = block.y.data();
  const Real* __restrict bz = block.z.data();
  const std::size_t m = block.size();
#pragma omp simd
  for (std::size_t j = 0; j < m; ++j) {
    const Real ddx = bx[j] - px;
    const Real ddy = by[j] - py;
    const Real ddz = bz[j] - pz;
    dxv[j] = ddx;
    dyv[j] = ddy;
    dzv[j] = ddz;
    r2v[j] = ddx * ddx + ddy * ddy + ddz * ddz;
  }
}

// Sums the per-accumulator epilogue counters into `stats` (assigned, like
// every other EngineStats field, so a reused stats object does not grow).
void set_counters(EngineStats& stats,
                  const std::vector<MultipoleAccumulator::Counters>& parts) {
  MultipoleAccumulator::Counters total;
  for (const MultipoleAccumulator::Counters& c : parts) {
    total.epilogues += c.epilogues;
    total.full_flushes += c.full_flushes;
    total.partial_flushes += c.partial_flushes;
  }
  stats.bin_epilogues = total.epilogues;
  stats.full_flushes = total.full_flushes;
  stats.partial_flushes = total.partial_flushes;
}

// Number of leaf-blocked leaves (resp. per-primary primaries) the master
// thread processes between poll() invocations during the owned pass.
constexpr int kPollLeafStride = 4;
constexpr int kPollPrimaryStride = 256;

// Traversal over prebuilt indexes. `catalog` holds the owned points (the
// only ones that can act as primaries); `secondary`, when given, indexes
// halo points that act as secondaries only — its candidates are unioned
// with the primary index's per leaf (leaf-blocked) or per primary
// (per-primary), with original indices offset by catalog.size() so they can
// never collide with a primary index.
//
// When `park` is non-null the per-thread partials are moved into it
// instead of being merged (`result` is left untouched) — the two-pass
// owned pass. `poll`, when set, is called from the master thread between
// leaf/primary batches; `bound`, when set with `park`, snapshots boundary
// primaries' power sums for the secondary pass (see Staged::run_owned_pass).
template <typename Real, typename Index>
void run_indexed_impl(const EngineConfig& cfg, const sim::Catalog& catalog,
                      const Index& index, const Index* secondary,
                      const std::vector<std::int64_t>* primaries,
                      ZetaResult& result, EngineStats& stats,
                      detail::TraversalPartials* park = nullptr,
                      const std::function<void()>& poll = {},
                      const Engine::SecondaryBound* bound = nullptr) {
  Timer wall;
  const int nbins = cfg.bins.count();
  const int lmax = cfg.lmax;
  const math::SphHarmTable table(lmax);
  const LlmIndex llm(lmax);

  const std::int64_t halo_offset = static_cast<std::int64_t>(catalog.size());

  const std::int64_t np =
      primaries ? static_cast<std::int64_t>(primaries->size())
                : static_cast<std::int64_t>(catalog.size());

  const int nthreads =
      cfg.threads > 0 ? cfg.threads : omp_get_max_threads();

  // Too few leaves starve a leaf-parallel run (e.g. a CellGrid whose
  // extent is a handful of R_max cells); the per-primary driver computes
  // the same answer, so fall back to it rather than idle most threads.
  TraversalMode traversal = cfg.tree.traversal;
  if (traversal == TraversalMode::kLeafBlocked &&
      index.leaf_count() < 2 * static_cast<std::size_t>(nthreads))
    traversal = TraversalMode::kPerPrimary;

  // Membership mask for the leaf-blocked driver: leaves hold points in
  // index order, so a subset of primaries is tested per point.
  std::vector<std::uint8_t> is_primary;
  if (primaries && traversal == TraversalMode::kLeafBlocked) {
    is_primary.assign(catalog.size(), 0);
    for (std::int64_t p : *primaries)
      is_primary[static_cast<std::size_t>(p)] = 1;
  }

  // Conservative "might see a secondary" margin for the bound hint: the
  // Real-precision accept filter can admit pairs a few ulps beyond R_max,
  // so pad the shell the same way the cell grid pads its box walk.
  const bool save_boundary = park != nullptr && bound != nullptr;
  double bound_pad = 0.0;
  if (save_boundary) {
    park->saved.resize(static_cast<std::size_t>(nthreads));
    const double max_abs = std::max(
        {std::abs(bound->lo.x), std::abs(bound->lo.y), std::abs(bound->lo.z),
         std::abs(bound->hi.x), std::abs(bound->hi.y),
         std::abs(bound->hi.z)});
    const double eps =
        static_cast<double>(std::numeric_limits<Real>::epsilon());
    bound_pad = cfg.bins.rmax() * (1.0 + 1e-5) +
                8.0 * eps * (max_abs + cfg.bins.rmax());
  }

  // Per-thread partial accumulators, merged in thread-id order after the
  // parallel region so results are bit-identical run to run.
  std::vector<std::unique_ptr<ZetaAccumulator>> zeta_parts(nthreads);
  std::vector<std::unique_ptr<TwoPcfAccumulator>> xi_parts(nthreads);
  std::vector<std::uint64_t> pairs_parts(nthreads, 0), cand_parts(nthreads, 0),
      skip_parts(nthreads, 0);
  std::vector<double> tq_parts(nthreads, 0), tk_parts(nthreads, 0),
      tz_parts(nthreads, 0);
  std::vector<MultipoleAccumulator::Counters> kc_parts(nthreads);

  Timer tcompute;
#pragma omp parallel num_threads(nthreads)
  {
    const int tid = omp_get_thread_num();
    KernelConfig kc;
    kc.lmax = lmax;
    kc.nbins = nbins;
    kc.bucket_capacity = cfg.tree.bucket_capacity;
    kc.scheme = cfg.tree.scheme;
    kc.ilp = cfg.tree.ilp;
    MultipoleAccumulator acc(kc);
    ZetaAccumulator zeta(lmax, nbins);
    TwoPcfAccumulator xi(lmax, nbins);
    std::optional<SelfPairAccumulator> sp;
    if (cfg.subtract_self_pairs) sp.emplace(table, llm, nbins);
    double q_time = 0, k_time = 0, z_time = 0;
    std::uint64_t my_cand = 0, my_skip = 0;
    // Communication progress hook (two-pass owned pass): only the master
    // thread — the rank's own OS thread, so single-threaded MPI progress
    // rules hold — polls, every few batches.
    const bool do_poll = static_cast<bool>(poll) && tid == 0;
    int since_poll = 0;

    // LOS setup shared by both drivers; returns false when the primary
    // must be skipped (radial mode, primary at the observer).
    auto make_rotation = [&](std::int64_t p, Rotation& rot, bool& rotate) {
      rotate = false;
      if (cfg.los == LineOfSight::kRadial) {
        const sim::Vec3 rel =
            catalog.position(static_cast<std::size_t>(p)) - cfg.observer;
        if (rel.norm2() == 0.0) return false;
        rot = rotation_to_z(rel);
        rotate = true;
      }
      return true;
    };

    // Boundary-primary snapshot (two-pass with a SecondaryBound hint): a
    // primary within the padded shell of the bound box may see halo
    // secondaries, so park its owned power sums for pass 2.
    detail::SavedPrimaries* save_to =
        save_boundary ? &park->saved[static_cast<std::size_t>(tid)] : nullptr;
    auto near_bound = [&](std::int64_t p) {
      const sim::Vec3 pos = catalog.position(static_cast<std::size_t>(p));
      const double margin = std::min(
          {pos.x - bound->lo.x, bound->hi.x - pos.x, pos.y - bound->lo.y,
           bound->hi.y - pos.y, pos.z - bound->lo.z, bound->hi.z - pos.z});
      return margin <= bound_pad;
    };

    // a_lm assembly + zeta/xi accumulation after the kernel has consumed
    // one primary's pairs; identical for both drivers.
    auto finish_primary = [&](std::int64_t p) {
      Timer tz;
      if (save_to && near_bound(p)) {
        save_to->prim.push_back(p);
        int nb = 0;
        for (int b = 0; b < nbins; ++b)
          if (acc.bin_touched(b)) {
            save_to->bins.push_back(b);
            // Grow a whole block at a time, as a range insert does:
            // per-value push_back rounds this megabyte-scale buffer's
            // capacity up further.
            const std::size_t at = save_to->sums.size();
            save_to->sums.resize(at + acc.n_mono());
            const MultipoleAccumulator::PowerSums s = acc.power_sums(b);
            for (int t = 0; t < acc.n_mono(); ++t) save_to->sums[at + t] = s[t];
            ++nb;
          }
        save_to->nbins.push_back(nb);
      }
      const double wp = catalog.w[static_cast<std::size_t>(p)];
      for (int b = 0; b < nbins; ++b)
        if (acc.bin_touched(b))
          xi.add_primary_bin(wp, b, acc.sums() + b, table.monomials(),
                             acc.sums_stride());
      const std::vector<int>& bins = acc.touched_bins();
      zeta.add_primary_sums(wp, table, acc.sums(), acc.sums_stride(),
                            bins.data(), static_cast<int>(bins.size()));
      if (sp)
        for (int b = 0; b < nbins; ++b)
          if (sp->bin_touched(b)) {
            zeta.subtract_self(wp, b, sp->self_re(b), sp->self_im(b));
          }
      z_time += tz.seconds();
    };

    if (traversal == TraversalMode::kPerPrimary) {
      tree::NeighborList<Real> nl;
      PairStage ps;

      auto process = [&](std::int64_t pi) {
        if (do_poll && ++since_poll >= kPollPrimaryStride) {
          since_poll = 0;
          poll();
        }
        const std::int64_t p = primaries ? (*primaries)[pi] : pi;
        const sim::Vec3 pos = catalog.position(static_cast<std::size_t>(p));

        Rotation rot;
        bool rotate = false;
        if (!make_rotation(p, rot, rotate)) {
          ++my_skip;
          return;
        }

        Timer tq;
        nl.clear();
        index.gather_neighbors(pos.x, pos.y, pos.z, cfg.bins.rmax(), nl);
        if (secondary) {
          const std::size_t before = nl.size();
          secondary->gather_neighbors(pos.x, pos.y, pos.z, cfg.bins.rmax(),
                                      nl);
          for (std::size_t j = before; j < nl.size(); ++j)
            nl.idx[j] += halo_offset;
        }
        const std::size_t count = nl.size();
        // The index already computed (and range-filtered) r2 in Real;
        // rotation preserves the norm, so bin on the stored value instead
        // of recomputing. Excluding the primary itself and coincident
        // galaxies (direction undefined) completes the accept set.
        ps.fill(nl.dx.data(), nl.dy.data(), nl.dz.data(), nl.r2.data(),
                nl.w.data(), nl.idx.data(), count,
                std::numeric_limits<Real>::infinity(), p);
        q_time += tq.seconds();

        Timer tk;
        acc.start_primary();
        if (sp) sp->start_primary();
        for (std::size_t j = 0; j < ps.count; ++j) {
          const int bin = cfg.bins.bin_of(ps.r[j]);
          if (bin < 0) continue;
          double dx = ps.dx[j];
          double dy = ps.dy[j];
          double dz = ps.dz[j];
          if (rotate) rot.apply(dx, dy, dz);
          const double inv = ps.inv[j];
          acc.push(bin, dx * inv, dy * inv, dz * inv, ps.w[j]);
          if (sp) sp->add(bin, dx * inv, dy * inv, dz * inv, ps.w[j]);
        }
        acc.finish_primary();
        k_time += tk.seconds();
        my_cand += count;

        finish_primary(p);
      };

      if (cfg.tree.schedule == OmpSchedule::kDynamic) {
#pragma omp for schedule(dynamic, 4)
        for (std::int64_t i = 0; i < np; ++i) process(i);
      } else {
#pragma omp for schedule(static)
        for (std::int64_t i = 0; i < np; ++i) process(i);
      }
    } else {
      // Leaf-blocked driver: one gather per source leaf, amortized over
      // the ~leaf_size primaries it stores; the shared block stays hot in
      // cache while each primary forms its separations by SIMD
      // subtraction, range-filters on the Real r2 (bitwise the same
      // accept set and order as a per-primary index query) and pushes the
      // accepted pairs into the kernel's per-bin buckets.
      tree::NeighborBlock<Real> block;
      std::vector<Real> sdx, sdy, sdz, sr2;
      PairStage ps;
      std::vector<std::size_t> leaf_prims;
      const Real r2max = static_cast<Real>(cfg.bins.rmax()) *
                         static_cast<Real>(cfg.bins.rmax());

      auto process_leaf = [&](std::int64_t l) {
        if (do_poll && ++since_poll >= kPollLeafStride) {
          since_poll = 0;
          poll();
        }
        const std::size_t leaf = static_cast<std::size_t>(l);
        const std::int64_t begin =
            static_cast<std::int64_t>(index.leaf_begin(leaf));
        const std::int64_t end =
            static_cast<std::int64_t>(index.leaf_end(leaf));

        leaf_prims.clear();
        for (std::int64_t t = begin; t < end; ++t) {
          const std::int64_t p =
              index.original_index(static_cast<std::size_t>(t));
          if (!is_primary.empty() &&
              !is_primary[static_cast<std::size_t>(p)])
            continue;
          leaf_prims.push_back(static_cast<std::size_t>(t));
        }
        if (leaf_prims.empty()) return;

        Timer tq;
        block.clear();
        index.gather_leaf_neighbors(leaf, cfg.bins.rmax(), block);
        if (secondary) {
          Real blo[3], bhi[3];
          index.leaf_box(leaf, blo, bhi);
          const std::size_t before = block.size();
          secondary->gather_box_neighbors(blo, bhi, cfg.bins.rmax(), block);
          for (std::size_t j = before; j < block.size(); ++j)
            block.idx[j] += halo_offset;
        }
        const std::size_t m = block.size();
        sdx.resize(m);
        sdy.resize(m);
        sdz.resize(m);
        sr2.resize(m);
        q_time += tq.seconds();

        for (const std::size_t t : leaf_prims) {
          const std::int64_t p = index.original_index(t);

          Rotation rot;
          bool rotate = false;
          if (!make_rotation(p, rot, rotate)) {
            ++my_skip;
            continue;
          }

          // Separation formation (and the range filter + compaction a
          // per-primary index query would have applied during the gather)
          // is neighbor-search work, so it counts toward the "neighbor
          // query" phase.
          Timer tsep;
          const Real px = index.x(t), py = index.y(t), pz = index.z(t);
          form_separations(block, px, py, pz, sdx.data(), sdy.data(),
                           sdz.data(), sr2.data());
          ps.fill(sdx.data(), sdy.data(), sdz.data(), sr2.data(),
                  block.w.data(), block.idx.data(), m, r2max, p);
          q_time += tsep.seconds();

          Timer tk;
          acc.start_primary();
          if (sp) sp->start_primary();
          for (std::size_t j = 0; j < ps.count; ++j) {
            const int bin = cfg.bins.bin_of(ps.r[j]);
            if (bin < 0) continue;
            double dx = ps.dx[j];
            double dy = ps.dy[j];
            double dz = ps.dz[j];
            if (rotate) rot.apply(dx, dy, dz);
            const double inv = ps.inv[j];
            acc.push(bin, dx * inv, dy * inv, dz * inv, ps.w[j]);
            if (sp) sp->add(bin, dx * inv, dy * inv, dz * inv, ps.w[j]);
          }
          acc.finish_primary();
          k_time += tk.seconds();
          my_cand += m;

          finish_primary(p);
        }
      };

      const std::int64_t nleaves =
          static_cast<std::int64_t>(index.leaf_count());
      if (cfg.tree.schedule == OmpSchedule::kDynamic) {
#pragma omp for schedule(dynamic, 1)
        for (std::int64_t l = 0; l < nleaves; ++l) process_leaf(l);
      } else {
#pragma omp for schedule(static)
        for (std::int64_t l = 0; l < nleaves; ++l) process_leaf(l);
      }
    }

    {
      Timer tz;
      zeta.flush();  // the last, partial batch
      z_time += tz.seconds();
    }
    zeta_parts[tid] = std::make_unique<ZetaAccumulator>(std::move(zeta));
    xi_parts[tid] = std::make_unique<TwoPcfAccumulator>(std::move(xi));
    pairs_parts[tid] = acc.pairs_processed();
    kc_parts[tid] = acc.counters();
    cand_parts[tid] = my_cand;
    skip_parts[tid] = my_skip;
    tq_parts[tid] = q_time;
    tk_parts[tid] = k_time;
    tz_parts[tid] = z_time;
  }
  const double compute_wall = tcompute.seconds();

  std::uint64_t pairs_total = 0, cand_total = 0, skipped_total = 0;
  double t_query = 0, t_kernel = 0, t_zeta = 0;
  std::vector<std::uint64_t> per_thread;
  for (int t = 0; t < nthreads; ++t) {
    pairs_total += pairs_parts[t];
    cand_total += cand_parts[t];
    skipped_total += skip_parts[t];
    t_query += tq_parts[t];
    t_kernel += tk_parts[t];
    t_zeta += tz_parts[t];
    per_thread.push_back(pairs_parts[t]);
  }

  // Thread-summed phase times divided by thread count approximate the
  // wall-clock share of each phase inside the parallel region; the residual
  // (imbalance + merge) is reported separately so shares sum to the wall.
  const double dn = static_cast<double>(nthreads);
  stats.phases.add("neighbor query", t_query / dn);
  stats.phases.add("multipole kernel", t_kernel / dn);
  stats.phases.add("alm+zeta", t_zeta / dn);
  stats.phases.add("imbalance+merge",
                   std::max(0.0, compute_wall -
                                     (t_query + t_kernel + t_zeta) / dn));

  stats.pairs = pairs_total;
  stats.candidates = cand_total;
  set_counters(stats, kc_parts);
  stats.primaries_skipped = skipped_total;
  stats.pairs_per_thread = std::move(per_thread);
  stats.kernel_flop_count =
      static_cast<double>(pairs_total) * kernel_flops_per_pair(lmax);
  stats.wall_seconds = wall.seconds();

  if (park) {
    // Two-pass owned pass: the partials survive in the handle; the merge
    // (below, in identical thread-id order) happens in run_secondary_pass.
    park->nthreads = nthreads;
    park->zeta = std::move(zeta_parts);
    park->xi = std::move(xi_parts);
    park->pairs = std::move(pairs_parts);
    return;
  }

  ZetaAccumulator zeta_total(lmax, nbins);
  TwoPcfAccumulator xi_total(lmax, nbins);
  for (int t = 0; t < nthreads; ++t) {
    if (zeta_parts[t]) zeta_total.merge(*zeta_parts[t]);
    if (xi_parts[t]) xi_total.merge(*xi_parts[t]);
  }

  result.bins = cfg.bins;
  result.lmax = lmax;
  result.n_primaries = zeta_total.primaries();
  result.sum_primary_weight = zeta_total.sum_weight();
  result.n_pairs = pairs_total;
  result.zeta_data = zeta_total.snapshot();
  result.pair_counts = xi_total.counts();
  result.xi_raw = xi_total.xi_raw();
}

// Pass 2 of the two-pass pipeline: adds every owned-vs-halo contribution
// into the parked pass-1 partials, then merges them into `result`.
//
// Per affected primary the completion is exact (see Staged::run_owned_pass
// in the header): the owned-only a_lm A is recomputed — the same gather and
// kernel order as pass 1, so bitwise the pass-1 value — the halo-only a_lm
// B is formed from the secondary index alone, and zeta gains
// wp·(A·B* + B·A* + B·B*) while the 2PCF moments, pair counts and
// self-pair terms (all additive over secondaries) gain their halo-only
// share. Primaries with no accepted halo pair — and entire leaves whose
// box is beyond R_max of the secondary index — are skipped: their pass-1
// contribution is already final. The owned recompute is therefore paid
// only on the halo-adjacent surface of the domain, which is what makes
// running the whole O(N·n_nbr) pass 1 while the halo is in flight a net
// win.
//
// stats.pairs counts the NEW physical (owned, halo) kernel pairs — the
// runner adds it to the owned-pass count to recover the single-node total;
// kernel_flop_count counts executed kernel work (recompute included).
template <typename Real, typename Index>
void run_secondary_pass_impl(const EngineConfig& cfg,
                             const sim::Catalog& catalog, const Index& index,
                             const Index* secondary,
                             const std::vector<std::int64_t>* primaries,
                             detail::TraversalPartials& parts,
                             ZetaResult& result, EngineStats& stats) {
  Timer wall;
  const int nbins = cfg.bins.count();
  const int lmax = cfg.lmax;
  const int nlm = math::nlm(lmax);
  const math::SphHarmTable table(lmax);
  const AlmLayout alm_layout(lmax);
  const LlmIndex llm(lmax);

  const int nthreads = cfg.threads > 0 ? cfg.threads : omp_get_max_threads();
  GLX_CHECK_MSG(nthreads == parts.nthreads,
                "run_secondary_pass: thread count changed since the owned "
                "pass (" << parts.nthreads << " -> " << nthreads << ")");

  TraversalMode traversal = cfg.tree.traversal;
  if (traversal == TraversalMode::kLeafBlocked &&
      index.leaf_count() < 2 * static_cast<std::size_t>(nthreads))
    traversal = TraversalMode::kPerPrimary;

  std::vector<std::uint8_t> is_primary;
  if (primaries && traversal == TraversalMode::kLeafBlocked) {
    is_primary.assign(catalog.size(), 0);
    for (std::int64_t p : *primaries)
      is_primary[static_cast<std::size_t>(p)] = 1;
  }

  // Pass-1 snapshot lookup (SecondaryBound hint): primary id → its saved
  // owned power sums, so the owned a_lm comes from compute_alm
  // instead of a kernel re-run. Primaries without a record (hint absent,
  // or a secondary landed inside the promised bound) take the exact
  // recompute fallback.
  struct SavedRef {
    const int* bins = nullptr;
    const double* sums = nullptr;
    int count = -1;  // -1 = no snapshot
  };
  const int n_mono = math::monomial_count(lmax);
  std::vector<SavedRef> snapshot;
  {
    std::size_t total = 0;
    for (const detail::SavedPrimaries& sv : parts.saved)
      total += sv.prim.size();
    if (total > 0) {
      snapshot.resize(catalog.size());
      for (const detail::SavedPrimaries& sv : parts.saved) {
        std::size_t bin_off = 0;
        for (std::size_t i = 0; i < sv.prim.size(); ++i) {
          SavedRef& ref = snapshot[static_cast<std::size_t>(sv.prim[i])];
          ref.bins = sv.bins.data() + bin_off;
          ref.sums = sv.sums.data() + bin_off * n_mono;
          ref.count = sv.nbins[i];
          bin_off += static_cast<std::size_t>(sv.nbins[i]);
        }
      }
    }
  }

  std::vector<std::uint64_t> halo_parts(nthreads, 0), rec_parts(nthreads, 0),
      cand_parts(nthreads, 0);
  std::vector<double> tq_parts(nthreads, 0), tk_parts(nthreads, 0),
      tz_parts(nthreads, 0);
  std::vector<MultipoleAccumulator::Counters> kc_parts(2 * nthreads);

  Timer tcompute;
  if (secondary) {
#pragma omp parallel num_threads(nthreads)
    {
      const int tid = omp_get_thread_num();
      KernelConfig kc;
      kc.lmax = lmax;
      kc.nbins = nbins;
      kc.bucket_capacity = cfg.tree.bucket_capacity;
      kc.scheme = cfg.tree.scheme;
      kc.ilp = cfg.tree.ilp;
      MultipoleAccumulator acc_a(kc);  // owned-only recompute (A)
      MultipoleAccumulator acc_b(kc);  // halo-only (B)
      std::vector<std::complex<double>> alm_a(
          static_cast<std::size_t>(nbins) * nlm),
          alm_b(static_cast<std::size_t>(nbins) * nlm);
      std::vector<std::uint8_t> touched_a(nbins, 0), touched_b(nbins, 0);
      // A snapshot record's bin-major sums, re-interleaved for compute_alm.
      std::vector<double> saved_sums(acc_a.sums_stride() * n_mono, 0.0);
      ZetaAccumulator& zeta = *parts.zeta[tid];
      TwoPcfAccumulator& xi = *parts.xi[tid];
      std::optional<SelfPairAccumulator> sp;
      if (cfg.subtract_self_pairs) sp.emplace(table, llm, nbins);
      double q_time = 0, k_time = 0, z_time = 0;
      std::uint64_t my_cand = 0;

      auto make_rotation = [&](std::int64_t p, Rotation& rot, bool& rotate) {
        rotate = false;
        if (cfg.los == LineOfSight::kRadial) {
          const sim::Vec3 rel =
              catalog.position(static_cast<std::size_t>(p)) - cfg.observer;
          if (rel.norm2() == 0.0) return false;
          rot = rotation_to_z(rel);
          rotate = true;
        }
        return true;
      };

      // Rebuilds one primary's owned a_lm A from its pass-1 snapshot;
      // false when no snapshot exists (caller recomputes).
      auto restore_a = [&](std::int64_t p) {
        if (snapshot.empty()) return false;
        const SavedRef& ref = snapshot[static_cast<std::size_t>(p)];
        if (ref.count < 0) return false;
        Timer tz;
        std::fill(touched_a.begin(), touched_a.end(), 0);
        const std::size_t stride = acc_a.sums_stride();
        for (int i = 0; i < ref.count; ++i) {
          const int b = ref.bins[i];
          touched_a[b] = 1;
          const double* s = ref.sums + static_cast<std::size_t>(i) * n_mono;
          for (int t = 0; t < n_mono; ++t)
            saved_sums[static_cast<std::size_t>(t) * stride + b] = s[t];
        }
        compute_alm(table, alm_layout, saved_sums.data(), stride, ref.bins,
                    ref.count, alm_a.data());
        z_time += tz.seconds();
        return true;
      };

      // Assembles B for one affected primary (A is already prepared by
      // restore_a or the recompute fallback) and adds the exact completion
      // term plus the additive halo-side 2PCF / self terms.
      auto finish_cross = [&](std::int64_t p) {
        Timer tz;
        compute_alm(table, alm_layout, acc_b, alm_b.data(), touched_b.data());
        const double wp = catalog.w[static_cast<std::size_t>(p)];
        for (int b = 0; b < nbins; ++b)
          if (touched_b[b])
            xi.add_primary_bin(wp, b, acc_b.sums() + b, table.monomials(),
                               acc_b.sums_stride());
        zeta.add_primary_cross(wp, alm_a.data(), touched_a.data(),
                               alm_b.data(), touched_b.data());
        if (sp)
          for (int b = 0; b < nbins; ++b)
            if (sp->bin_touched(b)) {
              zeta.subtract_self(wp, b, sp->self_re(b), sp->self_im(b));
            }
        z_time += tz.seconds();
      };

      if (traversal == TraversalMode::kPerPrimary) {
        const std::int64_t np =
            primaries ? static_cast<std::int64_t>(primaries->size())
                      : static_cast<std::int64_t>(catalog.size());
        tree::NeighborList<Real> nl_b, nl_a;
        PairStage ps;

        auto process = [&](std::int64_t pi) {
          const std::int64_t p = primaries ? (*primaries)[pi] : pi;
          const sim::Vec3 pos = catalog.position(static_cast<std::size_t>(p));
          Rotation rot;
          bool rotate = false;
          if (!make_rotation(p, rot, rotate)) return;  // counted in pass 1

          Timer tq;
          nl_b.clear();
          secondary->gather_neighbors(pos.x, pos.y, pos.z, cfg.bins.rmax(),
                                      nl_b);
          // Halo blocks are disjoint from the owned set: no self-exclusion.
          ps.fill(nl_b.dx.data(), nl_b.dy.data(), nl_b.dz.data(),
                  nl_b.r2.data(), nl_b.w.data(), nl_b.idx.data(), nl_b.size(),
                  std::numeric_limits<Real>::infinity(), -1);
          q_time += tq.seconds();
          my_cand += nl_b.size();
          if (nl_b.size() == 0) return;

          Timer tk;
          acc_b.start_primary();
          if (sp) sp->start_primary();
          std::uint64_t accepted = 0;
          for (std::size_t j = 0; j < ps.count; ++j) {
            const int bin = cfg.bins.bin_of(ps.r[j]);
            if (bin < 0) continue;
            double dx = ps.dx[j];
            double dy = ps.dy[j];
            double dz = ps.dz[j];
            if (rotate) rot.apply(dx, dy, dz);
            const double inv = ps.inv[j];
            acc_b.push(bin, dx * inv, dy * inv, dz * inv, ps.w[j]);
            if (sp) sp->add(bin, dx * inv, dy * inv, dz * inv, ps.w[j]);
            ++accepted;
          }
          acc_b.finish_primary();
          k_time += tk.seconds();
          if (accepted == 0) return;  // pass-1 contribution already final

          if (!restore_a(p)) {
            Timer tq2;
            nl_a.clear();
            index.gather_neighbors(pos.x, pos.y, pos.z, cfg.bins.rmax(),
                                   nl_a);
            ps.fill(nl_a.dx.data(), nl_a.dy.data(), nl_a.dz.data(),
                    nl_a.r2.data(), nl_a.w.data(), nl_a.idx.data(),
                    nl_a.size(), std::numeric_limits<Real>::infinity(), p);
            q_time += tq2.seconds();
            my_cand += nl_a.size();

            Timer tk2;
            acc_a.start_primary();
            for (std::size_t j = 0; j < ps.count; ++j) {
              const int bin = cfg.bins.bin_of(ps.r[j]);
              if (bin < 0) continue;
              double dx = ps.dx[j];
              double dy = ps.dy[j];
              double dz = ps.dz[j];
              if (rotate) rot.apply(dx, dy, dz);
              const double inv = ps.inv[j];
              acc_a.push(bin, dx * inv, dy * inv, dz * inv, ps.w[j]);
            }
            acc_a.finish_primary();
            k_time += tk2.seconds();
            Timer tza;
            compute_alm(table, alm_layout, acc_a, alm_a.data(),
                        touched_a.data());
            z_time += tza.seconds();
          }
          finish_cross(p);
        };

        if (cfg.tree.schedule == OmpSchedule::kDynamic) {
#pragma omp for schedule(dynamic, 4)
          for (std::int64_t i = 0; i < np; ++i) process(i);
        } else {
#pragma omp for schedule(static)
          for (std::int64_t i = 0; i < np; ++i) process(i);
        }
      } else {
        tree::NeighborBlock<Real> halo_block, owned_block;
        std::vector<Real> bdx, bdy, bdz, br2, adx, ady, adz, ar2;
        PairStage ps;
        std::vector<std::size_t> leaf_prims;
        const Real r2max = static_cast<Real>(cfg.bins.rmax()) *
                           static_cast<Real>(cfg.bins.rmax());

        auto process_leaf = [&](std::int64_t l) {
          const std::size_t leaf = static_cast<std::size_t>(l);
          // O(1) whole-secondary prune: interior leaves exit before any
          // gather or block formation.
          Real blo[3], bhi[3];
          index.leaf_box(leaf, blo, bhi);
          if (secondary->box_beyond_reach(blo, bhi, cfg.bins.rmax())) return;

          const std::int64_t begin =
              static_cast<std::int64_t>(index.leaf_begin(leaf));
          const std::int64_t end =
              static_cast<std::int64_t>(index.leaf_end(leaf));
          leaf_prims.clear();
          for (std::int64_t t = begin; t < end; ++t) {
            const std::int64_t p =
                index.original_index(static_cast<std::size_t>(t));
            if (!is_primary.empty() &&
                !is_primary[static_cast<std::size_t>(p)])
              continue;
            leaf_prims.push_back(static_cast<std::size_t>(t));
          }
          if (leaf_prims.empty()) return;

          Timer tq;
          halo_block.clear();
          secondary->gather_box_neighbors(blo, bhi, cfg.bins.rmax(),
                                          halo_block);
          q_time += tq.seconds();
          if (halo_block.size() == 0) return;
          const std::size_t mb = halo_block.size();
          bdx.resize(mb);
          bdy.resize(mb);
          bdz.resize(mb);
          br2.resize(mb);

          // The owned block is re-formed lazily — only once some primary
          // in this leaf actually accepts a halo pair — and then shared by
          // the leaf's remaining primaries, the same amortization as
          // pass 1.
          bool owned_ready = false;
          std::size_t ma = 0;

          for (const std::size_t t : leaf_prims) {
            const std::int64_t p = index.original_index(t);
            Rotation rot;
            bool rotate = false;
            if (!make_rotation(p, rot, rotate)) continue;

            Timer tsep;
            const Real px = index.x(t), py = index.y(t), pz = index.z(t);
            form_separations(halo_block, px, py, pz, bdx.data(), bdy.data(),
                             bdz.data(), br2.data());
            // Halo block is disjoint from the owned set: no self-exclusion.
            ps.fill(bdx.data(), bdy.data(), bdz.data(), br2.data(),
                    halo_block.w.data(), halo_block.idx.data(), mb, r2max,
                    -1);
            q_time += tsep.seconds();

            Timer tk;
            acc_b.start_primary();
            if (sp) sp->start_primary();
            std::uint64_t accepted = 0;
            for (std::size_t j = 0; j < ps.count; ++j) {
              const int bin = cfg.bins.bin_of(ps.r[j]);
              if (bin < 0) continue;
              double dx = ps.dx[j];
              double dy = ps.dy[j];
              double dz = ps.dz[j];
              if (rotate) rot.apply(dx, dy, dz);
              const double inv = ps.inv[j];
              acc_b.push(bin, dx * inv, dy * inv, dz * inv, ps.w[j]);
              if (sp) sp->add(bin, dx * inv, dy * inv, dz * inv, ps.w[j]);
              ++accepted;
            }
            acc_b.finish_primary();
            k_time += tk.seconds();
            my_cand += mb;
            if (accepted == 0) continue;  // pass-1 contribution final

            if (restore_a(p)) {
              finish_cross(p);
              continue;
            }

            if (!owned_ready) {
              Timer tg;
              owned_block.clear();
              index.gather_leaf_neighbors(leaf, cfg.bins.rmax(), owned_block);
              ma = owned_block.size();
              adx.resize(ma);
              ady.resize(ma);
              adz.resize(ma);
              ar2.resize(ma);
              q_time += tg.seconds();
              owned_ready = true;
            }

            Timer tsep2;
            form_separations(owned_block, px, py, pz, adx.data(), ady.data(),
                             adz.data(), ar2.data());
            ps.fill(adx.data(), ady.data(), adz.data(), ar2.data(),
                    owned_block.w.data(), owned_block.idx.data(), ma, r2max,
                    p);
            q_time += tsep2.seconds();

            Timer tk2;
            acc_a.start_primary();
            for (std::size_t j = 0; j < ps.count; ++j) {
              const int bin = cfg.bins.bin_of(ps.r[j]);
              if (bin < 0) continue;
              double dx = ps.dx[j];
              double dy = ps.dy[j];
              double dz = ps.dz[j];
              if (rotate) rot.apply(dx, dy, dz);
              const double inv = ps.inv[j];
              acc_a.push(bin, dx * inv, dy * inv, dz * inv, ps.w[j]);
            }
            acc_a.finish_primary();
            k_time += tk2.seconds();
            my_cand += ma;
            Timer tza;
            compute_alm(table, alm_layout, acc_a, alm_a.data(),
                        touched_a.data());
            z_time += tza.seconds();

            finish_cross(p);
          }
        };

        const std::int64_t nleaves =
            static_cast<std::int64_t>(index.leaf_count());
        if (cfg.tree.schedule == OmpSchedule::kDynamic) {
#pragma omp for schedule(dynamic, 1)
          for (std::int64_t l = 0; l < nleaves; ++l) process_leaf(l);
        } else {
#pragma omp for schedule(static)
          for (std::int64_t l = 0; l < nleaves; ++l) process_leaf(l);
        }
      }

      halo_parts[tid] = acc_b.pairs_processed();
      rec_parts[tid] = acc_a.pairs_processed();
      kc_parts[2 * tid] = acc_a.counters();
      kc_parts[2 * tid + 1] = acc_b.counters();
      cand_parts[tid] = my_cand;
      tq_parts[tid] = q_time;
      tk_parts[tid] = k_time;
      tz_parts[tid] = z_time;
      parts.pairs[tid] += acc_b.pairs_processed();
    }
  }
  const double compute_wall = tcompute.seconds();

  std::uint64_t halo_pairs = 0, rec_pairs = 0, cand_total = 0;
  double t_query = 0, t_kernel = 0, t_zeta = 0;
  std::vector<std::uint64_t> per_thread;
  for (int t = 0; t < nthreads; ++t) {
    halo_pairs += halo_parts[t];
    rec_pairs += rec_parts[t];
    cand_total += cand_parts[t];
    t_query += tq_parts[t];
    t_kernel += tk_parts[t];
    t_zeta += tz_parts[t];
    per_thread.push_back(halo_parts[t]);
  }

  const double dn = static_cast<double>(nthreads);
  stats.phases.add("neighbor query", t_query / dn);
  stats.phases.add("multipole kernel", t_kernel / dn);
  stats.phases.add("alm+zeta", t_zeta / dn);
  stats.phases.add("imbalance+merge",
                   std::max(0.0, compute_wall -
                                     (t_query + t_kernel + t_zeta) / dn));
  stats.pairs = halo_pairs;
  stats.candidates = cand_total;
  set_counters(stats, kc_parts);
  stats.primaries_skipped = 0;  // skips were counted by the owned pass
  stats.pairs_per_thread = std::move(per_thread);
  stats.kernel_flop_count = static_cast<double>(halo_pairs + rec_pairs) *
                            kernel_flops_per_pair(lmax);

  // Merge the completed partials — identical thread-id order to the fused
  // path, so an empty secondary pass reproduces run_indexed bitwise.
  ZetaAccumulator zeta_total(lmax, nbins);
  TwoPcfAccumulator xi_total(lmax, nbins);
  std::uint64_t pairs_total = 0;
  for (int t = 0; t < parts.nthreads; ++t) {
    if (parts.zeta[t]) zeta_total.merge(*parts.zeta[t]);
    if (parts.xi[t]) xi_total.merge(*parts.xi[t]);
    pairs_total += parts.pairs[t];
  }
  stats.wall_seconds = wall.seconds();

  result.bins = cfg.bins;
  result.lmax = lmax;
  result.n_primaries = zeta_total.primaries();
  result.sum_primary_weight = zeta_total.sum_weight();
  result.n_pairs = pairs_total;
  result.zeta_data = zeta_total.snapshot();
  result.pair_counts = xi_total.counts();
  result.xi_raw = xi_total.xi_raw();
}

}  // namespace

namespace detail {

// Type-erased holder behind Engine::Staged: the (Real, Index) template
// choice is made once at build_index time, so extend/run dispatch without
// re-deciding precision or index kind.
struct EngineStagedImpl {
  virtual ~EngineStagedImpl() = default;
  virtual void extend(const sim::Catalog& halo) = 0;
  virtual bool has_secondary() const = 0;
  virtual void run(const std::vector<std::int64_t>* primaries,
                   ZetaResult& result, EngineStats& stats) const = 0;
  virtual void owned_pass(const std::vector<std::int64_t>* primaries,
                          EngineStats& stats,
                          const std::function<void()>& poll,
                          const Engine::SecondaryBound* bound) = 0;
  virtual void secondary_pass(const std::vector<std::int64_t>* primaries,
                              ZetaResult& result, EngineStats& stats) = 0;

  EngineConfig cfg;
  std::size_t owned_size = 0;
  double build_seconds = 0.0;  // primary + secondary index build time

  // Two-pass state: partials parked by run_owned_pass (consumed by
  // run_secondary_pass), the owned-pass primary restriction (pass 2 must
  // see the same set), and how much of build_seconds has already been
  // reported as an "index build" phase.
  std::unique_ptr<TraversalPartials> partials;
  std::vector<std::int64_t> primaries_storage;
  bool restrict_primaries = false;
  double build_reported = 0.0;
};

}  // namespace detail

namespace {

template <typename Real, typename Index>
struct StagedImplT final : detail::EngineStagedImpl {
  // `copy_owned` — the public staged pipeline copies the catalog (the
  // caller's buffer may move or be freed before run_indexed; e.g. the
  // runner's halo append reallocates it), while the fused Engine::run path
  // references the caller's catalog, which outlives the call, to keep the
  // hot path free of an O(N) copy.
  StagedImplT(const EngineConfig& c, const sim::Catalog& o, bool copy_owned) {
    cfg = c;
    if (copy_owned) {
      storage = o;
      owned = &storage;
    } else {
      owned = &o;
    }
    owned_size = owned->size();
    primary = make_index<Real, Index>(*owned, cfg, /*for_secondary=*/false);
  }

  // Move variant: adopts the caller's buffer as storage (no copy).
  StagedImplT(const EngineConfig& c, sim::Catalog&& o) {
    cfg = c;
    storage = std::move(o);
    owned = &storage;
    owned_size = owned->size();
    primary = make_index<Real, Index>(*owned, cfg, /*for_secondary=*/false);
  }

  void extend(const sim::Catalog& halo) override {
    secondary.emplace(make_index<Real, Index>(halo, cfg, /*for_secondary=*/true));
  }

  bool has_secondary() const override { return secondary.has_value(); }

  void run(const std::vector<std::int64_t>* primaries, ZetaResult& result,
           EngineStats& stats) const override {
    run_indexed_impl<Real, Index>(cfg, *owned, primary,
                                  secondary ? &*secondary : nullptr,
                                  primaries, result, stats);
  }

  void owned_pass(const std::vector<std::int64_t>* primaries,
                  EngineStats& stats, const std::function<void()>& poll,
                  const Engine::SecondaryBound* bound) override {
    partials = std::make_unique<detail::TraversalPartials>();
    ZetaResult scratch;  // untouched: the partials are parked, not merged
    run_indexed_impl<Real, Index>(cfg, *owned, primary, /*secondary=*/nullptr,
                                  primaries, scratch, stats, partials.get(),
                                  poll, bound);
  }

  void secondary_pass(const std::vector<std::int64_t>* primaries,
                      ZetaResult& result, EngineStats& stats) override {
    run_secondary_pass_impl<Real, Index>(cfg, *owned, primary,
                                         secondary ? &*secondary : nullptr,
                                         primaries, *partials, result, stats);
  }

  sim::Catalog storage;                    // only when copy_owned
  const sim::Catalog* owned = nullptr;     // primaries index into this
  Index primary;
  std::optional<Index> secondary;
};

}  // namespace

const char* backend_name(EstimatorBackend b) {
  switch (b) {
    case EstimatorBackend::kTree: return "tree";
    case EstimatorBackend::kFFT: return "fft";
  }
  return "?";
}

EstimatorBackend backend_from_name(const std::string& name) {
  if (name == "tree") return EstimatorBackend::kTree;
  if (name == "fft") return EstimatorBackend::kFFT;
  GLX_CHECK_MSG(false, "unknown estimator backend '" << name
                                                     << "' (tree|fft)");
  return EstimatorBackend::kTree;
}

Engine::Engine(EngineConfig cfg) : cfg_(std::move(cfg)) {
  GLX_CHECK(cfg_.lmax >= 0 && cfg_.lmax <= 16);
  GLX_CHECK(cfg_.bins.count() >= 1);
}

ZetaResult Engine::empty_result() const {
  return ZetaResult::zero_like(cfg_.bins, cfg_.lmax);
}

namespace {

// One definition of the (precision, index) dispatch: `make` is called with
// a StagedImplT<Real, Index> type tag and returns the built impl.
template <typename Real, typename Index>
struct StagedTag {
  using Impl = StagedImplT<Real, Index>;
};

template <typename Make>
std::shared_ptr<detail::EngineStagedImpl> dispatch_staged(
    const EngineConfig& cfg, Make&& make) {
  const bool mixed = cfg.tree.precision == TreePrecision::kMixed;
  const bool grid = cfg.tree.index == NeighborIndex::kCellGrid;
  if (mixed && grid) return make(StagedTag<float, tree::CellGrid<float>>{});
  if (mixed) return make(StagedTag<float, tree::KdTree<float>>{});
  if (grid) return make(StagedTag<double, tree::CellGrid<double>>{});
  return make(StagedTag<double, tree::KdTree<double>>{});
}

}  // namespace

Engine::Staged Engine::build_index(const sim::Catalog& owned) const {
  return build_index_impl(owned, /*copy_owned=*/true);
}

Engine::Staged Engine::build_index(sim::Catalog&& owned) const {
  GLX_CHECK_MSG(cfg_.backend == EstimatorBackend::kTree,
                "build_index: the staged pipeline is tree-backend only "
                "(the FFT backend decomposes the mesh, not the points)");
  GLX_CHECK_MSG(!owned.empty(), "build_index: empty catalog");
  Timer tbuild;
  Staged staged;
  staged.impl_ = dispatch_staged(
      cfg_, [&](auto tag) -> std::shared_ptr<detail::EngineStagedImpl> {
        using Impl = typename decltype(tag)::Impl;
        return std::make_shared<Impl>(cfg_, std::move(owned));
      });
  staged.impl_->build_seconds = tbuild.seconds();
  return staged;
}

Engine::Staged Engine::build_index_impl(const sim::Catalog& owned,
                                        bool copy_owned) const {
  GLX_CHECK_MSG(cfg_.backend == EstimatorBackend::kTree,
                "build_index: the staged pipeline is tree-backend only "
                "(the FFT backend decomposes the mesh, not the points)");
  GLX_CHECK_MSG(!owned.empty(), "build_index: empty catalog");
  Timer tbuild;
  Staged staged;
  staged.impl_ = dispatch_staged(
      cfg_, [&](auto tag) -> std::shared_ptr<detail::EngineStagedImpl> {
        using Impl = typename decltype(tag)::Impl;
        return std::make_shared<Impl>(cfg_, owned, copy_owned);
      });
  staged.impl_->build_seconds = tbuild.seconds();
  return staged;
}

void Engine::Staged::extend_with_secondaries(const sim::Catalog& halo) {
  GLX_CHECK_MSG(impl_ != nullptr,
                "extend_with_secondaries on an empty Staged handle");
  GLX_CHECK_MSG(!impl_->has_secondary(),
                "extend_with_secondaries called twice");
  if (halo.empty()) return;
  Timer t;
  impl_->extend(halo);
  impl_->build_seconds += t.seconds();
}

void Engine::Staged::extend_with_let(const std::vector<tree::LetMessage>& msgs,
                                     const SecondaryBound& bound) {
  GLX_CHECK_MSG(impl_ != nullptr, "extend_with_let on an empty Staged handle");
  GLX_CHECK_MSG(!impl_->has_secondary(), "extend_with_let called twice");
  Timer t;
  // Receiver-side pruning tier: drop whole cells beyond R_max of this
  // rank's domain before the secondary build ever sees their points. The
  // senders already pruned per point against the same box, so in the
  // two-rank exchange this usually keeps everything — it pays off when a
  // sender's conservative leaf AABBs straddle the reach boundary.
  sim::Aabb target{bound.lo, bound.hi};
  const double rmax = impl_->cfg.bins.rmax();
  sim::Catalog halo;
  for (const tree::LetMessage& m : msgs)
    tree::append_let_to_catalog(m, target, rmax, halo);
  if (!halo.empty()) impl_->extend(halo);
  impl_->build_seconds += t.seconds();
}

namespace {

void validate_primaries(std::size_t owned_size,
                        const std::vector<std::int64_t>* primaries) {
  if (!primaries) return;
  std::vector<std::uint8_t> seen(owned_size, 0);
  for (std::int64_t p : *primaries) {
    GLX_CHECK_MSG(p >= 0 && p < static_cast<std::int64_t>(owned_size),
                  "primary index out of range: " << p);
    GLX_CHECK_MSG(!seen[static_cast<std::size_t>(p)],
                  "duplicate primary index: " << p);
    seen[static_cast<std::size_t>(p)] = 1;
  }
}

}  // namespace

ZetaResult Engine::Staged::run_indexed(
    const std::vector<std::int64_t>* primaries, EngineStats* stats) const {
  GLX_CHECK_MSG(impl_ != nullptr, "run_indexed on an empty Staged handle");
  GLX_CHECK_MSG(impl_->partials == nullptr,
                "run_indexed with a pending owned pass — finish the "
                "two-pass pipeline with run_secondary_pass");
  validate_primaries(impl_->owned_size, primaries);

  ZetaResult result;
  EngineStats local_stats;
  EngineStats& st = stats ? *stats : local_stats;
  st.phases.add("index build", impl_->build_seconds);
  impl_->run(primaries, result, st);
  return result;
}

void Engine::Staged::run_owned_pass(
    const std::vector<std::int64_t>* primaries, EngineStats* stats,
    const std::function<void()>& poll, const SecondaryBound* bound) {
  GLX_CHECK_MSG(impl_ != nullptr, "run_owned_pass on an empty Staged handle");
  GLX_CHECK_MSG(impl_->partials == nullptr,
                "run_owned_pass called twice without run_secondary_pass");
  validate_primaries(impl_->owned_size, primaries);
  impl_->restrict_primaries = primaries != nullptr;
  impl_->primaries_storage =
      primaries ? *primaries : std::vector<std::int64_t>{};

  EngineStats local_stats;
  EngineStats& st = stats ? *stats : local_stats;
  st.phases.add("index build", impl_->build_seconds);
  impl_->build_reported = impl_->build_seconds;
  impl_->owned_pass(
      impl_->restrict_primaries ? &impl_->primaries_storage : nullptr, st,
      poll, bound);
}

ZetaResult Engine::Staged::run_secondary_pass(EngineStats* stats) {
  GLX_CHECK_MSG(impl_ != nullptr,
                "run_secondary_pass on an empty Staged handle");
  GLX_CHECK_MSG(impl_->partials != nullptr,
                "run_secondary_pass without a pending run_owned_pass");

  EngineStats local_stats;
  EngineStats& st = stats ? *stats : local_stats;
  // Only the build time accrued since the owned pass reported (i.e. the
  // secondary index, in the canonical post → pass 1 → extend → pass 2
  // order).
  st.phases.add("index build", impl_->build_seconds - impl_->build_reported);
  impl_->build_reported = impl_->build_seconds;
  ZetaResult result;
  impl_->secondary_pass(
      impl_->restrict_primaries ? &impl_->primaries_storage : nullptr, result,
      st);
  impl_->partials.reset();
  return result;
}

bool Engine::Staged::owned_pass_pending() const {
  return impl_ != nullptr && impl_->partials != nullptr;
}

ZetaResult Engine::run(const sim::Catalog& catalog,
                       const std::vector<std::int64_t>* primaries,
                       EngineStats* stats) const {
  GLX_CHECK_MSG(!catalog.empty(), "empty catalog");
  if (cfg_.backend == EstimatorBackend::kFFT)
    return fft_3pcf(cfg_, catalog, primaries, stats);
  Timer wall;
  // The catalog outlives this call, so the staged handle references it
  // instead of copying (it never escapes this scope).
  const ZetaResult result =
      build_index_impl(catalog, /*copy_owned=*/false)
          .run_indexed(primaries, stats);
  if (stats) stats->wall_seconds = wall.seconds();
  return result;
}

ZetaResult Estimator::empty_result() const {
  return ZetaResult::zero_like(cfg_.bins, cfg_.lmax);
}

namespace {

// The tree backend behind the Estimator interface: a thin shell over
// Engine, whose run() IS the tree path when backend == kTree.
class TreeEstimator final : public Estimator {
 public:
  explicit TreeEstimator(EngineConfig cfg)
      : Estimator(std::move(cfg)), engine_(cfg_) {}

  ZetaResult run(const sim::Catalog& catalog,
                 const std::vector<std::int64_t>* primaries,
                 EngineStats* stats) const override {
    return engine_.run(catalog, primaries, stats);
  }

 private:
  Engine engine_;
};

}  // namespace

std::unique_ptr<Estimator> make_estimator(const EngineConfig& cfg) {
  switch (cfg.backend) {
    case EstimatorBackend::kTree:
      return std::make_unique<TreeEstimator>(cfg);
    case EstimatorBackend::kFFT:
      return std::make_unique<FftEstimator>(cfg);
  }
  GLX_CHECK_MSG(false, "unknown estimator backend");
  return nullptr;
}

}  // namespace galactos::core
