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
#include "tree/kdtree.hpp"

namespace galactos::core {

namespace detail {

// Owned-only power sums snapshotted during pass 1 for primaries that might
// see halo secondaries (within R_max of the SecondaryBound box). One
// instance per thread; concatenated SoA records, looked up by primary id
// in pass 2, where compute_alm rebuilds the owned a_lm from them.
struct SavedPrimaries {
  std::vector<std::int64_t> prim;  // primary id per record
  std::vector<int> nbins;          // touched-bin count per record
  std::vector<int> bins;           // concatenated touched-bin ids
  std::vector<double> sums;        // concatenated [n_mono] blocks
};

// Per-thread partial accumulators, merged in thread-id order. The fused
// run_indexed path merges them as soon as its traversal ends; the two-pass
// pipeline parks them in the Staged handle between the passes, so pass 2
// keeps adding into the exact per-thread slots pass 1 filled and the final
// merge runs in the same thread-id order either way.
struct TraversalPartials {
  explicit TraversalPartials(int n)
      : nthreads(n), zeta(n), xi(n), pairs(n, 0), saved(n) {}

  int nthreads;
  std::vector<std::unique_ptr<ZetaAccumulator>> zeta;
  std::vector<std::unique_ptr<TwoPcfAccumulator>> xi;
  std::vector<std::uint64_t> pairs;   // per thread; pass 2 adds halo pairs
  std::vector<SavedPrimaries> saved;  // per thread; filled by the owned pass
};

}  // namespace detail

namespace {

int thread_count(const EngineConfig& cfg) {
  return cfg.threads > 0 ? cfg.threads : omp_get_max_threads();
}

// Primary and secondary indexes alike: Morton layout, built on the
// engine's threads.
template <typename Real>
tree::KdTree<Real> make_index(const sim::Catalog& catalog,
                              const EngineConfig& cfg) {
  typename tree::KdTree<Real>::BuildParams bp;
  bp.leaf_size = cfg.tree.leaf_size;
  bp.threads = thread_count(cfg);
  return tree::KdTree<Real>(catalog, bp);
}

KernelConfig kernel_config(const EngineConfig& cfg) {
  KernelConfig kc;
  kc.lmax = cfg.lmax;
  kc.nbins = cfg.bins.count();
  kc.bucket_capacity = cfg.tree.bucket_capacity;
  kc.ilp = cfg.tree.ilp;
  return kc;
}

// What one thread's share of a traversal adds up to: candidates scanned,
// primaries skipped and per-phase seconds (kept by the per-leaf bodies),
// plus the kernel's pair count and epilogue counters (read off the
// accumulator at the end).
struct LaneTally {
  std::uint64_t pairs = 0, candidates = 0, skipped = 0;
  double t_query = 0, t_kernel = 0, t_zeta = 0;
  MultipoleAccumulator::Counters kernel;
};

// One thread's traversal state, handed to its per-leaf body: the kernel
// accumulator with its self-pair twin, the pair staging, this thread's
// zeta / 2PCF partials and its tally.
template <typename Real>
struct Lane {
  Lane(const EngineConfig& c, const sim::Catalog& cat,
       const math::SphHarmTable& t, const LlmIndex& llm, ZetaAccumulator& z,
       TwoPcfAccumulator& x, int id)
      : cfg(c), catalog(cat), table(t), tid(id), acc(kernel_config(c)),
        zeta(z), xi(x) {
    if (c.subtract_self_pairs) sp.emplace(t, llm, c.bins.count());
  }

  // LOS setup: false when the primary must be skipped (radial mode,
  // primary at the observer); `rotate` stays false for plane-parallel.
  bool make_rotation(std::int64_t p, Rotation& rot, bool& rotate) const {
    rotate = false;
    if (cfg.los == LineOfSight::kRadial) {
      const sim::Vec3 rel =
          catalog.position(static_cast<std::size_t>(p)) - cfg.observer;
      if (rel.norm2() == 0.0) return false;
      rot = rotation_to_z(rel);
      rotate = true;
    }
    return true;
  }

  // One primary against a gathered block: stage_pairs (separations, range
  // filter, self exclusion, binning, LOS rotation and normalization —
  // neighbor-search work, timed as the query phase), then the append into
  // this lane's accumulators (kernel phase). `rot` null: plane-parallel.
  // Returns the number of pairs that landed in a bin.
  std::uint64_t stage_and_push(const tree::NeighborBlock<Real>& block,
                               Real px, Real py, Real pz, Real r2max,
                               std::int64_t self, const Rotation* rot) {
    Timer tq;
    stage_pairs(block, px, py, pz, r2max, self, cfg.bins, rot, staged);
    tally.candidates += block.size();
    tally.t_query += tq.seconds();
    Timer tk;
    acc.start_primary();
    acc.push_staged(staged);
    acc.finish_primary();
    if (sp) {
      sp->start_primary();
      sp->add(staged);
    }
    tally.t_kernel += tk.seconds();
    return staged.count;
  }

  // The 2PCF moments of the pairs just pushed.
  void add_xi(double wp) {
    for (int b = 0; b < cfg.bins.count(); ++b)
      if (acc.bin_touched(b))
        xi.add_primary_bin(wp, b, acc.sums() + b, table.monomials(),
                           acc.sums_stride());
  }

  // Removes the degenerate j == k terms of the pairs just pushed.
  void subtract_self(double wp) {
    if (!sp) return;
    for (int b = 0; b < cfg.bins.count(); ++b)
      if (sp->bin_touched(b))
        zeta.subtract_self(wp, b, sp->self_re(b), sp->self_im(b));
  }

  const EngineConfig& cfg;
  const sim::Catalog& catalog;
  const math::SphHarmTable& table;
  const int tid;
  MultipoleAccumulator acc;
  std::optional<SelfPairAccumulator> sp;
  ZetaAccumulator& zeta;
  TwoPcfAccumulator& xi;
  StagedPairs staged;
  LaneTally tally;
};

// Number of leaves the master thread processes between poll() calls.
constexpr int kPollLeafStride = 4;

// The one traversal skeleton behind every tree-backend pass: Algorithm 1
// amortized a leaf at a time (§3.3), one dynamically scheduled parallel
// loop over the primary index's leaves. The master thread — the
// caller's own OS thread, so single-threaded MPI progress rules hold —
// calls `poll`, when set, every kPollLeafStride leaves. Each thread builds
// a Lane over its slot of `parts` (creating the zeta / 2PCF partials on
// first use) and asks `make_body(lane)` once for its per-leaf body, called
// as body(leaf, prims) with the leaf's primaries: index positions in leaf
// order, restricted to `primaries` when given. Afterwards each lane's
// kernel pairs are added to parts.pairs and the tallies are rolled up into
// `stats`.
template <typename Real, typename MakeBody>
void traverse_leaves(const EngineConfig& cfg, const sim::Catalog& catalog,
                     const tree::KdTree<Real>& index,
                     const std::vector<std::int64_t>* primaries,
                     const std::function<void()>& poll,
                     detail::TraversalPartials& parts, EngineStats& stats,
                     MakeBody&& make_body) {
  const int nthreads = parts.nthreads;
  const int nbins = cfg.bins.count();
  const math::SphHarmTable table(cfg.lmax);
  const LlmIndex llm(cfg.lmax);

  // Leaves hold points in index order, so a subset of primaries is tested
  // per point.
  std::vector<std::uint8_t> is_primary;
  if (primaries) {
    is_primary.assign(catalog.size(), 0);
    for (std::int64_t p : *primaries)
      is_primary[static_cast<std::size_t>(p)] = 1;
  }

  std::vector<LaneTally> tallies(static_cast<std::size_t>(nthreads));
  Timer tcompute;
#pragma omp parallel num_threads(nthreads)
  {
    const int tid = omp_get_thread_num();
    std::unique_ptr<ZetaAccumulator>& zeta = parts.zeta[tid];
    if (!zeta) zeta = std::make_unique<ZetaAccumulator>(cfg.lmax, nbins);
    std::unique_ptr<TwoPcfAccumulator>& xi = parts.xi[tid];
    if (!xi) xi = std::make_unique<TwoPcfAccumulator>(cfg.lmax, nbins);
    Lane<Real> lane(cfg, catalog, table, llm, *zeta, *xi, tid);
    auto body = make_body(lane);
    const bool do_poll = static_cast<bool>(poll) && tid == 0;
    int since_poll = 0;
    std::vector<std::size_t> prims;

    const std::int64_t nleaves =
        static_cast<std::int64_t>(index.leaf_count());
#pragma omp for schedule(dynamic, 1)
    for (std::int64_t l = 0; l < nleaves; ++l) {
      if (do_poll && ++since_poll >= kPollLeafStride) {
        since_poll = 0;
        poll();
      }
      const std::size_t leaf = static_cast<std::size_t>(l);
      prims.clear();
      const std::size_t end = static_cast<std::size_t>(index.leaf_end(leaf));
      for (auto t = static_cast<std::size_t>(index.leaf_begin(leaf)); t < end;
           ++t)
        if (is_primary.empty() ||
            is_primary[static_cast<std::size_t>(index.original_index(t))])
          prims.push_back(t);
      if (!prims.empty()) body(leaf, prims);
    }

    {
      Timer tz;
      lane.zeta.flush();  // the last, partial batch
      lane.tally.t_zeta += tz.seconds();
    }
    lane.tally.pairs = lane.acc.pairs_processed();
    lane.tally.kernel = lane.acc.counters();
    parts.pairs[tid] += lane.tally.pairs;
    tallies[tid] = lane.tally;
  }
  const double compute_wall = tcompute.seconds();

  LaneTally sum;
  std::vector<std::uint64_t> per_thread;
  for (const LaneTally& t : tallies) {
    sum.pairs += t.pairs;
    sum.candidates += t.candidates;
    sum.skipped += t.skipped;
    sum.t_query += t.t_query;
    sum.t_kernel += t.t_kernel;
    sum.t_zeta += t.t_zeta;
    sum.kernel.epilogues += t.kernel.epilogues;
    sum.kernel.full_flushes += t.kernel.full_flushes;
    sum.kernel.partial_flushes += t.kernel.partial_flushes;
    per_thread.push_back(t.pairs);
  }

  // Thread-summed phase times divided by thread count approximate the
  // wall-clock share of each phase inside the parallel region; the residual
  // (imbalance + merge) is reported separately so shares sum to the wall.
  const double dn = static_cast<double>(nthreads);
  stats.phases.add("neighbor query", sum.t_query / dn);
  stats.phases.add("multipole kernel", sum.t_kernel / dn);
  stats.phases.add("alm+zeta", sum.t_zeta / dn);
  const double busy = (sum.t_query + sum.t_kernel + sum.t_zeta) / dn;
  stats.phases.add("imbalance+merge", std::max(0.0, compute_wall - busy));
  stats.pairs = sum.pairs;
  stats.candidates = sum.candidates;
  stats.bin_epilogues = sum.kernel.epilogues;
  stats.full_flushes = sum.kernel.full_flushes;
  stats.partial_flushes = sum.kernel.partial_flushes;
  stats.primaries_skipped = sum.skipped;
  stats.pairs_per_thread = std::move(per_thread);
  stats.kernel_flop_count =
      static_cast<double>(sum.pairs) * kernel_flops_per_pair(cfg.lmax);
}

// Merges the per-thread partials into `result` in thread-id order — the
// same order after one pass or two, so an empty secondary pass reproduces
// run_indexed bitwise.
void merge_partials(const EngineConfig& cfg,
                    const detail::TraversalPartials& parts,
                    ZetaResult& result) {
  ZetaAccumulator zeta_total(cfg.lmax, cfg.bins.count());
  TwoPcfAccumulator xi_total(cfg.lmax, cfg.bins.count());
  std::uint64_t pairs_total = 0;
  for (int t = 0; t < parts.nthreads; ++t) {
    if (parts.zeta[t]) zeta_total.merge(*parts.zeta[t]);
    if (parts.xi[t]) xi_total.merge(*parts.xi[t]);
    pairs_total += parts.pairs[t];
  }

  result.bins = cfg.bins;
  result.lmax = cfg.lmax;
  result.n_primaries = zeta_total.primaries();
  result.sum_primary_weight = zeta_total.sum_weight();
  result.n_pairs = pairs_total;
  result.zeta_data = zeta_total.snapshot();
  result.pair_counts = xi_total.counts();
  result.xi_raw = xi_total.xi_raw();
}

// The fused pass and the two-pass owned pass: every primary against the
// primary index — plus, fused, the candidates of `secondary`, whose catalog
// indices are offset by catalog.size() so they never collide with a
// primary's — with the finished power sums folded into zeta and the 2PCF.
// Each leaf gathers one candidate block (one pruned walk from the leaf's
// box), which the leaf's primaries drain while it is hot in cache.
//
// Under a `bound` (the owned pass) every primary within the padded R_max
// shell of the bound box also has its power sums snapshotted for pass 2.
template <typename Real>
void run_primary_pass(const EngineConfig& cfg, const sim::Catalog& catalog,
                      const tree::KdTree<Real>& index,
                      const tree::KdTree<Real>* secondary,
                      const std::vector<std::int64_t>* primaries,
                      const Engine::SecondaryBound* bound,
                      const std::function<void()>& poll,
                      detail::TraversalPartials& parts, EngineStats& stats) {
  Timer wall;
  const int nbins = cfg.bins.count();
  const double rmax = cfg.bins.rmax();
  const Real r2max = static_cast<Real>(rmax) * static_cast<Real>(rmax);
  const std::int64_t halo_offset = static_cast<std::int64_t>(catalog.size());

  // "Might see a secondary": the Real-precision accept filter can admit
  // pairs a few ulps beyond R_max, so pad the shell by a relative 1e-5 plus
  // a few Real ulps of the coordinate magnitude. An empty box (lo > hi)
  // leaves every primary a negative margin, so all of them are
  // snapshotted.
  double bound_pad = 0.0;
  if (bound) {
    const double max_abs = std::max(
        {std::abs(bound->lo.x), std::abs(bound->lo.y), std::abs(bound->lo.z),
         std::abs(bound->hi.x), std::abs(bound->hi.y),
         std::abs(bound->hi.z)});
    const double eps =
        static_cast<double>(std::numeric_limits<Real>::epsilon());
    bound_pad = rmax * (1.0 + 1e-5) + 8.0 * eps * (max_abs + rmax);
  }
  auto near_bound = [&](std::int64_t p) {
    const sim::Vec3 pos = catalog.position(static_cast<std::size_t>(p));
    const double margin = std::min(
        {pos.x - bound->lo.x, bound->hi.x - pos.x, pos.y - bound->lo.y,
         bound->hi.y - pos.y, pos.z - bound->lo.z, bound->hi.z - pos.z});
    return margin <= bound_pad;
  };

  traverse_leaves<Real>(
      cfg, catalog, index, primaries, poll, parts, stats,
      [&](Lane<Real>& lane) {
        detail::SavedPrimaries* save_to =
            bound ? &parts.saved[static_cast<std::size_t>(lane.tid)]
                  : nullptr;
        return [&, save_to, block = tree::NeighborBlock<Real>{}](
                   std::size_t leaf,
                   const std::vector<std::size_t>& prims) mutable {
          Timer tq;
          block.clear();
          index.gather_leaf_neighbors(leaf, rmax, block);
          if (secondary) {
            Real blo[3], bhi[3];
            index.leaf_box(leaf, blo, bhi);
            const std::size_t before = block.size();
            secondary->gather_box_neighbors(blo, bhi, rmax, block);
            for (std::size_t j = before; j < block.size(); ++j)
              block.idx[j] += halo_offset;
          }
          lane.tally.t_query += tq.seconds();

          for (const std::size_t t : prims) {
            const std::int64_t p = index.original_index(t);
            Rotation rot;
            bool rotate = false;
            if (!lane.make_rotation(p, rot, rotate)) {
              ++lane.tally.skipped;
              continue;
            }
            lane.stage_and_push(block, index.x(t), index.y(t), index.z(t),
                                r2max, p, rotate ? &rot : nullptr);

            Timer tz;
            MultipoleAccumulator& acc = lane.acc;
            if (save_to && near_bound(p)) {
              save_to->prim.push_back(p);
              int nb = 0;
              for (int b = 0; b < nbins; ++b)
                if (acc.bin_touched(b)) {
                  save_to->bins.push_back(b);
                  // Grow a whole block at a time, as a range insert does:
                  // per-value push_back rounds this megabyte-scale
                  // buffer's capacity up further.
                  const std::size_t at = save_to->sums.size();
                  save_to->sums.resize(at + acc.n_mono());
                  const MultipoleAccumulator::PowerSums s = acc.power_sums(b);
                  for (int m = 0; m < acc.n_mono(); ++m)
                    save_to->sums[at + m] = s[m];
                  ++nb;
                }
              save_to->nbins.push_back(nb);
            }
            const double wp = catalog.w[static_cast<std::size_t>(p)];
            lane.add_xi(wp);
            const std::vector<int>& bins = acc.touched_bins();
            lane.zeta.add_primary_sums(wp, lane.table, acc.sums(),
                                       acc.sums_stride(), bins.data(),
                                       static_cast<int>(bins.size()));
            lane.subtract_self(wp);
            lane.tally.t_zeta += tz.seconds();
          }
        };
      });
  stats.wall_seconds = wall.seconds();
}

// Pass 2 of the two-pass pipeline: adds every owned-vs-halo contribution
// into the parked pass-1 partials, then merges them into `result`.
//
// Per affected primary the completion is exact (see Staged::run_owned_pass
// in the header): the owned-only a_lm A is rebuilt from the pass-1
// snapshot, the halo-only a_lm B is formed from the secondary index alone,
// and zeta gains wp·(A·B* + B·A* + B·B*) while the 2PCF moments, pair
// counts and self-pair terms (all additive over secondaries) gain their
// halo-only share. Primaries with no accepted halo pair — and entire leaves
// whose box is beyond R_max of the secondary index — are skipped: their
// pass-1 contribution is already final. An affected primary without a
// snapshot means a secondary broke the SecondaryBound promise; that is
// reported after the parallel region, which an exception must not escape.
//
// stats.pairs counts the NEW physical (owned, halo) kernel pairs — the
// runner adds it to the owned-pass count to recover the single-node total.
template <typename Real>
void run_secondary_pass_impl(const EngineConfig& cfg,
                             const sim::Catalog& catalog,
                             const tree::KdTree<Real>& index,
                             const tree::KdTree<Real>* secondary,
                             const std::vector<std::int64_t>* primaries,
                             detail::TraversalPartials& parts,
                             ZetaResult& result, EngineStats& stats) {
  Timer wall;
  const int nthreads = thread_count(cfg);
  GLX_CHECK_MSG(nthreads == parts.nthreads,
                "run_secondary_pass: thread count changed since the owned "
                "pass (" << parts.nthreads << " -> " << nthreads << ")");

  if (secondary) {
    const int nbins = cfg.bins.count();
    const int nlm = math::nlm(cfg.lmax);
    const int n_mono = math::monomial_count(cfg.lmax);
    const double rmax = cfg.bins.rmax();
    const Real r2max = static_cast<Real>(rmax) * static_cast<Real>(rmax);
    const AlmLayout alm_layout(cfg.lmax);

    // Pass-1 snapshot lookup: primary id → its saved owned power sums.
    struct SavedRef {
      const int* bins = nullptr;
      const double* sums = nullptr;
      int count = -1;  // -1 = no snapshot
    };
    std::vector<SavedRef> snapshot(catalog.size());
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
    // Per thread, the first affected primary found without a snapshot.
    std::vector<std::int64_t> unsaved(static_cast<std::size_t>(nthreads), -1);

    traverse_leaves<Real>(
        cfg, catalog, index, primaries, {}, parts, stats,
        [&](Lane<Real>& lane) {
          const std::size_t stride = lane.acc.sums_stride();
          const std::size_t nalm = static_cast<std::size_t>(nbins) * nlm;
          return [&, stride, halo = tree::NeighborBlock<Real>{},
                  alm_a = std::vector<std::complex<double>>(nalm),
                  alm_b = std::vector<std::complex<double>>(nalm),
                  touched_a = std::vector<std::uint8_t>(nbins, 0),
                  touched_b = std::vector<std::uint8_t>(nbins, 0),
                  saved_sums = std::vector<double>(stride * n_mono, 0.0)](
                     std::size_t leaf,
                     const std::vector<std::size_t>& prims) mutable {
            // O(1) whole-secondary prune: interior leaves exit before any
            // gather or block formation.
            Real blo[3], bhi[3];
            index.leaf_box(leaf, blo, bhi);
            if (secondary->box_beyond_reach(blo, bhi, rmax)) return;
            Timer tq;
            halo.clear();
            secondary->gather_box_neighbors(blo, bhi, rmax, halo);
            lane.tally.t_query += tq.seconds();
            if (halo.size() == 0) return;

            for (const std::size_t t : prims) {
              const std::int64_t p = index.original_index(t);
              Rotation rot;
              bool rotate = false;
              // A primary at the observer was skipped (and counted) in
              // pass 1.
              if (!lane.make_rotation(p, rot, rotate)) continue;
              // The halo block is disjoint from the owned set: no
              // self-exclusion. No halo pair in a bin: the pass-1
              // contribution is final.
              if (lane.stage_and_push(halo, index.x(t), index.y(t),
                                      index.z(t), r2max, -1,
                                      rotate ? &rot : nullptr) == 0)
                continue;
              const SavedRef& ref = snapshot[static_cast<std::size_t>(p)];
              if (ref.count < 0) {
                if (unsaved[static_cast<std::size_t>(lane.tid)] < 0)
                  unsaved[static_cast<std::size_t>(lane.tid)] = p;
                continue;
              }

              Timer tz;
              // A from the snapshot, re-interleaved for compute_alm.
              std::fill(touched_a.begin(), touched_a.end(), 0);
              for (int i = 0; i < ref.count; ++i) {
                const int b = ref.bins[i];
                touched_a[b] = 1;
                const double* s =
                    ref.sums + static_cast<std::size_t>(i) * n_mono;
                for (int m = 0; m < n_mono; ++m)
                  saved_sums[static_cast<std::size_t>(m) * stride + b] = s[m];
              }
              compute_alm(lane.table, alm_layout, saved_sums.data(), stride,
                          ref.bins, ref.count, alm_a.data());
              compute_alm(lane.table, alm_layout, lane.acc, alm_b.data(),
                          touched_b.data());
              const double wp = catalog.w[static_cast<std::size_t>(p)];
              lane.add_xi(wp);
              lane.zeta.add_primary_cross(wp, alm_a.data(), touched_a.data(),
                                          alm_b.data(), touched_b.data());
              lane.subtract_self(wp);
              lane.tally.t_zeta += tz.seconds();
            }
          };
        });
    stats.primaries_skipped = 0;  // skips were counted by the owned pass

    for (const std::int64_t p : unsaved)
      GLX_CHECK_MSG(p < 0,
                    "run_secondary_pass: primary "
                        << p
                        << " has halo secondaries within R_max but no "
                           "pass-1 snapshot: a secondary lies inside the "
                           "SecondaryBound given to run_owned_pass");
  }

  merge_partials(cfg, parts, result);
  stats.wall_seconds = wall.seconds();
}

}  // namespace

namespace detail {

// Type-erased holder behind Engine::Staged: the Real template choice is
// made once at build_index time, so extend/run dispatch without re-deciding
// precision.
struct EngineStagedImpl {
  virtual ~EngineStagedImpl() = default;
  virtual void extend(const sim::Catalog& halo) = 0;
  virtual bool has_secondary() const = 0;
  virtual void run(const std::vector<std::int64_t>* primaries,
                   ZetaResult& result, EngineStats& stats) const = 0;
  virtual void owned_pass(const Engine::SecondaryBound& bound,
                          const std::vector<std::int64_t>* primaries,
                          EngineStats& stats,
                          const std::function<void()>& poll) = 0;
  virtual void secondary_pass(const std::vector<std::int64_t>* primaries,
                              TraversalPartials& parts, ZetaResult& result,
                              EngineStats& stats) const = 0;

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

template <typename Real>
struct StagedImplT final : detail::EngineStagedImpl {
  // `borrowed` non-null: reference the caller's catalog, which outlives
  // the handle (the fused Engine::run path, kept free of an O(N) copy).
  // Otherwise `adopted` — the caller's copy or moved-in buffer — becomes
  // the handle's own storage (the caller's buffer may move or be freed
  // before run_indexed; e.g. the runner's halo append reallocates it).
  StagedImplT(const EngineConfig& c, const sim::Catalog* borrowed,
              sim::Catalog&& adopted)
      : storage(std::move(adopted)), owned(borrowed ? borrowed : &storage) {
    cfg = c;
    owned_size = owned->size();
    primary = make_index<Real>(*owned, cfg);
  }

  void extend(const sim::Catalog& halo) override {
    secondary.emplace(make_index<Real>(halo, cfg));
  }

  bool has_secondary() const override { return secondary.has_value(); }

  const tree::KdTree<Real>* secondary_index() const {
    return secondary ? &*secondary : nullptr;
  }

  void run(const std::vector<std::int64_t>* primaries, ZetaResult& result,
           EngineStats& stats) const override {
    detail::TraversalPartials parts(thread_count(cfg));
    run_primary_pass<Real>(cfg, *owned, primary, secondary_index(),
                           primaries, /*bound=*/nullptr, /*poll=*/{}, parts,
                           stats);
    merge_partials(cfg, parts, result);
  }

  void owned_pass(const Engine::SecondaryBound& bound,
                  const std::vector<std::int64_t>* primaries,
                  EngineStats& stats,
                  const std::function<void()>& poll) override {
    partials = std::make_unique<detail::TraversalPartials>(thread_count(cfg));
    run_primary_pass<Real>(cfg, *owned, primary, /*secondary=*/nullptr,
                           primaries, &bound, poll, *partials, stats);
  }

  void secondary_pass(const std::vector<std::int64_t>* primaries,
                      detail::TraversalPartials& parts, ZetaResult& result,
                      EngineStats& stats) const override {
    run_secondary_pass_impl<Real>(cfg, *owned, primary, secondary_index(),
                                  primaries, parts, result, stats);
  }

  sim::Catalog storage;                 // empty when borrowed
  const sim::Catalog* owned = nullptr;  // primaries index into this
  tree::KdTree<Real> primary;
  std::optional<tree::KdTree<Real>> secondary;
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

Engine::Staged Engine::build_index(const sim::Catalog& owned) const {
  return build_index_impl(nullptr, sim::Catalog(owned));
}

Engine::Staged Engine::build_index(sim::Catalog&& owned) const {
  return build_index_impl(nullptr, std::move(owned));
}

Engine::Staged Engine::build_index_impl(const sim::Catalog* borrowed,
                                        sim::Catalog&& adopted) const {
  GLX_CHECK_MSG(cfg_.backend == EstimatorBackend::kTree,
                "build_index: the staged pipeline is tree-backend only "
                "(the FFT backend decomposes the mesh, not the points)");
  GLX_CHECK_MSG(!(borrowed ? *borrowed : adopted).empty(),
                "build_index: empty catalog");
  Timer tbuild;
  Staged staged;
  if (cfg_.tree.precision == TreePrecision::kMixed)
    staged.impl_ = std::make_shared<StagedImplT<float>>(cfg_, borrowed,
                                                        std::move(adopted));
  else
    staged.impl_ = std::make_shared<StagedImplT<double>>(cfg_, borrowed,
                                                         std::move(adopted));
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
  st = EngineStats{};
  st.phases.add("index build", impl_->build_seconds);
  impl_->run(primaries, result, st);
  return result;
}

void Engine::Staged::run_owned_pass(
    const SecondaryBound& bound, const std::vector<std::int64_t>* primaries,
    EngineStats* stats, const std::function<void()>& poll) {
  GLX_CHECK_MSG(impl_ != nullptr, "run_owned_pass on an empty Staged handle");
  GLX_CHECK_MSG(impl_->partials == nullptr,
                "run_owned_pass called twice without run_secondary_pass");
  validate_primaries(impl_->owned_size, primaries);
  impl_->restrict_primaries = primaries != nullptr;
  impl_->primaries_storage =
      primaries ? *primaries : std::vector<std::int64_t>{};

  EngineStats local_stats;
  EngineStats& st = stats ? *stats : local_stats;
  st = EngineStats{};
  st.phases.add("index build", impl_->build_seconds);
  impl_->build_reported = impl_->build_seconds;
  impl_->owned_pass(
      bound, impl_->restrict_primaries ? &impl_->primaries_storage : nullptr,
      st, poll);
}

ZetaResult Engine::Staged::run_secondary_pass(EngineStats* stats) {
  GLX_CHECK_MSG(impl_ != nullptr,
                "run_secondary_pass on an empty Staged handle");
  GLX_CHECK_MSG(impl_->partials != nullptr,
                "run_secondary_pass without a pending run_owned_pass");

  EngineStats local_stats;
  EngineStats& st = stats ? *stats : local_stats;
  st = EngineStats{};
  // Only the build time accrued since the owned pass reported (i.e. the
  // secondary index, in the canonical post → pass 1 → extend → pass 2
  // order).
  st.phases.add("index build", impl_->build_seconds - impl_->build_reported);
  impl_->build_reported = impl_->build_seconds;
  // The parked state is consumed even when the pass throws (a broken
  // SecondaryBound promise), so the handle accepts a fresh run_owned_pass.
  const std::unique_ptr<detail::TraversalPartials> parts =
      std::move(impl_->partials);
  ZetaResult result;
  impl_->secondary_pass(
      impl_->restrict_primaries ? &impl_->primaries_storage : nullptr, *parts,
      result, st);
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
      build_index_impl(&catalog, sim::Catalog{}).run_indexed(primaries, stats);
  if (stats) stats->wall_seconds = wall.seconds();
  return result;
}

}  // namespace galactos::core
