#include "core/engine.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "core/alm.hpp"
#include "core/twopcf.hpp"
#include "tree/kdtree.hpp"

namespace galactos::core {

namespace detail {

// Per-thread partial accumulators, merged in thread-id order. The one-pass
// run_indexed path merges them as soon as its traversal ends; the two-pass
// pipeline parks them in the Staged handle between the passes, so pass 2
// keeps adding into the exact per-thread slots pass 1 filled and the final
// merge runs in the same thread-id order either way. `boundary` flags the
// leaves the owned pass deferred to the secondary pass.
struct TraversalPartials {
  explicit TraversalPartials(int n)
      : nthreads(n), zeta(n), xi(n), pairs(n, 0) {}

  int nthreads;
  std::vector<std::unique_ptr<ZetaAccumulator>> zeta;
  std::vector<std::unique_ptr<TwoPcfAccumulator>> xi;
  std::vector<std::uint64_t> pairs;    // per thread, both passes
  std::vector<std::uint8_t> boundary;  // per leaf; empty outside two-pass
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
  return kc;
}

// What one thread's share of a traversal adds up to: leaves and primaries
// run (kept by the skeleton), candidates scanned, primaries skipped and
// per-phase seconds (kept by the per-leaf bodies), plus the kernel's pair
// count and epilogue counters (read off the accumulator at the end).
struct LaneTally {
  std::uint64_t leaves = 0, primaries = 0;
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
       const math::SphHarmTable& t, const SelfPairTable* self_table,
       ZetaAccumulator& z, TwoPcfAccumulator& x, int id)
      : cfg(c), catalog(cat), table(t), tid(id), acc(kernel_config(c)),
        zeta(z), xi(x) {
    if (self_table) sp.emplace(*self_table, c.bins.count());
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
    tally.t_kernel += tk.seconds();
    return staged.count;
  }

  // The 2PCF moments of the pairs just pushed.
  void add_xi(double wp) {
    for (int b = 0; b < cfg.bins.count(); ++b)
      if (acc.bin_touched(b))
        xi.add_primary_bin(wp, b, acc.sums() + b, acc.sums_stride());
  }

  // The degenerate j == k moments of the pairs just pushed (subtracted
  // after the lane's last leaf).
  void add_self(double wp) {
    if (sp) sp->add(wp, staged);
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

// The one traversal skeleton behind every engine pass: Algorithm 1
// amortized a leaf at a time (§3.3), one dynamically scheduled parallel
// loop over the primary index's leaves. The master thread — the
// caller's own OS thread, so single-threaded MPI progress rules hold —
// calls `poll`, when set, every kPollLeafStride leaves. Each thread builds
// a Lane over its slot of `parts` (creating the zeta / 2PCF partials on
// first use) and asks `make_body(lane)` once for its per-leaf body, called
// as body(leaf, prims) with the leaf's primaries: index positions in leaf
// order, restricted to `primaries` when given. Afterwards each lane's
// kernel pairs are added to parts.pairs and the tallies are rolled up into
// `stats`. `leaf_mask`, when given, restricts the loop to the leaves l
// with (*leaf_mask)[l] == run_if (the two-pass split).
template <typename Real, typename MakeBody>
void traverse_leaves(const EngineConfig& cfg, const sim::Catalog& catalog,
                     const tree::KdTree<Real>& index,
                     const std::vector<std::int64_t>* primaries,
                     const std::vector<std::uint8_t>* leaf_mask,
                     std::uint8_t run_if, const std::function<void()>& poll,
                     detail::TraversalPartials& parts, EngineStats& stats,
                     MakeBody&& make_body) {
  const int nthreads = parts.nthreads;
  const int nbins = cfg.bins.count();
  const math::SphHarmTable table(cfg.lmax);
  std::optional<SelfPairTable> self_table;
  if (cfg.subtract_self_pairs) self_table.emplace(table);

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
    Lane<Real> lane(cfg, catalog, table, self_table ? &*self_table : nullptr,
                    *zeta, *xi, tid);
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
      if (leaf_mask && (*leaf_mask)[leaf] != run_if) continue;
      prims.clear();
      const std::size_t end = static_cast<std::size_t>(index.leaf_end(leaf));
      for (auto t = static_cast<std::size_t>(index.leaf_begin(leaf)); t < end;
           ++t)
        if (is_primary.empty() ||
            is_primary[static_cast<std::size_t>(index.original_index(t))])
          prims.push_back(t);
      if (prims.empty()) continue;
      ++lane.tally.leaves;
      lane.tally.primaries += prims.size();
      body(leaf, prims);
    }

    {
      Timer tz;
      if (lane.sp) lane.sp->subtract_from(lane.zeta);
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
    sum.leaves += t.leaves;
    sum.primaries += t.primaries;
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
  stats.leaves = sum.leaves;
  stats.primaries = sum.primaries;
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
// same order after one pass or two, so a two-pass run that puts every leaf
// in one of its passes reproduces run_indexed bitwise.
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

// Every engine pass: the leaf's primaries against the primary index
// — plus the candidates of `secondary`, when given, whose catalog indices
// are offset by catalog.size() so they never collide with a primary's —
// with the finished power sums folded into zeta and the 2PCF. Each leaf
// gathers one candidate block (one pruned walk from the leaf's box), which
// the leaf's primaries drain while it is hot in cache. `leaf_mask` and
// `run_if` select the leaves as in traverse_leaves.
template <typename Real>
void run_primary_pass(const EngineConfig& cfg, const sim::Catalog& catalog,
                      const tree::KdTree<Real>& index,
                      const tree::KdTree<Real>* secondary,
                      const std::vector<std::int64_t>* primaries,
                      const std::vector<std::uint8_t>* leaf_mask,
                      std::uint8_t run_if, const std::function<void()>& poll,
                      detail::TraversalPartials& parts, EngineStats& stats) {
  Timer wall;
  const double rmax = cfg.bins.rmax();
  const Real r2max = static_cast<Real>(rmax) * static_cast<Real>(rmax);
  const std::int64_t halo_offset = static_cast<std::int64_t>(catalog.size());

  traverse_leaves<Real>(
      cfg, catalog, index, primaries, leaf_mask, run_if, poll, parts, stats,
      [&](Lane<Real>& lane) {
        return [&, block = tree::NeighborBlock<Real>{}](
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
            const MultipoleAccumulator& acc = lane.acc;
            const double wp = catalog.w[static_cast<std::size_t>(p)];
            lane.add_xi(wp);
            const std::vector<int>& bins = acc.touched_bins();
            lane.zeta.add_primary_sums(wp, lane.table, acc.sums(),
                                       acc.sums_stride(), bins.data(),
                                       static_cast<int>(bins.size()));
            lane.add_self(wp);
            lane.tally.t_zeta += tz.seconds();
          }
        };
      });
  stats.wall_seconds = wall.seconds();
}

// The two-pass split: 1 for every leaf of `index` the owned pass defers to
// the secondary pass, 0 for the interior leaves it runs. A leaf is interior
// when its box lies more than the padded R_max inside `bound` on every
// face, so no secondary outside the bound can reach its primaries. The
// Real-precision accept filter can admit pairs a few ulps beyond R_max, so
// the pad adds a relative 1e-5 plus a few Real ulps of the finite faces'
// magnitude (an infinite face is never reached). An empty box (lo > hi)
// has no interior leaf.
template <typename Real>
std::vector<std::uint8_t> boundary_leaves(const tree::KdTree<Real>& index,
                                          const Engine::SecondaryBound& bound,
                                          double rmax) {
  const double lo[3] = {bound.lo.x, bound.lo.y, bound.lo.z};
  const double hi[3] = {bound.hi.x, bound.hi.y, bound.hi.z};
  double max_abs = 0.0;
  for (int d = 0; d < 3; ++d)
    for (const double f : {lo[d], hi[d]})
      if (std::isfinite(f)) max_abs = std::max(max_abs, std::abs(f));
  const double eps = static_cast<double>(std::numeric_limits<Real>::epsilon());
  const double pad = rmax * (1.0 + 1e-5) + 8.0 * eps * (max_abs + rmax);

  std::vector<std::uint8_t> boundary(index.leaf_count());
  for (std::size_t l = 0; l < boundary.size(); ++l) {
    Real blo[3], bhi[3];
    index.leaf_box(l, blo, bhi);
    bool interior = true;
    for (int d = 0; d < 3; ++d)
      interior = interior && blo[d] - lo[d] > pad && hi[d] - bhi[d] > pad;
    boundary[l] = interior ? 0 : 1;
  }
  return boundary;
}

// The SecondaryBound promise as the secondary pass checks it: the catalog
// index of the first secondary strictly inside `bound`, or -1. The test
// runs on the index's Real coordinates — the ones every gather sees —
// against the bound rounded to Real; rounding is monotonic, so a secondary
// on or beyond a face stays there.
template <typename Real>
std::int64_t secondary_inside(const tree::KdTree<Real>& secondary,
                              const Engine::SecondaryBound& bound) {
  const Real lo[3] = {static_cast<Real>(bound.lo.x),
                      static_cast<Real>(bound.lo.y),
                      static_cast<Real>(bound.lo.z)};
  const Real hi[3] = {static_cast<Real>(bound.hi.x),
                      static_cast<Real>(bound.hi.y),
                      static_cast<Real>(bound.hi.z)};
  for (std::size_t i = 0; i < secondary.size(); ++i) {
    const Real x = secondary.x(i), y = secondary.y(i), z = secondary.z(i);
    if (lo[0] < x && x < hi[0] && lo[1] < y && y < hi[1] && lo[2] < z &&
        z < hi[2])
      return secondary.original_index(i);
  }
  return -1;
}

}  // namespace

namespace detail {

// Type-erased holder behind Engine::Staged: the Real template choice is
// made once at build_index time, so the passes dispatch without re-deciding
// precision.
struct EngineStagedImpl {
  virtual ~EngineStagedImpl() = default;
  virtual void run(const std::vector<std::int64_t>* primaries,
                   ZetaResult& result, EngineStats& stats) const = 0;
  virtual void owned_pass(EngineStats& stats,
                          const std::function<void()>& poll) = 0;
  virtual void secondary_pass(sim::Catalog& halo,
                              TraversalPartials& parts, ZetaResult& result,
                              EngineStats& stats) const = 0;

  EngineConfig cfg;
  std::size_t owned_size = 0;
  double build_seconds = 0.0;  // primary index build time

  // Two-pass state: the bound of run_owned_pass (which splits the leaves
  // and which pass 2 checks the secondaries against) and the partials it
  // parks (consumed by run_secondary_pass).
  std::unique_ptr<TraversalPartials> partials;
  Engine::SecondaryBound bound{};
};

}  // namespace detail

namespace {

template <typename Real>
struct StagedImplT final : detail::EngineStagedImpl {
  // `borrowed` non-null: reference the caller's catalog, which outlives
  // the handle (the Engine::run path, kept free of an O(N) copy).
  // Otherwise `adopted` — the caller's copy or moved-in buffer — becomes
  // the handle's own storage (the caller's buffer may move or be freed
  // before the traversal runs).
  StagedImplT(const EngineConfig& c, const sim::Catalog* borrowed,
              sim::Catalog&& adopted)
      : storage(std::move(adopted)), owned(borrowed ? borrowed : &storage) {
    cfg = c;
    owned_size = owned->size();
    primary = make_index<Real>(*owned, cfg);
  }

  void run(const std::vector<std::int64_t>* primaries, ZetaResult& result,
           EngineStats& stats) const override {
    detail::TraversalPartials parts(thread_count(cfg));
    run_primary_pass<Real>(cfg, *owned, primary, /*secondary=*/nullptr,
                           primaries, /*leaf_mask=*/nullptr, 0, /*poll=*/{},
                           parts, stats);
    merge_partials(cfg, parts, result);
  }

  void owned_pass(EngineStats& stats,
                  const std::function<void()>& poll) override {
    partials = std::make_unique<detail::TraversalPartials>(thread_count(cfg));
    partials->boundary = boundary_leaves(primary, bound, cfg.bins.rmax());
    run_primary_pass<Real>(cfg, *owned, primary, /*secondary=*/nullptr,
                           /*primaries=*/nullptr, &partials->boundary,
                           /*run_if=*/0, poll, *partials, stats);
  }

  // Indexes the halo, then runs the deferred boundary leaves, each once
  // with owned and secondary candidates in one block, into the parked
  // partials; then the merge. A secondary inside the bound could have
  // reached an interior leaf that pass 1 ran without it, so it is an
  // error, raised before any leaf runs.
  void secondary_pass(sim::Catalog& halo, detail::TraversalPartials& parts,
                      ZetaResult& result, EngineStats& stats) const override {
    Timer tbuild;
    std::optional<tree::KdTree<Real>> secondary;
    if (!halo.empty()) secondary.emplace(make_index<Real>(halo, cfg));
    halo = sim::Catalog{};
    stats.phases.add("index build", tbuild.seconds());
    if (secondary) {
      const std::int64_t inside = secondary_inside(*secondary, bound);
      GLX_CHECK_MSG(inside < 0,
                    "run_secondary_pass: secondary "
                        << inside
                        << " lies inside the SecondaryBound given to "
                           "run_owned_pass");
    }
    run_primary_pass<Real>(cfg, *owned, primary,
                           secondary ? &*secondary : nullptr,
                           /*primaries=*/nullptr, &parts.boundary,
                           /*run_if=*/1, /*poll=*/{}, parts, stats);
    merge_partials(cfg, parts, result);
  }

  sim::Catalog storage;                 // empty when borrowed
  const sim::Catalog* owned = nullptr;  // primaries index into this
  tree::KdTree<Real> primary;
};

}  // namespace

Engine::Engine(EngineConfig cfg) : cfg_(std::move(cfg)) {
  GLX_CHECK(cfg_.lmax >= 0 && cfg_.lmax <= 16);
  GLX_CHECK(cfg_.bins.count() >= 1);
  GLX_CHECK(cfg_.threads >= 0);
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

void Engine::Staged::run_owned_pass(const SecondaryBound& bound,
                                    EngineStats* stats,
                                    const std::function<void()>& poll) {
  GLX_CHECK_MSG(impl_ != nullptr, "run_owned_pass on an empty Staged handle");
  GLX_CHECK_MSG(impl_->partials == nullptr,
                "run_owned_pass called twice without run_secondary_pass");

  EngineStats local_stats;
  EngineStats& st = stats ? *stats : local_stats;
  st = EngineStats{};
  st.phases.add("index build", impl_->build_seconds);
  impl_->bound = bound;
  impl_->owned_pass(st, poll);
}

ZetaResult Engine::Staged::run_secondary_pass(sim::Catalog halo,
                                              EngineStats* stats) {
  GLX_CHECK_MSG(impl_ != nullptr,
                "run_secondary_pass on an empty Staged handle");
  GLX_CHECK_MSG(impl_->partials != nullptr,
                "run_secondary_pass without a pending run_owned_pass");

  EngineStats local_stats;
  EngineStats& st = stats ? *stats : local_stats;
  st = EngineStats{};
  // The parked state is consumed even when the pass throws (a broken
  // SecondaryBound promise), so the handle accepts a fresh run_owned_pass.
  const std::unique_ptr<detail::TraversalPartials> parts =
      std::move(impl_->partials);
  ZetaResult result;
  impl_->secondary_pass(halo, *parts, result, st);
  return result;
}

ZetaResult Engine::run(const sim::Catalog& catalog,
                       const std::vector<std::int64_t>* primaries,
                       EngineStats* stats) const {
  GLX_CHECK_MSG(!catalog.empty(), "empty catalog");
  Timer wall;
  // The catalog outlives this call, so the staged handle references it
  // instead of copying (it never escapes this scope).
  const ZetaResult result =
      build_index_impl(&catalog, sim::Catalog{}).run_indexed(primaries, stats);
  if (stats) stats->wall_seconds = wall.seconds();
  return result;
}

}  // namespace galactos::core
