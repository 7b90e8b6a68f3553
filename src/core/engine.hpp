// The Galactos engine: Algorithm 1 of the paper.
//
//   for each primary galaxy:
//     gather all secondaries within R_max (spatial index, possibly float)
//     rotate separations so the LOS to the primary is +z (survey mode)
//     bin pairs into radial shells, bucket them, run the multipole kernel
//     assemble a_lm per shell; accumulate zeta^m_ll'(r1,r2) and xi_l(r)
//
// Two traversal drivers implement the outer loop (§3.3):
//
// * kPerPrimary — one index query per primary (the literal Algorithm 1).
// * kLeafBlocked (default) — primaries are processed a leaf at a time: one
//   pruned node-vs-node traversal per source leaf emits a shared candidate
//   block that ~leaf_size primaries drain while it is hot in cache;
//   per-primary separations are SIMD subtractions from the block, and
//   accepted pairs reach the kernel through MultipoleAccumulator::push.
//   Per-primary pair sequences are bitwise identical to kPerPrimary; only
//   the cross-primary accumulation order differs (FP reassociation).
//   Runs with fewer than 2x nthreads leaves (tiny catalogs, coarse grids)
//   fall back to the per-primary driver so threads don't sit idle.
//
// The outer API comes in two shapes: Engine::run builds the index and
// traverses in one call; the staged pipeline (build_index →
// extend_with_secondaries → run_indexed) splits those steps so the
// distributed runner can build the owned-point index while the halo
// exchange is still in flight, then index halo points into a SECONDARY
// structure whose candidates union with the primary index's per leaf (or
// per primary). With no secondaries the staged path is bitwise identical
// to Engine::run.
//
// Work is distributed over OpenMP threads with dynamic scheduling
// (paper §3.3: "a significant performance boost over a static schedule" —
// both are available here for the ablation bench), over primaries in
// kPerPrimary mode and over leaves in kLeafBlocked mode. Each thread owns
// private accumulators merged once at the end.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/bins.hpp"
#include "core/gridder.hpp"
#include "core/kernel.hpp"
#include "core/los.hpp"
#include "core/zeta.hpp"
#include "sim/catalog.hpp"
#include "util/timer.hpp"

namespace galactos::tree {
struct LetMessage;  // tree/let.hpp — pruned-LET halo payload
}  // namespace galactos::tree

namespace galactos::core {

namespace detail {
struct EngineStagedImpl;  // type-erased index holder, defined in engine.cpp
}

enum class TreePrecision {
  kDouble,  // everything in double
  kMixed,   // spatial index + distances in float (paper's fast mode)
};

enum class NeighborIndex { kKdTree, kCellGrid };
enum class OmpSchedule { kDynamic, kStatic };
enum class TraversalMode { kPerPrimary, kLeafBlocked };

// Which estimator computes the multipole coefficients: the tree backend
// pair-counts with a spatial index (exact, O(N * pairs-per-primary)); the
// FFT backend grids the catalog and convolves with binned Y_lm kernels in
// Fourier space (Slepian & Eisenstein 1506.04746) — O(Ngrid log Ngrid),
// periodic boxes with a plane-parallel LOS only, accuracy set by the mesh.
enum class EstimatorBackend { kTree, kFFT };

const char* backend_name(EstimatorBackend b);
EstimatorBackend backend_from_name(const std::string& name);  // "tree"|"fft"

// Tree-backend knobs (the pair-counting engine).
struct TreeConfig {
  TreePrecision precision = TreePrecision::kDouble;
  NeighborIndex index = NeighborIndex::kKdTree;
  TraversalMode traversal = TraversalMode::kLeafBlocked;
  int leaf_size = 32;

  // Cache-aware traversal knobs (both default on; exposed for ablation and
  // the equivalence tests). morton_order lays the index storage out in
  // Z-order of the leaf centers — a pure permutation, so per-primary
  // results are bitwise independent of it. interaction_lists precomputes
  // each primary-index leaf's pruned neighbor list once per build, so the
  // leaf-blocked gather replays it instead of re-walking the tree
  // (secondary/halo indexes never build lists: they are only queried per
  // point or per box).
  bool morton_order = true;
  bool interaction_lists = true;

  KernelScheme scheme = KernelScheme::kRunningProduct;
  int ilp = 4;
  int bucket_capacity = 128;

  OmpSchedule schedule = OmpSchedule::kDynamic;
};

// FFT-backend knobs. The catalog must live in the periodic box
// [0, box_side)^3, box_side > 0 (the FFT path has no ghost replication —
// periodicity is native to the mesh). Accuracy improves with grid_n and
// assignment order; interlacing (a second half-cell-shifted mesh averaged
// in Fourier space) cancels the leading aliased images, and compensation
// divides the density spectrum by the assignment window (squared: once for
// assignment, once for the field interpolation back at the primaries).
struct FftConfig {
  std::size_t grid_n = 64;  // power of two
  MassAssignment assignment = MassAssignment::kCic;
  bool interlace = false;
  bool compensate = true;
  // Volume-fraction bin membership for kernel cells straddling a radial bin
  // edge (supersampled), instead of all-or-nothing assignment by the cell
  // center radius. Cuts the radial quantization error — the dominant error
  // term at practical grids — at identical runtime. Disable to make the
  // mesh reproduce the tree's sharp binning on exactly-gridded data (the
  // cross-backend equivalence tests do).
  bool edge_antialias = true;
  double box_side = 0.0;  // REQUIRED for kFFT
};

struct EngineConfig {
  RadialBins bins{1.0, 200.0, 10};
  int lmax = 10;
  LineOfSight los = LineOfSight::kPlaneParallelZ;
  sim::Vec3 observer{0.0, 0.0, 0.0};  // used when los == kRadial

  EstimatorBackend backend = EstimatorBackend::kTree;
  TreeConfig tree;  // read when backend == kTree
  FftConfig fft;    // read when backend == kFFT

  int threads = 0;  // 0 = OpenMP default

  // Subtract degenerate j == k contributions from diagonal bin pairs
  // (slow path: per-secondary Y_lm evaluation; used for validation and
  // small science runs). Tree backend only.
  bool subtract_self_pairs = false;
};

struct EngineStats {
  PhaseTimer phases;  // tree build / neighbor query / multipole kernel /
                      // alm+zeta / merge — phase names in engine.cpp
  double wall_seconds = 0.0;
  std::uint64_t pairs = 0;      // kernel pairs (inside R_max and bins)
  // Candidate pairs examined per primary: index-query results in
  // kPerPrimary mode, shared-block entries scanned in kLeafBlocked mode
  // (the block is gathered once per leaf but scanned by every primary).
  std::uint64_t candidates = 0;
  std::uint64_t primaries_skipped = 0;  // e.g. primary at the observer
  std::vector<std::uint64_t> pairs_per_thread;
  // Kernel FLOPs using the paper's accounting (2 FLOPs per monomial per
  // pair; 572 FLOP/pair at lmax = 10).
  double kernel_flop_count = 0.0;
  // Per-primary epilogue work (MultipoleAccumulator::Counters, summed over
  // threads and, in the secondary pass, over both accumulators): touched
  // (primary, bin) epilogues — each one fused lane reduction and one bin
  // of a_lm, whatever its pair count — and bucket flushes with a full
  // bucket vs a final partial one.
  std::uint64_t bin_epilogues = 0;
  std::uint64_t full_flushes = 0;
  std::uint64_t partial_flushes = 0;
};

class Engine {
 public:
  explicit Engine(EngineConfig cfg);

  const EngineConfig& config() const { return cfg_; }

  // Promise that every secondary later indexed via extend_with_secondaries
  // lies OUTSIDE this axis-aligned box (the distributed runner passes its
  // k-d leaf domain: halo copies come from other ranks' domains, which
  // tile space disjointly). run_owned_pass then snapshots the owned power
  // sums of primaries within R_max of the box boundary, so the secondary
  // pass rebuilds their owned a_lm from the snapshot instead of re-running
  // the kernel. Purely a performance hint: pass 2 falls back to an exact
  // owned recompute for any affected primary without a snapshot, so a
  // violated promise costs time, never correctness.
  struct SecondaryBound {
    sim::Vec3 lo, hi;
  };

  // Staged pipeline handle (see build_index): the primary spatial index is
  // built eagerly; halo secondaries can be indexed later into a secondary
  // structure whose candidates union with the primary index's during the
  // traversal. Copyable (shared state); default-constructed handles are
  // empty until assigned.
  class Staged {
   public:
    Staged() = default;

    bool valid() const { return impl_ != nullptr; }

    // Indexes `halo` points as secondaries-only (they never act as
    // primaries and primary indices never refer to them). Call at most
    // once; an empty halo is a no-op.
    void extend_with_secondaries(const sim::Catalog& halo);

    // LET variant (dist HaloMode::kLet): unpacks received per-peer LET
    // messages straight into the secondary index, skipping whole cells
    // whose AABB lies beyond R_max of `bound` (this rank's domain) — the
    // receiver-side pruning tier. Same at-most-once contract as
    // extend_with_secondaries; messages with no in-reach cells are a
    // no-op.
    void extend_with_let(const std::vector<tree::LetMessage>& msgs,
                         const SecondaryBound& bound);

    // Runs the traversal over the prebuilt indexes. `primaries` indexes
    // into the owned catalog passed to build_index (same contract as
    // Engine::run: no duplicates, all owned points act as primaries when
    // omitted). With no secondaries this is bitwise identical to
    // Engine::run on the owned catalog. stats->wall_seconds covers the
    // traversal only; the "index build" phase reports the staged build
    // time (primary + secondary).
    ZetaResult run_indexed(const std::vector<std::int64_t>* primaries = nullptr,
                           EngineStats* stats = nullptr) const;

    // --- Two-pass pipeline (the distributed runner's halo-hiding mode) ---
    //
    // run_owned_pass traverses the PRIMARY index only — identical
    // arithmetic to run_indexed with no secondaries — but parks the
    // per-thread accumulators in this handle instead of merging them, so
    // the caller can run it while its halo exchange is still in flight.
    // `poll`, when given, is invoked from the master thread between leaf
    // batches (per-primary fallback: every few hundred primaries) so the
    // caller can progress outstanding communication requests.
    //
    // run_secondary_pass completes the result: for every primary-index
    // leaf whose box is within R_max of the secondary index it gathers the
    // halo candidates, recomputes the owned-only a_lm A (bitwise the pass-1
    // value — same gather, same kernel order), forms the halo-only a_lm B,
    // and adds the exact completion term wp·(A·B* + B·A* + B·B*) plus the
    // additive 2PCF/pair-count/self-pair halo contributions into the parked
    // accumulators; then merges and returns. Leaves beyond reach of every
    // secondary — all of them when no secondaries were indexed — are
    // untouched, so with an empty halo the result is BITWISE identical to
    // run_indexed. The parked state is consumed; the pair may be run again.
    //
    // The split is algebraically exact because a_lm is additive over
    // disjoint secondary sets (Slepian & Eisenstein 1709.10150): with
    // a = A + B, the zeta product a(b1)·a*(b2) is A·A* (pass 1) plus the
    // completion term (pass 2).
    void run_owned_pass(const std::vector<std::int64_t>* primaries = nullptr,
                        EngineStats* stats = nullptr,
                        const std::function<void()>& poll = {},
                        const SecondaryBound* bound = nullptr);
    ZetaResult run_secondary_pass(EngineStats* stats = nullptr);

    // True between run_owned_pass and run_secondary_pass.
    bool owned_pass_pending() const;

   private:
    friend class Engine;
    std::shared_ptr<detail::EngineStagedImpl> impl_;
  };

  // Stage 1 of the pipelined API: build the spatial index over the `owned`
  // points now, so e.g. the distributed runner can do it while its halo
  // exchange is still in flight, then extend_with_secondaries(halo) and
  // run_indexed (paper §3.2–3.3 overlap). The handle keeps its own copy of
  // `owned`, so the caller's buffer is free to move afterwards.
  // Tree backend only (the FFT backend has no spatial index; its
  // distributed path decomposes the mesh into slabs instead — see
  // dist/fft_slab.hpp). Throws for backend == kFFT.
  Staged build_index(const sim::Catalog& owned) const;

  // Move overload: adopts `owned` as the handle's storage instead of
  // copying it — the sequential distributed path snapshots the owned prefix
  // once and hands it over, instead of copy + internal re-copy.
  Staged build_index(sim::Catalog&& owned) const;

  // Computes the anisotropic 3PCF of `catalog`. If `primaries` is given,
  // only those indices act as primaries (the distributed runner passes the
  // rank-owned galaxies; halo copies are secondaries only — paper §3.3).
  // All points always act as secondaries. The list must not contain
  // duplicates (the leaf-blocked driver tests membership per point);
  // duplicates are rejected like out-of-range indices.
  // Dispatches on cfg.backend: the tree path is unchanged by backend
  // selection (bit-for-bit), the FFT path delegates to FftEstimator.
  ZetaResult run(const sim::Catalog& catalog,
                 const std::vector<std::int64_t>* primaries = nullptr,
                 EngineStats* stats = nullptr) const;

  // Zero-valued result with this configuration's shape — what a run over an
  // empty primary list would produce. The distributed runner uses it for
  // ranks that own no primaries, so they still participate in the
  // reduction.
  ZetaResult empty_result() const;

 private:
  // copy_owned = false references the caller's catalog instead of copying
  // (the fused run() path, where the catalog outlives the handle).
  Staged build_index_impl(const sim::Catalog& owned, bool copy_owned) const;

  EngineConfig cfg_;
};

// Backend-neutral estimator interface: one `run` contract (same primaries
// semantics and ZetaResult shape as Engine::run) that every backend
// implements. Engine::run is the convenience front door; code that wants to
// hold a backend by value (the distributed runner, benches sweeping
// backends) goes through make_estimator.
class Estimator {
 public:
  explicit Estimator(EngineConfig cfg) : cfg_(std::move(cfg)) {}
  virtual ~Estimator() = default;

  const EngineConfig& config() const { return cfg_; }

  virtual ZetaResult run(const sim::Catalog& catalog,
                         const std::vector<std::int64_t>* primaries = nullptr,
                         EngineStats* stats = nullptr) const = 0;

  // Zero-valued result with this configuration's shape (see
  // Engine::empty_result).
  ZetaResult empty_result() const;

 protected:
  EngineConfig cfg_;
};

// Constructs the backend named by cfg.backend (validates the per-backend
// config eagerly; the FFT backend's gates are listed in fft_estimator.hpp).
std::unique_ptr<Estimator> make_estimator(const EngineConfig& cfg);

}  // namespace galactos::core
