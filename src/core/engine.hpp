// The Galactos engine: Algorithm 1 of the paper.
//
//   for each primary galaxy:
//     gather all secondaries within R_max (k-d tree, possibly float)
//     rotate separations so the LOS to the primary is +z (survey mode)
//     bin pairs into radial shells, bucket them, run the multipole kernel
//     assemble a_lm per shell; accumulate zeta^m_ll'(r1,r2) and xi_l(r)
//
// One neighbor index — the k-d tree of §3.1/§3.3 — and one traversal
// skeleton implement the outer loop (§3.3): primaries are processed a leaf
// at a time, in parallel over the primary tree's leaves, and every pass
// plugs its per-leaf body into it. One pruned node-vs-node walk per leaf,
// run by the thread that takes the leaf, emits a shared candidate block
// that the leaf's ~leaf_size primaries drain while it is hot in cache. Per
// primary, one per-ISA SIMD pass over the block (core::stage_pairs) forms
// the separations, filters them on R_max, bins them, rotates them into the
// LOS frame and normalizes them; the accepted pairs reach the kernel
// through MultipoleAccumulator::push_staged.
//
// The outer API comes in two shapes: Engine::run builds the index and
// traverses in one call; the staged pipeline (build_index → run_indexed)
// splits those steps. The distributed runner builds the owned-point index
// while its halo exchange is still in flight and splits the traversal by
// leaf (run_owned_pass → run_secondary_pass): the interior leaves, which no
// halo point can reach, run before the halo arrives; then the secondary
// pass indexes the halo points into a SECONDARY structure and runs the
// boundary leaves once against owned and halo candidates together. With no
// halo and every leaf in one pass the staged paths are bitwise identical to
// Engine::run.
//
// Work is distributed over OpenMP threads with a dynamic schedule over
// leaves (paper §3.3: "a significant performance boost over a static
// schedule"). Each thread owns private accumulators merged once at the
// end, in thread-id order.
//
// The engine is the only estimator behind this config. The FFT mesh
// estimator (core/fft_estimator.hpp) is a free function with its own
// FftConfig: an independent oracle for the engine, not a mode of it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/bins.hpp"
#include "core/kernel.hpp"
#include "core/los.hpp"
#include "core/zeta.hpp"
#include "sim/catalog.hpp"
#include "util/timer.hpp"

namespace galactos::core {

namespace detail {
struct EngineStagedImpl;  // type-erased index holder, defined in engine.cpp
}

enum class TreePrecision {
  kDouble,  // everything in double
  kMixed,   // spatial index + distances in float (paper's fast mode)
};

// The engine's two tree settings. The neighbor index is always a
// k-d tree (`leaf_size` points per leaf) in Morton layout, built on
// EngineConfig::threads; the multipole kernel's bucket size and stream
// count are the paper's §3.3 constants (kBucketCapacity, kKernelIlp in
// core/kernel.hpp).
struct TreeConfig {
  TreePrecision precision = TreePrecision::kDouble;
  int leaf_size = 32;
};

struct EngineConfig {
  RadialBins bins{1.0, 200.0, 10};
  int lmax = 10;
  LineOfSight los = LineOfSight::kPlaneParallelZ;
  sim::Vec3 observer{0.0, 0.0, 0.0};  // used when los == kRadial

  TreeConfig tree;

  int threads = 0;  // 0 = OpenMP default; negative is rejected

  // Subtract degenerate j == k contributions from diagonal bin pairs:
  // 2 lmax + 1 Legendre moments in u_z per pair, contracted once per bin
  // and thread (core/alm.hpp).
  bool subtract_self_pairs = false;
};

// Filled by every run entry point (Engine::run, Staged::run_indexed /
// run_owned_pass / run_secondary_pass, and the FFT oracle fft_3pcf),
// which first resets the object: a reused stats object reports its last
// run only.
struct EngineStats {
  // Phase names in engine.cpp: "index build", "neighbor query" (the leaf
  // gathers and the whole pair stage — separations, filter, binning, LOS
  // rotation and normalization), "multipole kernel" (the bucket appends
  // and kernel flushes), "alm+zeta" and "imbalance+merge".
  PhaseTimer phases;
  double wall_seconds = 0.0;
  std::uint64_t pairs = 0;      // kernel pairs (inside R_max and bins)
  // Candidate pairs examined: the shared-block entries each primary scans
  // (the block is gathered once per leaf but scanned by every primary;
  // owned and secondary candidates alike). The two passes of the two-pass
  // pipeline run disjoint leaf sets, so their counts add up to the one-pass
  // run's.
  std::uint64_t candidates = 0;
  // Leaves the pass ran (those holding at least one of its primaries) and
  // the primaries in them, skipped ones included.
  std::uint64_t leaves = 0;
  std::uint64_t primaries = 0;
  std::uint64_t primaries_skipped = 0;  // e.g. primary at the observer
  std::vector<std::uint64_t> pairs_per_thread;
  // Kernel FLOPs using the paper's accounting (2 FLOPs per monomial per
  // pair; 572 FLOP/pair at lmax = 10).
  double kernel_flop_count = 0.0;
  // Per-primary epilogue work (MultipoleAccumulator::Counters, summed over
  // threads): touched (primary, bin) epilogues — each one fused lane
  // reduction and one bin of a_lm, whatever its pair count — and bucket
  // flushes with a full bucket vs a final partial one.
  std::uint64_t bin_epilogues = 0;
  std::uint64_t full_flushes = 0;
  std::uint64_t partial_flushes = 0;
};

class Engine {
 public:
  explicit Engine(EngineConfig cfg);

  const EngineConfig& config() const { return cfg_; }

  // The contract of the two-pass pipeline: no secondary later passed to
  // run_secondary_pass lies strictly inside this axis-aligned box
  // (faces may be infinite). The distributed runner passes its k-d leaf
  // domain with the faces on the global bounding box opened to ±infinity:
  // halo copies come from other ranks' domains, which tile space
  // disjointly. A primary-index leaf whose box lies more than R_max (plus
  // a rounding pad) inside the box is INTERIOR — no secondary can reach its
  // primaries — and every other leaf is a BOUNDARY leaf. An empty box
  // (lo > hi) is the weakest valid promise: every leaf is a boundary leaf.
  struct SecondaryBound {
    sim::Vec3 lo, hi;
  };

  // Staged pipeline handle (see build_index): the primary spatial index is
  // built eagerly; halo secondaries are indexed by run_secondary_pass.
  // Copyable (shared state); default-constructed handles are empty until
  // assigned.
  class Staged {
   public:
    Staged() = default;

    bool valid() const { return impl_ != nullptr; }

    // Runs the whole traversal over the prebuilt index, with no
    // secondaries. `primaries` indexes into the owned catalog passed to
    // build_index (same contract as Engine::run: no duplicates, all owned
    // points act as primaries when omitted). Bitwise identical to
    // Engine::run on the owned catalog. stats->wall_seconds covers the
    // traversal only; the "index build" phase reports the staged build
    // time.
    ZetaResult run_indexed(const std::vector<std::int64_t>* primaries = nullptr,
                           EngineStats* stats = nullptr) const;

    // --- Two-pass pipeline (the distributed runner's halo-hiding mode) ---
    //
    // run_owned_pass runs the INTERIOR leaves of `bound` (the
    // SecondaryBound promise above) against the primary index alone — the
    // same per-leaf body as run_indexed, and the whole pair set of those
    // primaries, since no secondary can reach them — and parks the
    // per-thread accumulators in this handle instead of merging them, so
    // the caller can run it while its halo exchange is still in flight.
    // Every owned point acts as a primary. `poll`, when given, is invoked
    // from the master thread between leaf batches so the caller can
    // progress outstanding communication requests.
    //
    // run_secondary_pass indexes `halo` as secondaries-only (they never act
    // as primaries; an empty halo indexes nothing) and frees it — the index
    // holds its own copy, so a caller done with the halo moves it in — then
    // runs every
    // BOUNDARY leaf once with one candidate block of owned plus secondary
    // points per leaf, into the parked accumulators; then merges and
    // returns. Every primary is therefore computed exactly once, so the
    // result equals the single-node run over owned + halo (owned points as
    // primaries) up to summation order: interior primaries are added before
    // boundary ones. A bound with no interior leaf (the empty box) runs
    // every leaf in pass 2 and one with no boundary leaf every leaf in pass
    // 1, both in run_indexed's order: with an empty halo the result is then
    // BITWISE identical to run_indexed at one thread. A secondary strictly
    // inside the bound breaks the promise and is a std::logic_error naming
    // it, raised before any leaf runs. The parked state is consumed either
    // way; the pair may be run again.
    //
    // The pass stats add up: pairs, candidates, leaves and primaries of the
    // two passes sum to those of the one-pass run over the same points.
    // Pass 2's "index build" phase is the halo index build; its
    // wall_seconds covers the traversal only.
    void run_owned_pass(const SecondaryBound& bound,
                        EngineStats* stats = nullptr,
                        const std::function<void()>& poll = {});
    ZetaResult run_secondary_pass(sim::Catalog halo,
                                  EngineStats* stats = nullptr);

   private:
    friend class Engine;
    std::shared_ptr<detail::EngineStagedImpl> impl_;
  };

  // Stage 1 of the pipelined API: build the spatial index over the `owned`
  // points now, so e.g. the distributed runner can do it while its halo
  // exchange is still in flight, then run_owned_pass and, once the halo is
  // in, run_secondary_pass (paper §3.2–3.3 overlap). The handle keeps its
  // own copy of `owned`, so the caller's buffer is free to move afterwards.
  Staged build_index(const sim::Catalog& owned) const;

  // Move overload: adopts `owned` as the handle's storage instead of
  // copying it — the distributed runner and perfsuite hand over a catalog
  // they no longer need, instead of copy + internal re-copy.
  Staged build_index(sim::Catalog&& owned) const;

  // Computes the anisotropic 3PCF of `catalog`. If `primaries` is given,
  // only those indices act as primaries (periodic_box_3pcf passes the
  // box's own galaxies; its periodic ghosts are secondaries only). All
  // points always act as secondaries. The list must not contain duplicates
  // (the traversal tests membership per point); duplicates are rejected
  // like out-of-range indices.
  ZetaResult run(const sim::Catalog& catalog,
                 const std::vector<std::int64_t>* primaries = nullptr,
                 EngineStats* stats = nullptr) const;

  // Zero-valued result with this configuration's shape — what a run over an
  // empty primary list would produce. The distributed runner uses it for
  // ranks that own no primaries, so they still participate in the
  // reduction.
  ZetaResult empty_result() const;

 private:
  // The one build body. `borrowed` non-null references the caller's
  // catalog (the run() path, where it outlives the handle);
  // otherwise the handle adopts `adopted` — a copy, or the caller's
  // moved-in buffer.
  Staged build_index_impl(const sim::Catalog* borrowed,
                          sim::Catalog&& adopted) const;

  EngineConfig cfg_;
};

}  // namespace galactos::core
