// Distributed 3PCF driver (paper §3.2–3.3), pipelined two ways deep:
//
//   scatter → k-d partition → [LET halo in flight ∥ owned-index build
//                               ∥ PASS 1: interior leaves × owned]
//           → complete halo → unpack LETs
//           → PASS 2: secondary (halo) index, boundary leaves × (owned + halo)
//           → O(log P) tree allreduce of the additive ZetaResult payload
//
// post_halo_exchange() returns with halo sends buffered and receives
// posted; each rank then builds the spatial index over its OWNED galaxies
// and runs the owned-vs-owned traversal of its interior leaves
// (Engine::Staged::run_owned_pass, polling the outstanding receives
// between leaf batches) before blocking on the exchange — most of the
// O(N·n_nbr) kernel phase hides the halo, not just the index build. The
// pass's SecondaryBound is the rank's k-d domain with the faces on the
// global bounding box opened to ±infinity (PartitionResult::open_domain):
// halo copies come from other ranks' disjoint domains, so no halo point
// lies inside it, and a leaf more than R_max inside it needs no halo. The
// runner then unpacks the received LET cells within R_max of its domain
// (tree::append_let_to_catalog — the engine never sees the wire format),
// and run_secondary_pass indexes them into a secondary structure and runs
// every remaining (boundary) leaf once against owned and halo points
// together. The decomposition is exact — every primary is computed on
// exactly one rank, in exactly one pass — so the reduced result matches
// the single-node engine up to floating-point summation order (bitwise
// for one rank, where every leaf is interior, ~1e-13 relative for many),
// under either PartitionPolicy.
//
// The distributed pipeline runs core::Engine, the only estimator behind
// EngineConfig; the FFT mesh oracle (core::fft_3pcf) is single-node only.
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "dist/comm.hpp"
#include "dist/partition.hpp"
#include "sim/catalog.hpp"

namespace galactos::dist {

// The two-pass pipeline above is the only one. The enum and
// DistRunConfig::overlap stay so configurations that name it keep
// compiling (perfsuite assigns it); like HaloMode, both go with the next
// change to perfsuite.
enum class OverlapMode { kTwoPass };

struct DistRunConfig {
  core::EngineConfig engine;
  int ranks = 1;
  // What the k-d cuts equalize: raw galaxy counts or estimated pair counts
  // (the Fig. 7 imbalance fix).
  PartitionPolicy partition = PartitionPolicy::kPrimaryBalanced;
  OverlapMode overlap = OverlapMode::kTwoPass;  // the only pipeline
  // LET wire options (float32 quantization; see dist/partition.hpp).
  HaloOptions halo;
  // Comm-wide receive deadline in seconds; <= 0 (the default) keeps the
  // pre-deadline behavior (waits block forever). GALACTOS_DIST_TIMEOUT_S
  // overrides this at run_rank entry (dist::timeout_from_env). On expiry
  // the rank throws dist::TimeoutError naming the channel and phase,
  // dumps its partial RankReport to stderr, and broadcasts an abort so
  // every peer unwinds too.
  double timeout_s = 0.0;
};

// Per-rank accounting mirrored from the paper's scaling studies: primary
// (owned) balance is tight by construction; pair balance degrades as
// domains shrink (Fig. 7's story) unless kPairWeighted counters it.
struct RankReport {
  int rank = 0;
  std::uint64_t owned = 0;  // galaxies this rank owns (primaries)
  std::uint64_t held = 0;   // owned + halo copies
  std::uint64_t pairs = 0;  // kernel pairs evaluated on this rank
  int levels = 0;           // k-d recursion depth
  double partition_seconds = 0.0;    // k-d exchange + halo posting
  double halo_seconds = 0.0;         // time BLOCKED waiting on halo data
  // Primary index build + LET unpack + halo (secondary) index build.
  double index_build_seconds = 0.0;
  double engine_seconds = 0.0;          // owned + secondary passes
  double owned_pass_seconds = 0.0;      // pass 1
  double secondary_pass_seconds = 0.0;  // pass 2, excluding the halo build
  // The two-pass split: primary-index leaves run by the owned pass
  // (interior) and by the secondary pass (boundary), and the owned
  // primaries in the boundary leaves.
  std::uint64_t owned_pass_leaves = 0;
  std::uint64_t secondary_pass_leaves = 0;
  std::uint64_t boundary_primaries = 0;
  // Wall time spent computing between post_halo_exchange returning and
  // complete_halo_exchange being entered — the in-flight window filled
  // with useful work instead of blocking: the owned index build + the owned
  // pass. The overlap health metric is halo_hidden_seconds /
  // (halo_hidden_seconds + halo_seconds): bench_dist_scaling emits it as
  // hidden_fraction, and the nightly soak gates it against
  // bench/baselines/BENCH_dist.soak.json.
  double halo_hidden_seconds = 0.0;
  double reduce_seconds = 0.0;       // tree allreduce of the result payload
  double total_seconds = 0.0;
  // max/mean kernel pairs across ranks — identical on every rank, so the
  // Fig. 7 imbalance story is readable from any single report.
  double pair_imbalance = 0.0;
  // --- comm volume ---------------------------------------------------------
  // Halo-exchange payload bytes (pre-framing) and the points this rank
  // shipped to all peers — the full R_max shell of every peer's domain, so
  // a flat (x, y, z, w) f64 shower would have moved 32 B per point.
  // let_cells_pruned counts owned-tree leaves the admissibility walk (or
  // the per-point refinement) kept off the wire, summed over peers.
  std::uint64_t halo_bytes_sent = 0;
  std::uint64_t halo_bytes_recv = 0;
  std::uint64_t halo_points_shipped = 0;
  std::uint64_t let_cells_sent = 0;
  std::uint64_t let_cells_pruned = 0;
  // Total framed wire bytes this rank moved, by pipeline phase (indexed by
  // int(dist::Phase)) — every message, collectives included, on both
  // backends (Comm::byte_counters). Receive bytes land in the phase at
  // drain time, so two-pass halo payloads count under kHaloComplete.
  std::uint64_t phase_bytes_sent[kPhaseCount] = {};
  std::uint64_t phase_bytes_recv[kPhaseCount] = {};
  // Pipeline phase the rank failed in, as int(dist::Phase) so the struct
  // stays trivially copyable for allgather. 0 (Phase::kNone) = the run
  // succeeded; see dist/error.hpp phase_name() for the names.
  int failure_phase = 0;
};

// Rank-level driver for callers already inside run_ranks(): partitions the
// union of every rank's `mine`, runs the staged engine pipeline on owned
// primaries and returns the tree-reduced result on every rank.
core::ZetaResult run_rank(Comm& comm, const sim::Catalog& mine,
                          const DistRunConfig& cfg,
                          RankReport* report = nullptr);

// End-to-end in-process driver: spawns cfg.ranks minimpi ranks, scatters
// `catalog` round-robin, and runs the full pipeline. If `reports` is given
// it is filled with one RankReport per rank, in rank order.
core::ZetaResult run_distributed(const sim::Catalog& catalog,
                                 const DistRunConfig& cfg,
                                 std::vector<RankReport>* reports = nullptr);

// Backend-agnostic driver: the same pipeline over whichever backend the
// Session selected at dist::init time.
//
//   * kThreads — delegates to the in-process driver above.
//   * kMpi — `catalog` must be IDENTICAL on every process (same file or
//     same generator seed; nothing is scattered over the wire — each rank
//     takes its own round-robin slice). The first cfg.ranks world ranks
//     (cfg.ranks == 0 means all) run the pipeline on a contiguous
//     sub-communicator; the reduced result and the per-rank reports are
//     then broadcast over the full world, so EVERY process returns the
//     same values — and, for equal rank counts, the same bits as the
//     thread backend (the collectives share one combination tree).
core::ZetaResult run_distributed(const Session& session,
                                 const sim::Catalog& catalog,
                                 const DistRunConfig& cfg,
                                 std::vector<RankReport>* reports = nullptr);

}  // namespace galactos::dist
