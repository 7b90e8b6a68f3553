// Distributed k-d domain decomposition with halo exchange (paper §3.2).
//
// Starting from an arbitrary scatter of the catalog over ranks, the
// communicator is recursively split in two (floor(P/2) / ceil(P/2) ranks)
// along the widest dimension of the current domain; the cut plane is placed
// by distributed bisection and every rank ships its off-side galaxies to a
// partner in the other half. After log2(P) levels each rank owns the
// galaxies inside a private axis-aligned domain:
//
//   * exactly-once: domains tile space half-open along every cut
//     ([lo, cut) | [cut, hi)), so each galaxy lands on exactly one rank;
//   * balance: what the cut equalizes is the PartitionPolicy's choice —
//     raw galaxy counts (kPrimaryBalanced, the paper's 0.1%-tight primary
//     balance) or an estimated pair count (kPairWeighted: each galaxy is
//     weighted by the local density seen through a coarse global histogram,
//     i.e. density x R_max ball volume up to a constant — the Fig. 7 fix
//     for pair imbalance as domains shrink);
//   * halo completeness: a final neighbor exchange ships every owned galaxy
//     to each rank whose domain it is within R_max of, so every rank sees
//     ALL secondaries of its owned primaries (§3.3: halo copies are
//     secondaries only; they are never primaries anywhere but home).
//
// The halo exchange is split-phase: post_halo_exchange() returns with every
// send buffered and every receive posted, so the caller can build its
// owned-point spatial index while halo traffic is in flight and only then
// complete_halo_exchange() to append the halo copies (dist/runner.cpp
// overlaps exactly this way). kd_partition() is the fused convenience call.
// Halo copies enter the engine as a SECONDARY index built through the same
// Morton-ordered, SIMD-padded layout as the owned index (core/engine.cpp
// make_index); they are only ever queried per box, never per leaf.
//
// Failure semantics: both phases run under the comm's deadline when one is
// set (Comm::set_timeout) — a lost or late message surfaces as
// dist::TimeoutError naming the channel (all tags come from dist/tags.hpp)
// and pipeline phase; complete_halo_exchange() additionally reports how
// many halo peers were still outstanding. The phases are marked via
// Comm::set_phase (kPartition during the k-d cuts, kHaloPost once halo
// traffic is posted), which is also where an active FaultPlan's
// stall/crash rules fire.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/comm.hpp"
#include "sim/box.hpp"
#include "sim/catalog.hpp"
#include "tree/let.hpp"

namespace galactos::dist {

// What the k-d bisection equalizes between the two sides of every cut.
enum class PartitionPolicy {
  kPrimaryBalanced,  // galaxy counts (primaries balance to ~0.1%)
  kPairWeighted,     // estimated pair counts (local density weighting)
};

// How halo completeness is achieved after the cuts.
enum class HaloMode {
  // Flat point shower: every owned galaxy within R_max of a peer's domain
  // is shipped as a raw (x, y, z, w) double quadruple — the paper's §3.3
  // exchange, bitwise-stable reference path.
  kFullShell,
  // Pruned locally-essential tree (Warren–Salmon LET): walk the owned
  // KdTree against each peer's domain box and ship only surviving leaf
  // cells (AABB + packed points), delta-encoded; comm volume scales with
  // the domain *boundary* instead of the halo shell's raw point count.
  // The shipped point set is identical to kFullShell (same reach
  // criterion, double coordinates), so results match to round-off of the
  // receiver's secondary build; lossless (f64) unless `let_f32` is set.
  kLet,
};

inline const char* halo_mode_name(HaloMode m) {
  return m == HaloMode::kLet ? "let" : "full-shell";
}

struct HaloOptions {
  HaloMode mode = HaloMode::kFullShell;
  // kLet only: quantize coordinates + AABBs to float32 on the wire (3x
  // smaller payloads). OFF by default so the default exchange is bitwise
  // lossless; safe whenever the engine's tree precision is kMixed (the
  // stored planes are float anyway, so the float-valued coordinates
  // survive the cast exactly).
  bool let_f32 = false;
};

// Comm-volume counters for one rank's halo exchange (RankReport / bench).
// Bytes are payload bytes as handed to / taken from the comm layer
// (pre-framing), so full-shell and LET are directly comparable.
struct HaloTraffic {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_recv = 0;
  std::uint64_t points_shipped = 0;  // points this rank sent, all peers
  std::uint64_t cells_sent = 0;      // kLet: LET cells shipped
  std::uint64_t cells_pruned = 0;    // kLet: leaves kept off the wire
};

struct PartitionResult {
  // Owned galaxies first, then halo copies (HaloMode::kFullShell only —
  // under kLet `local` stays owned-only and the halo arrives in `let`).
  sim::Catalog local;
  std::vector<std::uint8_t> owned;  // parallel to `local`
  sim::Aabb domain;                 // this rank's leaf domain
  int levels = 0;                   // k-d recursion depth experienced
  // HaloMode::kLet: one decoded LET per peer, ascending peer rank. The
  // runner hands these to Engine::Staged::extend_with_let, which unpacks
  // only the cells within R_max of this rank's domain.
  std::vector<tree::LetMessage> let;
  HaloTraffic traffic;

  std::size_t owned_count() const {
    std::size_t n = 0;
    for (std::uint8_t o : owned) n += o ? 1u : 0u;
    return n;
  }
  std::size_t halo_count() const { return owned.size() - owned_count(); }

  // Indices into `local` usable as the engine's primary list.
  std::vector<std::int64_t> owned_indices() const {
    std::vector<std::int64_t> idx;
    idx.reserve(owned.size());
    for (std::size_t i = 0; i < owned.size(); ++i)
      if (owned[i]) idx.push_back(static_cast<std::int64_t>(i));
    return idx;
  }
};

// A partition whose halo exchange is still in flight: `result.local` holds
// exactly the owned galaxies (all sends are buffered, all receives posted);
// complete_halo_exchange() appends the halo copies.
struct PendingPartition {
  PartitionResult result;
  HaloMode mode = HaloMode::kFullShell;
  std::vector<int> peers;                        // comm ranks, ascending
  std::vector<RecvRequest<double>> halo_recvs;   // kFullShell, || to peers
  std::vector<RecvRequest<std::uint8_t>> let_recvs;  // kLet, || to peers
  HaloTraffic traffic;

  // Non-blocking progress on the outstanding halo receives: test()s every
  // posted request and returns true once all have claimed their message.
  // Safe to call any number of times (including after completion), from
  // the thread that posted the exchange — the two-pass runner polls this
  // between owned-pass leaf batches so the transport keeps making progress
  // while the kernel owns the core.
  bool poll();
};

// Collective over `comm`: redistributes the union of every rank's `mine`
// into k-d domains, ships halo galaxies to every neighbor rank (buffered)
// and posts the matching receives, returning before any halo data is
// waited on. `rmax` must be identical on all ranks, as must `policy`.
PendingPartition post_halo_exchange(
    Comm& comm, const sim::Catalog& mine, double rmax,
    PartitionPolicy policy = PartitionPolicy::kPrimaryBalanced,
    const HaloOptions& halo = {});

// Drains the posted halo receives in peer-rank order (deterministic halo
// layout) and returns the completed partition. Call exactly once.
PartitionResult complete_halo_exchange(PendingPartition& pending);

// Fused post + complete, for callers with nothing to overlap.
PartitionResult kd_partition(
    Comm& comm, const sim::Catalog& mine, double rmax,
    PartitionPolicy policy = PartitionPolicy::kPrimaryBalanced,
    const HaloOptions& halo = {});

// Collective: bisects [lo, hi] for a cut with exactly `target` of the
// ranks' combined `values` strictly below it (achievable when values are
// distinct; otherwise converges to the nearest attainable count). All
// communication uses `tag`.
double distributed_split_point(Comm& comm, const std::vector<double>& values,
                               double lo, double hi, std::int64_t target,
                               int tag);

// Weighted variant: bisects for a cut with ~`target` total `weights` (one
// per value) strictly below it. Weighted targets are generally not exactly
// attainable, so bisection runs until the interval is exhausted.
double distributed_split_point_weighted(Comm& comm,
                                        const std::vector<double>& values,
                                        const std::vector<double>& weights,
                                        double lo, double hi, double target,
                                        int tag);

}  // namespace galactos::dist
