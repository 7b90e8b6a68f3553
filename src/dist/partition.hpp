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
//     within R_max of another rank's domain to that rank, so every rank sees
//     ALL secondaries of its owned primaries (§3.3: halo copies are
//     secondaries only; they are never primaries anywhere but home).
//
// The halo travels as a pruned locally-essential tree (Warren–Salmon LET,
// tree/let.hpp): each rank walks its owned KdTree against every peer's
// domain box and ships only the surviving leaf cells (AABB + packed
// points), so comm volume scales with the domain boundary. The per-point
// refinement inside surviving leaves uses the exact reach criterion
// (peer_box.dist2(p) <= R_max²), so the shipped point set is precisely the
// full R_max shell of the peer's domain.
//
// The halo exchange is split-phase: post_halo_exchange() returns with every
// send buffered and every receive posted, so the caller can build its
// owned-point spatial index while halo traffic is in flight and only then
// complete_halo_exchange() to collect the decoded LETs (dist/runner.cpp
// overlaps exactly this way and unpacks them into the engine's SECONDARY
// index). kd_partition() is the fused convenience call.
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

// The halo wire format. kLet is the only one; the enum and
// HaloOptions::mode stay so configurations that name it keep compiling.
enum class HaloMode { kLet };

struct HaloOptions {
  HaloMode mode = HaloMode::kLet;
  // Quantize LET coordinates + AABBs to float32 on the wire (3x smaller
  // payloads). OFF by default so the default exchange is bitwise lossless;
  // safe whenever the engine's tree precision is kMixed (the stored planes
  // are float anyway, so the float-valued coordinates survive the cast
  // exactly).
  bool let_f32 = false;
};

// Comm-volume counters for one rank's halo exchange (RankReport / bench).
// Bytes are payload bytes as handed to / taken from the comm layer
// (pre-framing).
struct HaloTraffic {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_recv = 0;
  std::uint64_t points_shipped = 0;  // points this rank sent, all peers
  std::uint64_t cells_sent = 0;      // LET cells shipped
  std::uint64_t cells_pruned = 0;    // owned-tree leaves kept off the wire
};

struct PartitionResult {
  sim::Catalog local;  // the galaxies this rank owns (its primaries)
  sim::Aabb domain;    // this rank's leaf domain (the LET pruning box)
  // `domain` with every face that no cut moved — a face on the global
  // bounding box — opened to ±infinity. No other rank's galaxy lies
  // strictly inside it, so it is the engine's two-pass SecondaryBound:
  // with one rank it is all of space.
  sim::Aabb open_domain;
  int levels = 0;      // k-d recursion depth experienced
  // One decoded LET per peer, ascending peer rank. The runner unpacks the
  // cells within R_max of `domain` (tree::append_let_to_catalog) into the
  // engine's secondary index.
  std::vector<tree::LetMessage> let;
  HaloTraffic traffic;
};

// A partition whose halo exchange is still in flight: `result.local` holds
// the owned galaxies (all sends are buffered, all receives posted);
// complete_halo_exchange() collects the peers' LETs.
struct PendingPartition {
  PartitionResult result;
  std::vector<int> peers;                            // comm ranks, ascending
  std::vector<RecvRequest<std::uint8_t>> let_recvs;  // || to peers
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
// into k-d domains, ships a LET to every other rank (buffered) and posts
// the matching receives, returning before any halo data is waited on.
// `rmax` must be identical on all ranks, as must `policy`.
PendingPartition post_halo_exchange(
    Comm& comm, const sim::Catalog& mine, double rmax,
    PartitionPolicy policy = PartitionPolicy::kPrimaryBalanced,
    const HaloOptions& halo = {});

// Drains the posted halo receives in peer-rank order (deterministic halo
// layout), decodes them into `let` and returns the completed partition.
// Call exactly once.
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
