#include "dist/partition.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "dist/tags.hpp"

namespace galactos::dist {

namespace {

// The partitioner's tag space lives in dist/tags.hpp (one tag per
// collective phase; FIFO per (src, dst, tag) makes reuse across recursion
// levels safe because the calls are sequentially matched). Local aliases
// keep the call sites readable.
constexpr int kTagBbox = tags::kBbox;
constexpr int kTagCount = tags::kCount;
constexpr int kTagSplit = tags::kSplit;
constexpr int kTagLeftToRight = tags::kLeftToRight;
constexpr int kTagRightToLeft = tags::kRightToLeft;
constexpr int kTagDomains = tags::kDomains;
constexpr int kTagCost = tags::kCost;
constexpr int kTagHalo = tags::kHalo;  // + sender rank (open-ended range)

double& aabb_coord(sim::Vec3& v, int dim) {
  return dim == 0 ? v.x : (dim == 1 ? v.y : v.z);
}

// (x, y, z, w) quadruples — the wire format for galaxy exchanges.
std::vector<double> pack(const sim::Catalog& c,
                         const std::vector<std::uint32_t>& idx) {
  std::vector<double> buf;
  buf.reserve(idx.size() * 4);
  for (std::uint32_t i : idx) {
    buf.push_back(c.x[i]);
    buf.push_back(c.y[i]);
    buf.push_back(c.z[i]);
    buf.push_back(c.w[i]);
  }
  return buf;
}

void append_packed(sim::Catalog& c, const std::vector<double>& buf) {
  GLX_CHECK(buf.size() % 4 == 0);
  for (std::size_t i = 0; i < buf.size(); i += 4)
    c.push_back(buf[i], buf[i + 1], buf[i + 2], buf[i + 3]);
}

// Bounding box of the union of all ranks' points (valid even when some
// ranks are empty: the identity extents survive the max-reduction).
sim::Aabb global_bbox(Comm& comm, const sim::Catalog& mine) {
  sim::Aabb local = sim::Aabb::of(mine);
  std::vector<double> ext{-local.lo.x, -local.lo.y, -local.lo.z,
                          local.hi.x,  local.hi.y,  local.hi.z};
  comm.allreduce_max(ext, kTagBbox);
  sim::Aabb out;
  out.lo = {-ext[0], -ext[1], -ext[2]};
  out.hi = {ext[3], ext[4], ext[5]};
  return out;
}

// Per-galaxy pair-cost estimate for kPairWeighted cuts: the expected pair
// count of a galaxy as primary is (local density) x (R_max ball volume).
// Density comes from a global histogram over the current domain with cells
// of ~rmax (capped so the reduced vector stays small); each galaxy's cost
// is the occupancy of its cell's 3³ neighborhood — i.e. the population of
// a box that contains its R_max ball, a direct ball-count proxy. One O(N)
// counting pass plus one small allreduce per level; no pair formation.
constexpr int kCostGridMax = 12;

std::vector<double> pair_cost_weights(Comm& c, const sim::Catalog& pts,
                                      const sim::Aabb& domain, double rmax) {
  int dims[3];
  double ext[3];
  for (int d = 0; d < 3; ++d) {
    ext[d] = std::max(domain.extent(d), 0.0);
    dims[d] = std::min(
        kCostGridMax,
        std::max(1, static_cast<int>(std::ceil(ext[d] / rmax))));
  }
  auto cell_of = [&](double v, double lo, double extent, int nd) {
    if (!(extent > 0)) return 0;
    const int k = static_cast<int>((v - lo) / extent * nd);
    return std::min(std::max(k, 0), nd - 1);
  };

  std::vector<double> hist(
      static_cast<std::size_t>(dims[0]) * dims[1] * dims[2], 0.0);
  std::vector<std::int32_t> cx(pts.size()), cy(pts.size()), cz(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    cx[i] = cell_of(pts.x[i], domain.lo.x, ext[0], dims[0]);
    cy[i] = cell_of(pts.y[i], domain.lo.y, ext[1], dims[1]);
    cz[i] = cell_of(pts.z[i], domain.lo.z, ext[2], dims[2]);
    hist[(static_cast<std::size_t>(cx[i]) * dims[1] + cy[i]) * dims[2] +
         cz[i]] += 1.0;
  }
  c.allreduce_sum(hist, kTagCost);

  std::vector<double> cost(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    double sum = 0;
    for (int ix = std::max(0, cx[i] - 1);
         ix <= std::min(dims[0] - 1, cx[i] + 1); ++ix)
      for (int iy = std::max(0, cy[i] - 1);
           iy <= std::min(dims[1] - 1, cy[i] + 1); ++iy)
        for (int iz = std::max(0, cz[i] - 1);
             iz <= std::min(dims[2] - 1, cz[i] + 1); ++iz)
          sum += hist[(static_cast<std::size_t>(ix) * dims[1] + iy) *
                          dims[2] +
                      iz];
    cost[i] = sum;
  }
  return cost;
}

// Drain-time TimeoutError enrichment: re-throw with the full exchange
// picture — how many peers (and which) never delivered, not just the one
// we happened to block on.
[[noreturn]] void rethrow_with_outstanding(
    const TimeoutError& e, std::vector<RecvRequest<std::uint8_t>>& recvs,
    const std::vector<int>& peers, std::size_t i) {
  std::size_t outstanding = 1;
  std::ostringstream ranks;
  ranks << peers[i];
  for (std::size_t j = i + 1; j < peers.size(); ++j) {
    bool done = false;
    try {
      done = recvs[j].test();
    } catch (...) {
      // An aborted world counts as undelivered.
    }
    if (!done) {
      ++outstanding;
      ranks << "," << peers[j];
    }
  }
  std::ostringstream detail;
  detail << outstanding << " of " << peers.size()
         << " halo messages still outstanding (from comm ranks "
         << ranks.str() << ")";
  throw TimeoutError(e.channel(), e.phase(), e.waited_seconds(),
                     detail.str());
}

}  // namespace

double distributed_split_point(Comm& comm, const std::vector<double>& values,
                               double lo, double hi, std::int64_t target,
                               int tag) {
  // Degenerate interval (single galaxy, or all galaxies coincident along
  // this dimension): cut at lo, which puts every value on the right side
  // (v < cut is false) — ownership stays exactly-once, one side just ends
  // up empty.
  if (!(lo < hi)) return lo;
  double cut = 0.5 * (lo + hi);
  for (int iter = 0; iter < 200; ++iter) {
    cut = 0.5 * (lo + hi);
    if (!(cut > lo && cut < hi)) break;  // interval exhausted (FP limit)
    std::int64_t below = 0;
    for (double v : values)
      if (v < cut) ++below;
    const std::int64_t total = comm.allreduce_sum_value(below, tag);
    if (total == target) break;  // identical on all ranks: joint exit
    if (total < target)
      lo = cut;
    else
      hi = cut;
  }
  return cut;
}

double distributed_split_point_weighted(Comm& comm,
                                        const std::vector<double>& values,
                                        const std::vector<double>& weights,
                                        double lo, double hi, double target,
                                        int tag) {
  GLX_CHECK(values.size() == weights.size());
  if (!(lo < hi)) return lo;
  double cut = 0.5 * (lo + hi);
  // Weighted targets are generally unattainable exactly, so run the
  // bisection to FP exhaustion (~60 halvings); every rank sees the same
  // reduced totals, so all ranks walk the same interval and exit together.
  for (int iter = 0; iter < 100; ++iter) {
    cut = 0.5 * (lo + hi);
    if (!(cut > lo && cut < hi)) break;
    double below = 0;
    for (std::size_t i = 0; i < values.size(); ++i)
      if (values[i] < cut) below += weights[i];
    const double total = comm.allreduce_sum_value(below, tag);
    if (total < target)
      lo = cut;
    else
      hi = cut;
  }
  return cut;
}

PendingPartition post_halo_exchange(Comm& comm, const sim::Catalog& mine,
                                    double rmax, PartitionPolicy policy,
                                    const HaloOptions& halo) {
  GLX_CHECK(rmax > 0);
  comm.set_phase(Phase::kPartition);
  sim::Catalog pts = mine;
  sim::Aabb domain = global_bbox(comm, mine);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  sim::Aabb open_domain;
  open_domain.lo = {-kInf, -kInf, -kInf};
  open_domain.hi = {kInf, kInf, kInf};
  Comm c = comm;
  int levels = 0;

  while (c.size() > 1) {
    const int P = c.size();
    const int PL = P / 2;
    const int PR = P - PL;
    const int dim = domain.widest_dim();

    const std::vector<double>& coords =
        dim == 0 ? pts.x : (dim == 1 ? pts.y : pts.z);

    double cut;
    if (policy == PartitionPolicy::kPairWeighted) {
      const std::vector<double> cost = pair_cost_weights(c, pts, domain, rmax);
      double local_cost = 0;
      for (double w : cost) local_cost += w;
      const double total_cost = c.allreduce_sum_value(local_cost, kTagCount);
      cut = distributed_split_point_weighted(
          c, coords, cost, aabb_coord(domain.lo, dim),
          aabb_coord(domain.hi, dim), total_cost * PL / P, kTagSplit);
    } else {
      const std::int64_t total = c.allreduce_sum_value(
          static_cast<std::int64_t>(pts.size()), kTagCount);
      const std::int64_t target = static_cast<std::int64_t>(
          std::llround(static_cast<double>(total) * PL / P));
      cut = distributed_split_point(c, coords, aabb_coord(domain.lo, dim),
                                    aabb_coord(domain.hi, dim), target,
                                    kTagSplit);
    }

    const bool left = c.rank() < PL;
    std::vector<std::uint32_t> keep_idx, give_idx;
    for (std::uint32_t i = 0; i < pts.size(); ++i) {
      const bool is_left = coords[i] < cut;  // boundary galaxies go right
      (is_left == left ? keep_idx : give_idx).push_back(i);
    }

    // Ship off-side galaxies to a fixed partner in the other half; sends
    // are buffered, so everyone sends first and then drains its inbox.
    sim::Catalog next;
    next.reserve(keep_idx.size());
    for (std::uint32_t i : keep_idx)
      next.push_back(pts.position(i), pts.w[i]);
    if (left) {
      c.send(PL + (c.rank() % PR), kTagLeftToRight, pack(pts, give_idx));
      for (int j = 0; j < PR; ++j)
        if (j % PL == c.rank())
          append_packed(next, c.recv<double>(PL + j, kTagRightToLeft));
    } else {
      const int me = c.rank() - PL;
      c.send(me % PL, kTagRightToLeft, pack(pts, give_idx));
      for (int i = 0; i < PL; ++i)
        if (i % PR == me)
          append_packed(next, c.recv<double>(i, kTagLeftToRight));
    }
    pts = std::move(next);

    if (left) {
      aabb_coord(domain.hi, dim) = cut;
      aabb_coord(open_domain.hi, dim) = cut;
      c = c.sub_range(0, PL);
    } else {
      aabb_coord(domain.lo, dim) = cut;
      aabb_coord(open_domain.lo, dim) = cut;
      c = c.sub_range(PL, P);
    }
    ++levels;
  }

  PendingPartition pend;
  pend.result.domain = domain;
  pend.result.open_domain = open_domain;
  pend.result.levels = levels;
  pend.result.local = std::move(pts);

  // Halo exchange over the full communicator: every rank publishes its leaf
  // domain and ships each peer the LET of its owned tree against that
  // peer's box — one admissibility walk per peer, then the exact
  // per-point reach criterion (distance to the box <= rmax, on the tree's
  // double coordinate planes) inside surviving leaves, so the shipped set
  // is exactly the potential secondaries of that rank's primaries. An
  // empty rank ships an empty (but well-formed) message so every peer
  // still gets one. Sends are buffered and receives are only posted here,
  // so the exchange is in flight when this returns — the caller overlaps
  // it with the owned-point index build.
  comm.set_phase(Phase::kHaloPost);
  if (comm.size() > 1) {
    const sim::Aabb& dom = pend.result.domain;
    const std::vector<double> mybox{dom.lo.x, dom.lo.y, dom.lo.z,
                                    dom.hi.x, dom.hi.y, dom.hi.z};
    const auto boxes = comm.allgather(mybox, kTagDomains);
    const tree::KdTree<double> owned_tree(pend.result.local);
    for (int r = 0; r < comm.size(); ++r) {
      if (r == comm.rank()) continue;
      sim::Aabb box;
      box.lo = {boxes[r][0], boxes[r][1], boxes[r][2]};
      box.hi = {boxes[r][3], boxes[r][4], boxes[r][5]};
      tree::LetStats st;
      const tree::LetMessage msg =
          tree::build_let_message(owned_tree, box, rmax, halo.let_f32, &st);
      std::vector<std::uint8_t> buf = tree::serialize_let(msg);
      pend.traffic.bytes_sent += buf.size();
      pend.traffic.points_shipped += st.points_shipped;
      pend.traffic.cells_sent += st.cells_sent;
      pend.traffic.cells_pruned += st.cells_pruned;
      comm.send(r, kTagHalo + comm.rank(), buf);
    }
    for (int r = 0; r < comm.size(); ++r) {
      if (r == comm.rank()) continue;
      pend.peers.push_back(r);
      pend.let_recvs.push_back(comm.irecv<std::uint8_t>(r, kTagHalo + r));
    }
  }
  return pend;
}

bool PendingPartition::poll() {
  // Called from inside the engine's OpenMP owned pass (master thread,
  // between leaf batches) — an exception escaping an OMP structured block
  // is std::terminate, so a world abort observed here must NOT throw.
  // Report "not complete" instead; the blocking complete_halo_exchange()
  // hits the same condition and rethrows it from a safe context.
  bool all = true;
  for (auto& req : let_recvs) {
    bool done = false;
    try {
      done = req.test();
    } catch (...) {
      return false;
    }
    all = done && all;
  }
  return all;
}

PartitionResult complete_halo_exchange(PendingPartition& pending) {
  pending.result.let.reserve(pending.peers.size());
  for (std::size_t i = 0; i < pending.peers.size(); ++i) {
    std::vector<std::uint8_t> buf;
    try {
      buf = pending.let_recvs[i].get();
    } catch (const TimeoutError& e) {
      rethrow_with_outstanding(e, pending.let_recvs, pending.peers, i);
    }
    pending.traffic.bytes_recv += buf.size();
    try {
      pending.result.let.push_back(tree::deserialize_let(buf));
    } catch (const std::exception& e) {
      // The frame layer already checksummed the bytes, so a parse
      // failure means a version mismatch with the sender.
      throw ProtocolError(
          Channel{pending.peers[i], -1, kTagHalo + pending.peers[i]},
          e.what());
    }
  }
  pending.let_recvs.clear();
  pending.peers.clear();
  pending.result.traffic = pending.traffic;
  return std::move(pending.result);
}

PartitionResult kd_partition(Comm& comm, const sim::Catalog& mine,
                             double rmax, PartitionPolicy policy,
                             const HaloOptions& halo) {
  PendingPartition pend = post_halo_exchange(comm, mine, rmax, policy, halo);
  return complete_halo_exchange(pend);
}

}  // namespace galactos::dist
