#include "dist/runner.hpp"

#include <cstdio>
#include <string>

#include "dist/tags.hpp"
#include "tree/let.hpp"
#include "util/timer.hpp"

namespace galactos::dist {

namespace {

// Tag layout lives in dist/tags.hpp; local aliases keep call sites short.
constexpr int kTagReducePayload = tags::kReducePayload;
constexpr int kTagReduceCounts = tags::kReduceCounts;
constexpr int kTagReducePairs = tags::kReducePairs;
// World-communicator traffic of the session driver (result fan-out to
// ranks outside the compute sub-communicator).
constexpr int kTagWorldPayload = tags::kWorldPayload;
constexpr int kTagWorldCounts = tags::kWorldCounts;
constexpr int kTagWorldReports = tags::kWorldReports;

sim::Catalog round_robin_slice(const sim::Catalog& full, int rank,
                               int nranks) {
  sim::Catalog mine;
  mine.reserve(full.size() / static_cast<std::size_t>(nranks) + 1);
  for (std::size_t i = static_cast<std::size_t>(rank); i < full.size();
       i += static_cast<std::size_t>(nranks))
    mine.push_back(full.position(i), full.w[i]);
  return mine;
}

// Minimal escaping for the one-line JSON failure report (error strings may
// quote the offending spec or channel).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// Shared tail of both backends' pipelines: one allreduce for the additive
// double payload, one for the integer counters — each a recursive-doubling
// butterfly with a fixed lower-rank-first combine, so every rank ends with
// the same deterministic totals in O(log P) steps. Also fills the
// pair-imbalance collectives (max/mean across ranks) so Fig. 7 is readable
// from any single report.
core::ZetaResult reduce_across_ranks(Comm& comm,
                                     const core::EngineConfig& engine_cfg,
                                     const core::ZetaResult& local,
                                     std::uint64_t my_pair_count,
                                     RankReport& rep) {
  comm.set_phase(Phase::kReduce);
  Timer tred;
  std::vector<double> payload = local.reduce_payload();
  comm.allreduce_sum(payload, kTagReducePayload);
  std::vector<std::uint64_t> counts{local.n_primaries, local.n_pairs};
  comm.allreduce_sum(counts, kTagReduceCounts);
  const double reduce_seconds = tred.seconds();

  core::ZetaResult out =
      core::ZetaResult::zero_like(engine_cfg.bins, engine_cfg.lmax);
  out.set_reduce_payload(payload);
  out.n_primaries = counts[0];
  out.n_pairs = counts[1];

  const double my_pairs = static_cast<double>(my_pair_count);
  const double max_pairs = comm.allreduce_max_value(my_pairs, kTagReducePairs);
  const double sum_pairs = comm.allreduce_sum_value(my_pairs, kTagReducePairs);
  const double mean_pairs = sum_pairs / comm.size();

  rep.reduce_seconds = reduce_seconds;
  rep.pair_imbalance = mean_pairs > 0 ? max_pairs / mean_pairs : 1.0;
  return out;
}

// The pipeline body, writing its accounting into `rep` as each
// stage completes so run_rank's failure path can dump whatever was measured
// before the error. Phases are marked on the comm both for diagnostics
// (TimeoutError / failure_phase) and as FaultPlan stall/crash hook points.
core::ZetaResult run_rank_pipeline(Comm& comm, const sim::Catalog& mine,
                                   const DistRunConfig& cfg,
                                   RankReport& rep) {
  const core::EngineConfig& engine_cfg = cfg.engine;

  Timer tpart;
  PendingPartition pending = post_halo_exchange(
      comm, mine, engine_cfg.bins.rmax(), cfg.partition, cfg.halo);
  const double partition_seconds = tpart.seconds();
  rep.partition_seconds = partition_seconds;

  const core::Engine engine(engine_cfg);
  const std::size_t n_owned = pending.result.local.size();
  rep.owned = n_owned;
  rep.levels = pending.result.levels;

  // The pipeline: halo traffic is already in flight (sends buffered,
  // receives posted), so everything timed between here and
  // complete_halo_exchange() is work the halo hides behind
  // (halo_hidden_seconds): the owned index build and the owned-vs-owned
  // traversal of the interior leaves, polling the outstanding receives
  // between leaf batches. A rank that owns no points builds nothing and
  // contributes empty_result().
  double index_seconds = 0.0;
  core::Engine::Staged staged;
  core::EngineStats stats;
  if (n_owned > 0) {
    // post_halo_exchange has already built and shipped the owned LETs, so
    // the owned catalog is free to move into the index handle.
    Timer ti;
    staged = engine.build_index(std::move(pending.result.local));
    index_seconds = ti.seconds();

    comm.set_phase(Phase::kOwnedPass);
    // Halo copies come from other ranks' domains, which tile space
    // disjointly from ours — so the k-d leaf domain, opened to infinity on
    // the global bounding box, is a valid SecondaryBound: pass 1 runs the
    // leaves more than R_max inside it and defers the rest to pass 2.
    const core::Engine::SecondaryBound bound{pending.result.open_domain.lo,
                                             pending.result.open_domain.hi};
    Timer tp;
    staged.run_owned_pass(bound, &stats, [&pending] { pending.poll(); });
    rep.owned_pass_seconds = tp.seconds();
    rep.owned_pass_leaves = stats.leaves;
  }
  rep.halo_hidden_seconds = index_seconds + rep.owned_pass_seconds;
  comm.set_phase(Phase::kHaloComplete);
  Timer th;
  PartitionResult part = complete_halo_exchange(pending);
  rep.halo_seconds = th.seconds();
  rep.held = n_owned;
  for (const tree::LetMessage& m : part.let) rep.held += m.point_count();
  rep.index_build_seconds = index_seconds;
  rep.halo_bytes_sent = part.traffic.bytes_sent;
  rep.halo_bytes_recv = part.traffic.bytes_recv;
  rep.halo_points_shipped = part.traffic.points_shipped;
  rep.let_cells_sent = part.traffic.cells_sent;
  rep.let_cells_pruned = part.traffic.cells_pruned;

  core::ZetaResult local;
  if (!staged.valid()) {
    local = engine.empty_result();
  } else {
    // Halo copies act as secondaries only. Unpack the peers' LET cells
    // within R_max of this rank's domain — the receiver-side pruning tier:
    // whole cells beyond reach never reach the secondary build — and let
    // pass 2 index them and run the boundary leaves.
    Timer tu;
    sim::Catalog halo;
    for (const tree::LetMessage& m : part.let)
      tree::append_let_to_catalog(m, part.domain, engine_cfg.bins.rmax(),
                                  halo);
    part.let.clear();  // unpacked: free the wire buffers before pass 2
    index_seconds += tu.seconds();

    comm.set_phase(Phase::kSecondaryPass);
    Timer tsec;
    core::EngineStats sec_stats;
    local = staged.run_secondary_pass(std::move(halo), &sec_stats);
    const double halo_build = sec_stats.phases.get("index build");
    index_seconds += halo_build;
    rep.secondary_pass_seconds = tsec.seconds() - halo_build;
    stats.pairs += sec_stats.pairs;  // the two passes' leaves are disjoint
    rep.secondary_pass_leaves = sec_stats.leaves;
    rep.boundary_primaries = sec_stats.primaries;
  }
  rep.pairs = stats.pairs;
  rep.index_build_seconds = index_seconds;
  rep.engine_seconds = rep.owned_pass_seconds + rep.secondary_pass_seconds;

  return reduce_across_ranks(comm, engine_cfg, local, stats.pairs, rep);
}

// Snapshot the comm's per-phase wire-byte tally into the report (success
// and failure paths alike — a failed rank's partial traffic still counts).
void fill_phase_bytes(const Comm& comm, RankReport& rep) {
  const CommByteCounters& cb = comm.byte_counters();
  for (int i = 0; i < kPhaseCount; ++i) {
    rep.phase_bytes_sent[i] = cb.sent[i];
    rep.phase_bytes_recv[i] = cb.recv[i];
  }
}

}  // namespace

core::ZetaResult run_rank(Comm& comm, const sim::Catalog& mine,
                          const DistRunConfig& cfg, RankReport* report) {
  comm.set_timeout(timeout_from_env(cfg.timeout_s));
  Timer total;
  RankReport rep;
  rep.rank = comm.rank();
  try {
    comm.set_phase(Phase::kScatter);  // pipeline entry (slicing is done)
    core::ZetaResult out = run_rank_pipeline(comm, mine, cfg, rep);
    comm.set_phase(Phase::kTeardown);
    rep.total_seconds = total.seconds();
    rep.failure_phase = static_cast<int>(Phase::kNone);
    fill_phase_bytes(comm, rep);
    if (report) *report = rep;
    return out;
  } catch (const std::exception& e) {
    // Graceful failure: record the phase, dump the partial accounting as
    // one grep-able JSON line, tell every peer to unwind (the reserved
    // abort channel — their timed waits convert it to PeerAbortError with
    // this reason), then rethrow for the backend's abort path.
    rep.total_seconds = total.seconds();
    rep.failure_phase = static_cast<int>(comm.phase());
    fill_phase_bytes(comm, rep);
    std::fprintf(
        stderr,
        "{\"galactos_rank_failure\":{\"rank\":%d,\"phase\":\"%s\","
        "\"error\":\"%s\",\"owned\":%llu,\"held\":%llu,\"pairs\":%llu,"
        "\"levels\":%d,\"partition_seconds\":%.6f,\"halo_seconds\":%.6f,"
        "\"index_build_seconds\":%.6f,\"engine_seconds\":%.6f,"
        "\"total_seconds\":%.6f}}\n",
        rep.rank, phase_name(comm.phase()), json_escape(e.what()).c_str(),
        static_cast<unsigned long long>(rep.owned),
        static_cast<unsigned long long>(rep.held),
        static_cast<unsigned long long>(rep.pairs), rep.levels,
        rep.partition_seconds, rep.halo_seconds, rep.index_build_seconds,
        rep.engine_seconds, rep.total_seconds);
    comm.post_abort(e.what());
    if (report) *report = rep;
    throw;
  }
}

core::ZetaResult run_distributed(const sim::Catalog& catalog,
                                 const DistRunConfig& cfg,
                                 std::vector<RankReport>* reports) {
  GLX_CHECK_MSG(cfg.ranks >= 1, "run_distributed: ranks must be >= 1");
  GLX_CHECK_MSG(!catalog.empty(), "run_distributed: empty catalog");

  core::ZetaResult result;
  std::vector<RankReport> ranks_out(static_cast<std::size_t>(cfg.ranks));
  run_ranks(cfg.ranks, [&](Comm& comm) {
    const sim::Catalog mine =
        round_robin_slice(catalog, comm.rank(), comm.size());
    RankReport report;
    core::ZetaResult reduced = run_rank(comm, mine, cfg, &report);
    // Each rank writes only its own slot; run_ranks joins before we read.
    ranks_out[static_cast<std::size_t>(comm.rank())] = report;
    if (comm.rank() == 0) result = std::move(reduced);
  });
  if (reports) *reports = std::move(ranks_out);
  return result;
}

core::ZetaResult run_distributed(const Session& session,
                                 const sim::Catalog& catalog,
                                 const DistRunConfig& cfg,
                                 std::vector<RankReport>* reports) {
  GLX_CHECK_MSG(session.valid(), "run_distributed: empty session");
  if (session.backend() == Backend::kThreads) {
    // ranks == 0 means "all" on MPI; the thread world has no ambient rank
    // count, so mirror Session::run(0) and mean one rank.
    if (cfg.ranks == 0) {
      DistRunConfig one = cfg;
      one.ranks = 1;
      return run_distributed(catalog, one, reports);
    }
    return run_distributed(catalog, cfg, reports);
  }

  GLX_CHECK_MSG(!catalog.empty(), "run_distributed: empty catalog");
  const int nranks = cfg.ranks == 0 ? session.size() : cfg.ranks;
  GLX_CHECK_MSG(nranks >= 1, "run_distributed: ranks must be >= 1");
  GLX_CHECK_MSG(nranks <= session.size(),
                "run_distributed: " << nranks << " ranks requested but the "
                << "MPI world has " << session.size()
                << " (grow -np or shrink --ranks)");

  core::ZetaResult result =
      core::ZetaResult::zero_like(cfg.engine.bins, cfg.engine.lmax);
  std::vector<RankReport> ranks_out;
  // All world ranks enter; the first `nranks` compute, then the world
  // redistributes the reduced payload + reports so every process agrees.
  session.run(session.size(), [&](Comm& world) {
    std::vector<double> payload;
    std::vector<std::uint64_t> counts;
    std::vector<RankReport> mine_report;
    if (world.rank() < nranks) {
      Comm compute = world.sub_range(0, nranks);
      const sim::Catalog mine =
          round_robin_slice(catalog, compute.rank(), compute.size());
      RankReport rep;
      const core::ZetaResult reduced = run_rank(compute, mine, cfg, &rep);
      payload = reduced.reduce_payload();
      counts = {reduced.n_primaries, reduced.n_pairs};
      mine_report.push_back(rep);
    }
    world.bcast(payload, 0, kTagWorldPayload);
    world.bcast(counts, 0, kTagWorldCounts);
    const auto all_reports =
        world.allgather(mine_report, kTagWorldReports);
    for (const auto& per_rank : all_reports)
      for (const RankReport& r : per_rank) ranks_out.push_back(r);

    result.set_reduce_payload(payload);
    result.n_primaries = counts.at(0);
    result.n_pairs = counts.at(1);
  });
  if (reports) *reports = std::move(ranks_out);
  return result;
}

}  // namespace galactos::dist
