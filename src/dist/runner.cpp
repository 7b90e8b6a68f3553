#include "dist/runner.hpp"

#include <cstdio>
#include <string>

#include "dist/fft_slab.hpp"
#include "dist/tags.hpp"
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

}  // namespace

const char* overlap_mode_name(OverlapMode mode) {
  switch (mode) {
    case OverlapMode::kSequential: return "sequential";
    case OverlapMode::kIndexBuild: return "index_build";
    case OverlapMode::kTwoPass: return "two_pass";
  }
  return "unknown";
}

namespace {

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

// The tree-backend pipeline body, writing its accounting into `rep` as each
// stage completes so run_rank's failure path can dump whatever was measured
// before the error. Phases are marked on the comm both for diagnostics
// (TimeoutError / failure_phase) and as FaultPlan stall/crash hook points.
core::ZetaResult run_rank_pipeline(Comm& comm, const sim::Catalog& mine,
                                   const DistRunConfig& cfg,
                                   RankReport& rep) {
  const core::EngineConfig& engine_cfg = cfg.engine;

  // The FFT backend replaces the whole k-d / halo / traversal pipeline
  // with the slab-decomposed mesh path; only the reduce tail is shared.
  // The mesh has no discrete pair count, so the imbalance collective runs
  // on owned-primary counts instead.
  if (engine_cfg.backend == core::EstimatorBackend::kFFT) {
    comm.set_phase(Phase::kOwnedPass);
    Timer teng;
    core::EngineStats stats;
    const core::ZetaResult local = fft_slab_3pcf(comm, mine, engine_cfg,
                                                 &stats);
    rep.engine_seconds = teng.seconds();
    rep.owned = local.n_primaries;
    rep.held = local.n_primaries;
    rep.pairs = 0;
    return reduce_across_ranks(comm, engine_cfg, local, local.n_primaries,
                               rep);
  }

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
  // (halo_hidden_seconds). kSequential drains the exchange first — the A/B
  // baseline; kIndexBuild hides the owned-index build (the PR-3 pipeline);
  // kTwoPass additionally runs the whole owned-vs-owned traversal before
  // blocking, polling the outstanding receives between leaf batches.
  double halo_seconds = 0.0;
  double index_seconds = 0.0;
  double owned_pass_seconds = 0.0;
  double secondary_pass_seconds = 0.0;
  double halo_hidden_seconds = 0.0;
  core::Engine::Staged staged;
  core::EngineStats stats;

  PartitionResult part;
  if (cfg.overlap == OverlapMode::kSequential) {
    comm.set_phase(Phase::kHaloComplete);
    Timer th;
    part = complete_halo_exchange(pending);
    halo_seconds = th.seconds();
    rep.halo_seconds = halo_seconds;
    if (n_owned > 0) {
      // The owned galaxies stay the first n_owned entries of the completed
      // partition; snapshot that prefix once and MOVE it into the handle
      // (build_index's copying overload would add a second O(N) copy).
      sim::Catalog owned_only;
      owned_only.reserve(n_owned);
      for (std::size_t i = 0; i < n_owned; ++i)
        owned_only.push_back(part.local.position(i), part.local.w[i]);
      Timer ti;
      staged = engine.build_index(std::move(owned_only));
      index_seconds += ti.seconds();
    }
  } else {
    if (n_owned > 0) {
      Timer ti;
      // Copying overload: complete_halo_exchange will append to (and may
      // reallocate) this buffer, so the handle needs its own.
      staged = engine.build_index(pending.result.local);
      index_seconds += ti.seconds();
      halo_hidden_seconds += index_seconds;
    }
    if (cfg.overlap == OverlapMode::kTwoPass && staged.valid()) {
      comm.set_phase(Phase::kOwnedPass);
      // Halo copies come from other ranks' domains, which tile space
      // disjointly from ours — so the k-d leaf domain bounds them away
      // from the interior, and pass 1 snapshots only the boundary shell's
      // power sums (pass 2 rebuilds those a_lm without a kernel re-run).
      const core::Engine::SecondaryBound bound{pending.result.domain.lo,
                                               pending.result.domain.hi};
      Timer tp;
      staged.run_owned_pass(nullptr, &stats, [&pending] { pending.poll(); },
                            &bound);
      owned_pass_seconds = tp.seconds();
      halo_hidden_seconds += owned_pass_seconds;
      rep.owned_pass_seconds = owned_pass_seconds;
    }
    comm.set_phase(Phase::kHaloComplete);
    Timer th;
    part = complete_halo_exchange(pending);
    halo_seconds = th.seconds();
    rep.halo_seconds = halo_seconds;
  }
  rep.held = part.local.size();
  rep.index_build_seconds = index_seconds;
  rep.halo_hidden_seconds = halo_hidden_seconds;
  rep.halo_bytes_sent = part.traffic.bytes_sent;
  rep.halo_bytes_recv = part.traffic.bytes_recv;
  rep.halo_points_shipped = part.traffic.points_shipped;
  rep.let_cells_sent = part.traffic.cells_sent;
  rep.let_cells_pruned = part.traffic.cells_pruned;

  // Halo copies act as secondaries only. Under kLet they arrive as pruned
  // LET cells and the engine unpacks them directly (dropping cells beyond
  // R_max of this rank's domain); under kFullShell they were appended to
  // `local` after the owned block.
  if (cfg.halo.mode == HaloMode::kLet) {
    std::size_t let_points = 0;
    for (const tree::LetMessage& m : part.let) let_points += m.point_count();
    rep.held = n_owned + let_points;
    if (staged.valid() && let_points > 0) {
      const core::Engine::SecondaryBound bound{part.domain.lo,
                                               part.domain.hi};
      Timer ti;
      staged.extend_with_let(part.let, bound);
      index_seconds += ti.seconds();
    }
  } else if (staged.valid() && part.local.size() > n_owned) {
    sim::Catalog halo;
    halo.reserve(part.local.size() - n_owned);
    for (std::size_t i = n_owned; i < part.local.size(); ++i)
      halo.push_back(part.local.position(i), part.local.w[i]);
    Timer ti;
    staged.extend_with_secondaries(halo);
    index_seconds += ti.seconds();
  }

  double engine_seconds = 0.0;
  core::ZetaResult local;
  if (cfg.overlap == OverlapMode::kTwoPass && staged.valid()) {
    comm.set_phase(Phase::kSecondaryPass);
    Timer tsec;
    core::EngineStats sec_stats;
    local = staged.run_secondary_pass(&sec_stats);
    secondary_pass_seconds = tsec.seconds();
    stats.pairs += sec_stats.pairs;  // owned + halo = the single-node total
    stats.bin_epilogues += sec_stats.bin_epilogues;
    stats.full_flushes += sec_stats.full_flushes;
    stats.partial_flushes += sec_stats.partial_flushes;
    engine_seconds = owned_pass_seconds + secondary_pass_seconds;
  } else {
    comm.set_phase(Phase::kOwnedPass);  // the fused owned+halo traversal
    Timer teng;
    local = staged.valid() ? staged.run_indexed(nullptr, &stats)
                           : engine.empty_result();
    engine_seconds = teng.seconds();
  }
  rep.pairs = stats.pairs;
  rep.index_build_seconds = index_seconds;
  rep.engine_seconds = engine_seconds;
  rep.secondary_pass_seconds = secondary_pass_seconds;

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

core::ZetaResult run_rank(Comm& comm, const sim::Catalog& mine,
                          const core::EngineConfig& engine_cfg,
                          RankReport* report) {
  DistRunConfig cfg;
  cfg.engine = engine_cfg;
  cfg.ranks = comm.size();
  return run_rank(comm, mine, cfg, report);
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
