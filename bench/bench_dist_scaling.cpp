// Distributed pipeline scaling bench (paper §3.2 / Fig. 7 story):
//
// Section 1 — rank scaling on a CLUSTERED catalog (a dominant clump plus a
// uniform background, the geometry where pair imbalance bites): per-rank
// pairs, pipeline phase seconds (partition / halo wait / index build /
// traversal / reduce) and the max/mean pair imbalance for BOTH partition
// policies over 1..max-ranks — kPairWeighted must sit below
// kPrimaryBalanced.
//
// Section 2 — halo hiding: the two-pass pipeline (the halo hides behind
// the owned index build AND the traversal of the interior leaves, with the
// boundary leaves in a second pass) on 2 ranks with a skewed initial
// scatter (realistic ingest skew, so one rank genuinely lags). Reports the
// median rank critical path (halo wait + index build + traversal) plus the
// blocked-vs-hidden halo seconds over many repeats. On a single-core host
// the rank threads time-share one CPU; multi-core hosts — e.g. the CI
// runners that upload this JSON — hide the halo wait itself.
//
// Emits BENCH_dist.json (--json) for the CI artifact trail, like
// BENCH_fig4.json. Every ratio a gate reads is emitted here, not derived
// by the gate: elapsed_vs_1rank per run, ratio per halo policy and
// hidden_fraction of the two-pass run. tools/check_bench_regression.py
// compares such a file with bench/baselines/BENCH_dist.{ci,soak}.json
// under the gates those baselines declare.
//
// Backend-agnostic: launched directly the ranks are minimpi threads;
// launched under `mpirun -np P` (GALACTOS_WITH_MPI build) the same
// sections run over real MPI ranks — rank counts are clamped to the world
// size, sweeps below it run on leading sub-communicators, and only world
// rank 0 prints/writes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <omp.h>

#include "bench_util.hpp"
#include "dist/runner.hpp"
#include "util/argparse.hpp"

using namespace galactos;
using namespace galactos::bench;

namespace {

// Half the galaxies in a corner clump covering 1/512 of the volume — the
// regime where primary-balanced cuts produce strong pair imbalance.
// Coordinates are snapped to float32-representable values (the precision
// real survey catalogs are published at): the engine runs kMixed anyway,
// and it makes the LET f32 wire format bit-lossless on this catalog, so
// the halo-compression A/B compares identical results, not quantization
// noise.
sim::Catalog clustered_catalog(std::size_t n, double side) {
  sim::Catalog cat = sim::uniform_box(
      n / 2, sim::Aabb{{0, 0, 0}, {side / 8, side / 8, side / 8}}, 404);
  cat.append(sim::uniform_box(n - n / 2, sim::Aabb::cube(side), 405));
  for (double* plane : {cat.x.data(), cat.y.data(), cat.z.data()})
    for (std::size_t i = 0; i < cat.size(); ++i)
      plane[i] = static_cast<double>(static_cast<float>(plane[i]));
  return cat;
}

struct RunSummary {
  int ranks = 0;
  std::string policy;
  double elapsed_seconds = 0;
  // elapsed / elapsed of the 1-rank run under the same policy: the scaling
  // shape, which a uniformly faster or slower host leaves unchanged.
  double elapsed_vs_1rank = 0;
  double pair_imbalance = 0;
  double halo_max_seconds = 0;
  double halo_hidden_max_seconds = 0;
  double index_build_max_seconds = 0;
  double reduce_max_seconds = 0;
  std::vector<dist::RankReport> reports;
};

RunSummary run_once(const dist::Session& session, const sim::Catalog& cat,
                    const core::EngineConfig& ecfg, int ranks,
                    dist::PartitionPolicy policy) {
  dist::DistRunConfig dcfg;
  dcfg.engine = ecfg;
  dcfg.ranks = ranks;
  dcfg.partition = policy;

  RunSummary s;
  s.ranks = ranks;
  s.policy = policy == dist::PartitionPolicy::kPairWeighted
                 ? "pair_weighted"
                 : "primary_balanced";

  Timer t;
  (void)dist::run_distributed(session, cat, dcfg, &s.reports);
  s.elapsed_seconds = t.seconds();

  for (const auto& r : s.reports) {
    s.pair_imbalance = r.pair_imbalance;  // identical on every rank
    s.halo_max_seconds = std::max(s.halo_max_seconds, r.halo_seconds);
    s.halo_hidden_max_seconds =
        std::max(s.halo_hidden_max_seconds, r.halo_hidden_seconds);
    s.index_build_max_seconds =
        std::max(s.index_build_max_seconds, r.index_build_seconds);
    s.reduce_max_seconds = std::max(s.reduce_max_seconds, r.reduce_seconds);
  }
  return s;
}

JsonObject summary_json(const RunSummary& s) {
  JsonObject o;
  o.add("ranks", s.ranks)
      .add("policy", s.policy)
      .add("overlap_mode", "two_pass")
      .add("elapsed_seconds", s.elapsed_seconds)
      .add("elapsed_vs_1rank", s.elapsed_vs_1rank)
      .add("pair_imbalance", s.pair_imbalance)
      .add("halo_max_seconds", s.halo_max_seconds)
      .add("halo_hidden_max_seconds", s.halo_hidden_max_seconds)
      .add("index_build_max_seconds", s.index_build_max_seconds)
      .add("reduce_max_seconds", s.reduce_max_seconds);
  std::string pairs = "[", part = "[", halo = "[", hidden = "[", build = "[",
              engine = "[", reduce = "[";
  for (std::size_t i = 0; i < s.reports.size(); ++i) {
    const auto& r = s.reports[i];
    const char* sep = i ? ", " : "";
    pairs += sep + std::to_string(r.pairs);
    part += sep + fmt(r.partition_seconds, "%.6f");
    halo += sep + fmt(r.halo_seconds, "%.6f");
    hidden += sep + fmt(r.halo_hidden_seconds, "%.6f");
    build += sep + fmt(r.index_build_seconds, "%.6f");
    engine += sep + fmt(r.engine_seconds, "%.6f");
    reduce += sep + fmt(r.reduce_seconds, "%.6f");
  }
  o.add_raw("per_rank_pairs", pairs + "]")
      .add_raw("per_rank_partition_seconds", part + "]")
      .add_raw("per_rank_halo_seconds", halo + "]")
      .add_raw("per_rank_halo_hidden_seconds", hidden + "]")
      .add_raw("per_rank_index_build_seconds", build + "]")
      .add_raw("per_rank_engine_seconds", engine + "]")
      .add_raw("per_rank_reduce_seconds", reduce + "]");
  return o;
}

// The LET exchange at one (ranks, policy) point, against what a flat
// (x, y, z, w) f64 point shower of the same R_max shell would have sent —
// 32 B per shipped point, since the LET ships exactly that shell — plus
// the worst relative zeta deviation from the single-node engine. The LET
// ships float32 coordinate planes, lossless here because the engine runs
// TreePrecision::kMixed, whose stored coordinate planes are float either
// way.
struct HaloCompression {
  int ranks = 0;
  std::string policy;
  std::uint64_t full_shell_bytes = 0;  // 32 B x let_points_shipped
  std::uint64_t let_bytes = 0;
  std::uint64_t let_points_shipped = 0;
  std::uint64_t let_cells_sent = 0;
  std::uint64_t let_cells_pruned = 0;
  double ratio = 0;               // let_bytes / full_shell_bytes
  // Worst payload deviation normalized by the payload's max magnitude:
  // max_i |a_i - b_i| / ||a||_inf. The ranks and the single node sum the
  // identical pairs in different orders, with float-rounded separations
  // under kMixed: that round-off lands at ~1e-13; a single flipped pair in
  // any bin shows at ~1e-7 — so the 1e-10 gate separates the two regimes
  // by three decades either way. A raw elementwise relative diff would
  // explode on near-zero zeta elements and gate nothing but cancellation
  // noise.
  double zeta_max_rel_diff = 0;
};

constexpr std::uint64_t kFlatShellBytesPerPoint = 4 * sizeof(double);

HaloCompression halo_compression(const dist::Session& session,
                                 const sim::Catalog& cat,
                                 const core::EngineConfig& ecfg,
                                 const core::ZetaResult& single, int ranks,
                                 dist::PartitionPolicy policy) {
  dist::DistRunConfig cfg;
  cfg.engine = ecfg;
  cfg.ranks = ranks;
  cfg.partition = policy;
  cfg.halo.let_f32 = true;

  std::vector<dist::RankReport> reports;
  const core::ZetaResult res =
      dist::run_distributed(session, cat, cfg, &reports);

  HaloCompression h;
  h.ranks = ranks;
  h.policy = policy == dist::PartitionPolicy::kPairWeighted
                 ? "pair_weighted"
                 : "primary_balanced";
  for (const auto& r : reports) {
    h.let_bytes += r.halo_bytes_sent;
    h.let_points_shipped += r.halo_points_shipped;
    h.let_cells_sent += r.let_cells_sent;
    h.let_cells_pruned += r.let_cells_pruned;
  }
  h.full_shell_bytes = kFlatShellBytesPerPoint * h.let_points_shipped;
  h.ratio = h.full_shell_bytes
                ? static_cast<double>(h.let_bytes) /
                      static_cast<double>(h.full_shell_bytes)
                : 0.0;
  const std::vector<double> pa = single.reduce_payload();
  const std::vector<double> pb = res.reduce_payload();
  double norm = 0.0;
  for (double v : pa) norm = std::max(norm, std::abs(v));
  if (norm > 0.0)
    for (std::size_t i = 0; i < pa.size() && i < pb.size(); ++i)
      h.zeta_max_rel_diff =
          std::max(h.zeta_max_rel_diff, std::abs(pa[i] - pb[i]) / norm);
  return h;
}

struct AbSample {
  double critical_path = 0;   // max over ranks: halo + build + traversal
  double halo_blocked = 0;    // max over ranks: blocked halo wait
  double halo_hidden = 0;     // max over ranks: in-flight window worked
};

// One measurement through the production run_rank pipeline: 2 ranks,
// rank 0 seeded with 95% of the catalog (skewed ingest). The traversal is
// part of the critical path on purpose — the two-pass pipeline's whole
// point is moving it inside the halo's in-flight window. All three maxima
// are comm-reduced, so the values are valid on whatever rank 0 is (thread
// 0 or world root).
AbSample pipeline_critical_path(const dist::Session& session,
                                const sim::Catalog& cat,
                                const core::EngineConfig& ecfg) {
  constexpr int kTagAbCrit = 901;
  dist::DistRunConfig dcfg;
  dcfg.engine = ecfg;
  dcfg.ranks = 2;
  const std::size_t cutoff = cat.size() * 19 / 20;  // 95% / 5% scatter

  AbSample out;
  session.run(2, [&](dist::Comm& comm) {
    sim::Catalog mine;
    for (std::size_t i = 0; i < cat.size(); ++i)
      if ((i < cutoff) == (comm.rank() == 0))
        mine.push_back(cat.position(i), cat.w[i]);
    dist::RankReport rep;
    (void)dist::run_rank(comm, mine, dcfg, &rep);
    const double crit = comm.allreduce_max_value(
        rep.halo_seconds + rep.index_build_seconds + rep.engine_seconds,
        kTagAbCrit);
    const double blocked =
        comm.allreduce_max_value(rep.halo_seconds, kTagAbCrit + 1);
    const double hidden =
        comm.allreduce_max_value(rep.halo_hidden_seconds, kTagAbCrit + 2);
    if (comm.rank() == 0) {
      out.critical_path = crit;
      out.halo_blocked = blocked;
      out.halo_hidden = hidden;
    }
  });
  return out;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  dist::Session session = dist::init(&argc, &argv);
  ArgParser args(argc, argv);
  const std::size_t n = args.get<std::size_t>("n", 40000);
  const double rmax = args.get<double>("rmax", 12.0);
  const double side = args.get<double>("side", 220.0);
  const int lmax = args.get<int>("lmax", 5);
  int max_ranks = args.get<int>("max-ranks", 16);
  const std::size_t ab_n = args.get<std::size_t>("ab-n", 200000);
  const int ab_repeats = std::max(1, args.get<int>("ab-repeats", 9));
  // lmax for the section 2 catalog: > 0 so the traversal carries real
  // weight — what the two-pass pipeline hides the halo behind — yet small
  // enough that the partition/halo phases stay visible next to it.
  const int ab_lmax = args.get<int>("ab-lmax", 3);
  const std::string json_path = args.get_str("json", "BENCH_dist.json");
  args.finish();

  const bool root = session.is_root();
  const bool mpi = session.backend() == dist::Backend::kMpi;
  // The cores this process may run on: omp_get_num_procs() honours the
  // CPU affinity mask (taskset), which hardware_concurrency() ignores.
  const int cores = omp_get_num_procs();
  if (mpi) max_ranks = std::min(max_ranks, session.size());

  if (root) {
    print_header("Distributed pipeline scaling (clustered catalog)");
    print_kv("backend", dist::backend_name(session.backend()));
    if (mpi) print_kv("MPI world", fmt(session.size(), "%.0f"));
    print_kv("galaxies", fmt(static_cast<double>(n), "%.0f"));
    print_kv("R_max (Mpc/h)", fmt(rmax, "%.1f"));
    print_kv("lmax", fmt(lmax, "%.0f"));
    print_kv("hardware threads",
             fmt(static_cast<double>(cores), "%.0f"));
    print_kv("paper reference",
             "primaries balance to 0.1%, pairs diverge up to 60% (Fig. 7)");
  }

  const sim::Catalog cat = clustered_catalog(n, side);

  core::EngineConfig ecfg;
  ecfg.bins = core::RadialBins(rmax / 10, rmax, 10);
  ecfg.lmax = lmax;
  ecfg.threads = 1;  // one engine thread per rank: ranks scale, not OpenMP
  ecfg.tree.precision = core::TreePrecision::kMixed;

  // --- Section 1: rank scaling, both policies ----------------------------
  std::vector<RunSummary> results;
  Table t({"# ranks", "policy", "time (s)", "pair imbalance",
           "halo max (ms)", "build max (ms)", "reduce max (ms)"});
  for (int ranks = 1; ranks <= max_ranks; ranks *= 2) {
    for (auto policy : {dist::PartitionPolicy::kPrimaryBalanced,
                        dist::PartitionPolicy::kPairWeighted}) {
      RunSummary s = run_once(session, cat, ecfg, ranks, policy);
      t.add_row({fmt(ranks, "%.0f"), s.policy, fmt(s.elapsed_seconds, "%.3f"),
                 fmt(s.pair_imbalance, "%.3f"),
                 fmt(1e3 * s.halo_max_seconds, "%.2f"),
                 fmt(1e3 * s.index_build_max_seconds, "%.2f"),
                 fmt(1e3 * s.reduce_max_seconds, "%.2f")});
      results.push_back(std::move(s));
    }
  }
  for (RunSummary& s : results)
    for (const RunSummary& one : results)
      if (one.ranks == 1 && one.policy == s.policy && one.elapsed_seconds > 0)
        s.elapsed_vs_1rank = s.elapsed_seconds / one.elapsed_seconds;
  if (root) {
    std::printf("\n");
    t.print();
  }

  const RunSummary* bal = nullptr;
  const RunSummary* wgt = nullptr;
  for (const auto& s : results)
    if (s.ranks == results.back().ranks) {
      if (s.policy == "primary_balanced") bal = &s;
      if (s.policy == "pair_weighted") wgt = &s;
    }
  if (root && bal && wgt) {
    std::printf("\n");
    print_kv("pair imbalance, primary-balanced", fmt(bal->pair_imbalance));
    print_kv("pair imbalance, pair-weighted", fmt(wgt->pair_imbalance));
  }

  // --- Section 1b: halo compression — LET vs a flat shell at max ranks ---
  // The comm-volume claim this repo gates: the pruned LET exchange (f32
  // coord planes, safe at kMixed) must move at most half the bytes of a
  // flat f64 shower of the same shell at the widest decomposition, with
  // zeta inside the distributed 1e-10 gate of the single-node engine.
  std::vector<HaloCompression> halo_results;
  if (max_ranks >= 2) {
    const core::ZetaResult single = core::Engine(ecfg).run(cat);
    for (auto policy : {dist::PartitionPolicy::kPrimaryBalanced,
                        dist::PartitionPolicy::kPairWeighted})
      halo_results.push_back(
          halo_compression(session, cat, ecfg, single, max_ranks, policy));
    if (root) {
      print_header("Halo compression — LET vs flat full shell");
      Table ht({"policy", "full-shell (B)", "LET (B)", "ratio",
                "points shipped", "cells pruned", "zeta rel diff"});
      for (const auto& h : halo_results)
        ht.add_row({h.policy,
                    fmt(static_cast<double>(h.full_shell_bytes), "%.0f"),
                    fmt(static_cast<double>(h.let_bytes), "%.0f"),
                    fmt(h.ratio, "%.3f"),
                    fmt(static_cast<double>(h.let_points_shipped), "%.0f"),
                    fmt(static_cast<double>(h.let_cells_pruned), "%.0f"),
                    fmt(h.zeta_max_rel_diff, "%.2e")});
      std::printf("\n");
      ht.print();
    }
  }

  // --- Section 2: halo hiding of the two-pass pipeline -------------------
  // Needs 2 ranks; an mpirun -np 1 world cannot host it.
  const bool run_ab = !mpi || session.size() >= 2;
  double ab_crit = 0, ab_blocked = 0, ab_hidden = 0;  // medians
  if (run_ab) {
    if (root) {
      print_header("Pipeline — two-pass halo hiding");
      print_kv("galaxies", fmt(static_cast<double>(ab_n), "%.0f"));
      print_kv("ranks", "2 (95%/5% skewed scatter)");
      print_kv("lmax", fmt(ab_lmax, "%.0f"));
      print_kv("repeats (median)", fmt(ab_repeats, "%.0f"));
    }

    const sim::Catalog ab_cat = clustered_catalog(ab_n, 260.0);
    core::EngineConfig ab_cfg = ecfg;
    ab_cfg.lmax = ab_lmax;

    std::vector<double> crit, blocked, hidden;
    for (int rep = 0; rep < ab_repeats; ++rep) {
      const AbSample s = pipeline_critical_path(session, ab_cat, ab_cfg);
      crit.push_back(s.critical_path);
      blocked.push_back(s.halo_blocked);
      hidden.push_back(s.halo_hidden);
    }
    ab_crit = median(crit);
    ab_blocked = median(blocked);
    ab_hidden = median(hidden);
    if (root) {
      const double denom = ab_blocked + ab_hidden;
      Table abt({"overlap mode", "critical path (ms)", "halo blocked (ms)",
                 "halo hidden (ms)", "hidden fraction"});
      abt.add_row({"two_pass", fmt(1e3 * ab_crit, "%.2f"),
                   fmt(1e3 * ab_blocked, "%.2f"), fmt(1e3 * ab_hidden, "%.2f"),
                   denom > 0 ? fmt(ab_hidden / denom, "%.3f") : "—"});
      std::printf("\n");
      abt.print();
    }
    // The JSON `note` alone is easy to miss when eyeballing the table, so
    // repeat the single-core caveat on stderr where the run log shows it.
    if (root && cores < 2)
      std::fprintf(stderr,
                   "note: single-core host: rank threads time-share one CPU; "
                   "the overlap hides halo wait only with >= 2 cores (see "
                   "the CI artifact)\n");
  } else if (root) {
    print_kv("pipeline", "skipped (MPI world of 1)");
  }

  if (root && !json_path.empty()) {
    JsonObject config;
    config.add("n", static_cast<std::uint64_t>(n))
        .add("rmax", rmax)
        .add("side", side)
        .add("lmax", lmax)
        .add("max_ranks", max_ranks)
        .add("overlap_mode", "two_pass")
        .add("ab_n", static_cast<std::uint64_t>(ab_n))
        .add("ab_repeats", ab_repeats)
        .add("ab_lmax", ab_lmax)
        .add("backend", std::string(dist::backend_name(session.backend())))
        .add("world_size", session.size())
        .add("hardware_threads",
             static_cast<std::uint64_t>(cores))
        .add("catalog",
             std::string("half-in-corner-clump clustered, f32-snapped"));
    std::string runs = "[";
    for (std::size_t i = 0; i < results.size(); ++i)
      runs += (i ? ",\n    " : "\n    ") + summary_json(results[i]).str(4);
    runs += "\n  ]";
    JsonObject doc;
    doc.add_raw("config", config.str(2)).add_raw("runs", runs);
    if (!halo_results.empty()) {
      JsonObject hc;
      hc.add("ranks", halo_results.front().ranks);
      hc.add_raw("let_f32", "true");
      std::string pols = "[";
      for (std::size_t i = 0; i < halo_results.size(); ++i) {
        const HaloCompression& h = halo_results[i];
        JsonObject ho;
        ho.add("policy", h.policy)
            .add("full_shell_bytes", h.full_shell_bytes)
            .add("let_bytes", h.let_bytes)
            .add("ratio", h.ratio)
            .add("let_points_shipped", h.let_points_shipped)
            .add("let_cells_sent", h.let_cells_sent)
            .add("let_cells_pruned", h.let_cells_pruned)
            .add("zeta_max_rel_diff", h.zeta_max_rel_diff);
        pols += (i ? ",\n      " : "\n      ") + ho.str(6);
      }
      pols += "\n    ]";
      hc.add_raw("policies", pols);
      doc.add_raw("halo_compression", hc.str(2));
    }
    if (run_ab) {
      JsonObject ab, mo;
      ab.add("ranks", 2);
      const double denom = ab_blocked + ab_hidden;
      mo.add("overlap_mode", "two_pass")
          .add("critical_path_seconds", ab_crit)
          .add("halo_blocked_seconds", ab_blocked)
          .add("halo_hidden_seconds", ab_hidden)
          .add("hidden_fraction", denom > 0 ? ab_hidden / denom : 0.0);
      ab.add_raw("modes", "[\n      " + mo.str(6) + "\n    ]");
      if (cores < 2)
        ab.add("note",
               std::string("single-core host: rank threads time-share one "
                           "CPU; the overlap hides halo wait only with >= 2 "
                           "cores (see the CI artifact)"));
      doc.add_raw("pipeline_ab", ab.str(2));
    }
    write_json_file(json_path, doc.str());
  }
  return 0;
}
