// Figure 4 reproduction: single-node runtime breakdown.
//
// Paper: on one KNL node over 225,000 Outer Rim galaxies (R_max = 200),
// ~55 % of time in multipole accumulation, with the remainder split between
// k-d tree construction (incl. partitioning/halo), tree query, and the
// rest; §5.4 cross-checks 58-61 % per-node kernel fractions at full scale.
//
// Here: same density, laptop-scaled N and R_max, full-thread single "node".
// The leaf-blocked traversal's breakdown is printed like the figure's
// legend and emitted as machine-readable JSON (--json, default
// BENCH_fig4.json) for CI artifacts. tools/check_bench_regression.py gates
// it against bench/baselines/BENCH_fig4.{ci,soak}.json.
#include <cstdio>

#include "bench_util.hpp"
#include "core/kernel.hpp"
#include "math/rng.hpp"
#include "util/argparse.hpp"
#include "util/timer.hpp"

using namespace galactos;
using namespace galactos::bench;

namespace {

// Isolated bucket-kernel throughput at the engine's constants (one
// kBucketCapacity bucket, kKernelIlp streams) for whatever dispatch level
// is currently active — the per-ISA A/B rows of the JSON artifact.
double measure_kernel_gflops(int lmax) {
  constexpr int kBucket = core::kBucketCapacity;
  math::Rng rng(42);
  std::vector<double> ux(kBucket), uy(kBucket), uz(kBucket), w(kBucket);
  for (int i = 0; i < kBucket; ++i) {
    rng.unit_vector(ux[i], uy[i], uz[i]);
    w[i] = rng.uniform(0.5, 1.5);
  }
  std::vector<double> acc(
      static_cast<std::size_t>(math::basis_size(lmax)) * core::kLanes,
      0.0);
  auto run = [&](int iters) {
    for (int it = 0; it < iters; ++it)
      core::kernel_running_product(ux.data(), uy.data(), uz.data(), w.data(),
                                   kBucket, lmax, acc.data(),
                                   core::kKernelIlp);
  };
  run(2000);  // warmup
  int iters = 2000;
  double secs = 0.0;
  for (;;) {
    Timer t;
    run(iters);
    secs = t.seconds();
    if (secs >= 0.2) break;
    iters *= 4;
  }
  return core::kernel_flops_per_pair(lmax) * kBucket * iters / secs / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::size_t n = args.get<std::size_t>("n", 120000);
  const double rmax = args.get<double>("rmax", 24.0);
  const int threads = args.get<int>("threads", 0);
  const int lmax = args.get<int>("lmax", 10);
  const std::string json_path = args.get_str("json", "BENCH_fig4.json");
  // Kernel dispatch level for the engine runs (the A/B section below always
  // sweeps every level). Rejects unknown/unsupported values loudly.
  const std::string isa_req = args.get_str("isa", "auto");
  args.finish();
  core::set_kernel_isa(core::parse_kernel_isa(isa_req));

  print_header("Fig. 4 analog — single-node runtime breakdown");
  print_kv("galaxies", fmt(static_cast<double>(n), "%.0f"));
  print_kv("number density (Mpc/h)^-3", fmt(sim::kOuterRimDensity, "%.4f"));
  print_kv("R_max (Mpc/h)", fmt(rmax, "%.1f"));
  print_kv("expected pairs/primary", fmt(pairs_per_primary(rmax), "%.0f"));
  print_kv("lmax", fmt(lmax, "%.0f"));
  print_kv("kernel ISA", core::kernel_isa_name(core::kernel_isa()));

  const sim::Catalog cat = outer_rim_scaled(n, 1234);
  core::EngineConfig cfg = paper_engine_config(rmax, 10, threads);
  cfg.lmax = lmax;

  core::EngineStats stats;
  const core::ZetaResult res = core::Engine(cfg).run(cat, nullptr, &stats);
  std::printf("\nphase breakdown (wall-equivalent shares):\n%s\n",
              stats.phases.report().c_str());
  const double kern = stats.phases.get("multipole kernel");
  print_kv("multipole kernel share",
           fmt(100.0 * kern / stats.phases.total(), "%.1f%%"));
  print_kv("neighbor query share",
           fmt(100.0 * stats.phases.get("neighbor query") /
                   stats.phases.total(),
               "%.1f%%"));
  print_kv("pairs processed", fmt(static_cast<double>(stats.pairs), "%.3e"));
  print_kv("candidates / pairs",
           fmt(stats.pairs > 0 ? static_cast<double>(stats.candidates) /
                                     static_cast<double>(stats.pairs)
                               : 0.0,
               "%.3f"));
  print_kv("kernel GFLOP/s (paper acct.)",
           fmt(stats.kernel_flop_count / kern / 1e9, "%.2f"));
  print_kv("(primary, bin) epilogues",
           fmt(static_cast<double>(stats.bin_epilogues), "%.3e"));
  print_kv("bucket flushes full / partial",
           fmt(static_cast<double>(stats.full_flushes), "%.3e") + " / " +
               fmt(static_cast<double>(stats.partial_flushes), "%.3e"));
  print_kv("wall time (s)", fmt(stats.wall_seconds, "%.3f"));
  print_kv("primaries", fmt(static_cast<double>(res.n_primaries), "%.0f"));

  std::printf("\npaper single-node kernel share: 55%% (Fig. 4); 58-61%% at "
              "full scale\n");

  // Per-ISA bucket-kernel A/B: every compiled level, measured in isolation
  // at the paper kernel configuration. Unsupported levels get a row with
  // supported = false so downstream gates can skip-with-notice instead of
  // misreading absence.
  std::printf("\nkernel ISA A/B (bucket kernel, lmax=%d):\n", lmax);
  std::string ab = "[";
  for (core::KernelIsa isa : {core::KernelIsa::kScalar, core::KernelIsa::kAvx2,
                              core::KernelIsa::kAvx512}) {
    JsonObject row;
    row.add("isa", core::kernel_isa_name(isa));
    if (core::kernel_isa_supported(isa)) {
      core::set_kernel_isa(isa);
      const double gf = measure_kernel_gflops(lmax);
      row.add_raw("supported", "true").add("kernel_gflops", gf);
      print_kv(core::kernel_isa_name(isa), fmt(gf, "%.2f GF/s"));
    } else {
      row.add_raw("supported", "false");
      print_kv(core::kernel_isa_name(isa), "not supported on this host");
    }
    ab += (ab.size() > 1 ? ",\n      " : "") + row.str(6);
  }
  ab += "]";
  core::set_kernel_isa(core::parse_kernel_isa(isa_req));

  if (!json_path.empty()) {
    JsonObject config;
    config.add("n", static_cast<std::uint64_t>(n))
        .add("rmax", rmax)
        .add("lmax", lmax)
        .add("nbins", cfg.bins.count())
        // The count the engine resolved (--threads 0 means all cores).
        .add("threads",
             static_cast<std::uint64_t>(stats.pairs_per_thread.size()))
        .add("precision", "mixed")
        .add("index", "kdtree")
        .add("kernel_isa", core::kernel_isa_name(core::kernel_isa()));
    // Phase split plus the per-primary epilogue counters: every touched
    // (primary, bin) pays one fused lane reduction and one bin of a_lm,
    // whatever its pair count.
    // query_share is the neighbor query's fraction of the phase total: a
    // uniformly faster or slower host leaves it unchanged.
    JsonObject leaf_blocked = phases_json(stats);
    leaf_blocked
        .add("query_share", stats.phases.total() > 0
                                ? stats.phases.get("neighbor query") /
                                      stats.phases.total()
                                : 0.0)
        .add("bin_epilogues", stats.bin_epilogues)
        .add("pairs_per_epilogue",
             stats.bin_epilogues > 0
                 ? static_cast<double>(stats.pairs) /
                       static_cast<double>(stats.bin_epilogues)
                 : 0.0)
        .add("full_flushes", stats.full_flushes)
        .add("partial_flushes", stats.partial_flushes);
    JsonObject root;
    root.add("bench", "fig4_breakdown")
        .add_raw("config", config.str(2))
        .add_raw("leaf_blocked", leaf_blocked.str(2))
        .add_raw("kernel_isa_ab", ab);
    write_json_file(json_path, root.str());
  }
  return 0;
}
