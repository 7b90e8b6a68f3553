// Measuring program of the benchmark suite (see README.md).
//
//   perfsuite gen --workload W --seed S --dir D [--smoke]
//   perfsuite run --workload W --dir D --seconds T [--trace FILE] [--smoke]
//
// `gen` writes a workload's catalogs (and the small oracle catalog) as binary
// files. `run` receives only those files: it times the library's public entry
// points from outside (io::read_catalog_binary, Engine::build_index(Catalog&&),
// Staged::run_indexed, dist::run_distributed, core::kernel_running_product),
// reads EngineStats / RankReport where no outside boundary exists, checks the
// outputs against an independent reference, and prints one JSON object of raw
// per-computation samples on stdout. run_benchmark.py turns the samples into
// medians and quartiles.
//
// Load model: closed loop, one client, one computation at a time, on every
// core the process may use (omp_get_num_procs) and never more threads.
#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "baseline/brute3pcf.hpp"
#include "bench_util.hpp"
#include "core/engine.hpp"
#include "core/kernel.hpp"
#include "dist/runner.hpp"
#include "io/catalog_io.hpp"
#include "math/rng.hpp"
#include "util/argparse.hpp"
#include "util/timer.hpp"

using namespace galactos;
using bench::JsonObject;

namespace {

// ---------------------------------------------------------------------------
// Workloads. Sizes are chosen so one run measures many computations inside
// its time budget; README.md records why each workload exists.

enum class Shape { kUniform, kClustered, kLevy };

struct Workload {
  std::string name;
  Shape shape = Shape::kUniform;
  std::size_t n = 0;   // galaxies per catalog
  int catalogs = 1;    // distinct catalogs, computed in turn
  double rmax = 0.0;
  int lmax = 0;
  int ranks = 0;       // > 0: dist::run_distributed on this many ranks
};

constexpr double kOuterRimDensity = 0.0725;  // galaxies per (Mpc/h)^3
constexpr int kBins = 10;
constexpr std::size_t kOracleGalaxies = 2000;

Workload find_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "uniform-l10" || name == "uniform-l2") {
    w.shape = Shape::kUniform;
    w.n = smoke ? 3000 : 72000;  // 2.3 MB of catalog: more than a 2 MiB L2
    w.rmax = smoke ? 12.0 : 24.0;
    w.lmax = name == "uniform-l10" ? 10 : 2;
  } else if (name == "clustered-4rank") {
    w.shape = Shape::kClustered;
    w.n = smoke ? 4000 : 20000;
    w.rmax = smoke ? 6.0 : 12.0;
    w.lmax = 5;
    w.ranks = 4;
  } else if (name == "mock-batch") {
    w.shape = Shape::kLevy;
    w.n = smoke ? 1000 : 4000;
    w.catalogs = smoke ? 2 : 32;
    w.rmax = 12.0;
    w.lmax = 10;
  } else {
    GLX_CHECK_MSG(false, "unknown workload '"
                             << name
                             << "' (uniform-l10|uniform-l2|clustered-4rank|"
                                "mock-batch)");
  }
  return w;
}

// Box side at the Outer Rim number density; the clustered box is side 317 at
// 120,000 galaxies, scaled to n at fixed density.
double box_side(const Workload& w, std::size_t n) {
  if (w.shape == Shape::kClustered)
    return 317.0 * std::cbrt(static_cast<double>(n) / 120000.0);
  return std::cbrt(static_cast<double>(n) / kOuterRimDensity);
}

// splitmix64: the suite owns its generator so the inputs of a seed never
// change with the library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed * 0x100000001b3ull + stream).next();
}

sim::Catalog generate(const Workload& w, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const double side = box_side(w, n);
  sim::Catalog c;
  c.reserve(n);
  switch (w.shape) {
    case Shape::kUniform:
      for (std::size_t i = 0; i < n; ++i)
        c.push_back(side * rng.uniform(), side * rng.uniform(),
                    side * rng.uniform());
      break;
    case Shape::kClustered:
      // Half the galaxies in a corner clump of 1/512 of the volume.
      for (std::size_t i = 0; i < n; ++i) {
        const double s = i < n / 2 ? side / 8 : side;
        c.push_back(s * rng.uniform(), s * rng.uniform(), s * rng.uniform());
      }
      break;
    case Shape::kLevy: {
      // Rayleigh–Lévy flight (P(step > r) = (r/r0)^-1.5), wrapped into the
      // periodic box. Short chains keep the per-catalog pair count close to
      // its mean, so the batch median does not hinge on a few dense chains.
      constexpr std::size_t kChain = 40;
      constexpr double kR0 = 1.0, kAlpha = 1.5;
      auto wrap = [side](double v) {
        v = std::fmod(v, side);
        return v < 0 ? v + side : v;
      };
      double x = 0, y = 0, z = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (i % kChain == 0) {
          x = side * rng.uniform();
          y = side * rng.uniform();
          z = side * rng.uniform();
        } else {
          const double step =
              kR0 * std::pow(1.0 - rng.uniform(), -1.0 / kAlpha);
          const double cz = 2.0 * rng.uniform() - 1.0;
          const double phi = 2.0 * M_PI * rng.uniform();
          const double sz = std::sqrt(1.0 - cz * cz);
          x = wrap(x + step * sz * std::cos(phi));
          y = wrap(y + step * sz * std::sin(phi));
          z = wrap(z + step * cz);
        }
        c.push_back(x, y, z);
      }
      break;
    }
  }
  return c;
}

std::string catalog_path(const std::string& dir, int i) {
  return dir + "/catalog_" + std::to_string(i) + ".bin";
}
std::string oracle_path(const std::string& dir) { return dir + "/oracle.bin"; }

core::EngineConfig engine_config(const Workload& w, int threads) {
  core::EngineConfig cfg;
  cfg.bins = core::RadialBins(w.rmax / kBins, w.rmax, kBins);
  cfg.lmax = w.lmax;
  cfg.threads = threads;
  cfg.tree.precision = core::TreePrecision::kMixed;  // paper's fast mode
  return cfg;
}

// ---------------------------------------------------------------------------
// Measurement helpers.

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Resident-memory high-water mark (VmHWM). reset_peak_rss() lowers it to the
// current resident size, so the mark read after a computation is that
// computation's own peak (where /proc refuses the reset, the mark stays the
// process-lifetime peak).
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  GLX_CHECK_MSG(false, "no VmHWM in /proc/self/status");
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + num(v[i]);
  return s + "]";
}

// Spans recorded from outside around calls into each layer, kept in memory
// and written once at exit as Chrome trace-event JSON (Perfetto,
// chrome://tracing). A span carries its id, its parent's id and the run_id
// shared by the spans of one computation; program counters go in `args`.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  // Seconds since the tracer was created (the trace's time origin).
  double now() const { return clock_.seconds(); }

  int add(const std::string& name, double t0, double t1, int parent,
          int run_id, const JsonObject& args = JsonObject()) {
    if (!on_) return 0;
    const int id = static_cast<int>(spans_.size()) + 1;
    JsonObject a = args;
    a.add("id", id).add("parent", parent).add("run_id", run_id);
    spans_.push_back({name, t0, t1, a.str()});
    return id;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << num(s.t0 * 1e6)
          << ",\"dur\":" << num((s.t1 - s.t0) * 1e6) << ",\"args\":" << s.args
          << "}";
    }
    out << "\n]}\n";
    GLX_CHECK_MSG(out.good(), "cannot write trace " << path);
  }

 private:
  struct Span {
    std::string name;
    double t0, t1;
    std::string args;
  };
  bool on_;
  Timer clock_;
  std::vector<Span> spans_;
};

// Per-computation samples, one vector per quantity (same length each).
using Samples = std::map<std::string, std::vector<double>>;

// Records the engine-layer split of one traversal: query / kernel / zeta /
// merge as EngineStats reports them, and the remainder of the outside-timed
// traversal as unattributed.
void add_engine_sample(Samples& s, const core::EngineStats& st,
                       double traverse_s, int lmax) {
  const double query = st.phases.get("neighbor query");
  const double kernel = st.phases.get("multipole kernel");
  const double zeta = st.phases.get("alm+zeta");
  const double merge = st.phases.get("imbalance+merge");
  s["traverse_s"].push_back(traverse_s);
  s["query_s"].push_back(query);
  s["kernel_s"].push_back(kernel);
  s["zeta_s"].push_back(zeta);
  s["merge_s"].push_back(merge);
  s["unattributed_s"].push_back(traverse_s - (query + kernel + zeta + merge));
  s["candidates"].push_back(static_cast<double>(st.candidates));
  s["kernel_gflops"].push_back(
      kernel > 0 ? static_cast<double>(st.pairs) *
                       core::kernel_flops_per_pair(lmax) / kernel / 1e9
                 : 0.0);
}

// Isolated single-thread bucket kernel at the active ISA and the workload's
// lmax (bucket 128, ilp 4 — the engine's defaults): the ceiling the engine's
// kernel rate is compared with. The same measurement as the per-ISA rows of
// bench_fig4_breakdown, so the two report one ceiling.
double measure_kernel_gflops(int lmax) {
  constexpr int kBucket = 128;
  math::Rng rng(42);
  std::vector<double> ux(kBucket), uy(kBucket), uz(kBucket), w(kBucket);
  for (int i = 0; i < kBucket; ++i) {
    rng.unit_vector(ux[i], uy[i], uz[i]);
    w[i] = rng.uniform(0.5, 1.5);
  }
  std::vector<double> acc(
      static_cast<std::size_t>(math::monomial_count(lmax)) * core::kLanes,
      0.0);
  auto run = [&](int iters) {
    for (int it = 0; it < iters; ++it)
      core::kernel_running_product(ux.data(), uy.data(), uz.data(), w.data(),
                                   kBucket, lmax, acc.data(), 4);
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

// max_i |a_i - b_i| / max_i |a_i| over the additive result payload: ~1e-15
// for summation-order round-off, ~1e-7 for a single misplaced pair.
double payload_rel_diff(const core::ZetaResult& a, const core::ZetaResult& b) {
  const std::vector<double> pa = a.reduce_payload(), pb = b.reduce_payload();
  GLX_CHECK(pa.size() == pb.size());
  double amax = 0.0, dmax = 0.0;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    amax = std::max(amax, std::abs(pa[i]));
    dmax = std::max(dmax, std::abs(pa[i] - pb[i]));
  }
  return amax > 0 ? dmax / amax : dmax;
}

// ---------------------------------------------------------------------------

int cmd_gen(ArgParser& args) {
  const Workload w =
      find_workload(args.get_str("workload", ""), args.flag("smoke"));
  const auto seed = args.get<std::uint64_t>("seed", 1234);
  const std::string dir = args.get_str("dir", "");
  args.finish();
  GLX_CHECK_MSG(!dir.empty(), "gen: --dir is required");
  for (int i = 0; i < w.catalogs; ++i)
    io::write_catalog_binary(generate(w, w.n, stream_seed(seed, i)),
                             catalog_path(dir, i));
  // The single-node reference slice: same generator and density, small
  // enough for O(N^2) direct summation.
  if (w.ranks == 0)
    io::write_catalog_binary(
        generate(w, kOracleGalaxies, stream_seed(seed, 1u << 20)),
        oracle_path(dir));
  return 0;
}

int cmd_run(ArgParser& args) {
  const bool smoke = args.flag("smoke");
  const Workload w = find_workload(args.get_str("workload", ""), smoke);
  const std::string dir = args.get_str("dir", "");
  const double seconds = args.get<double>("seconds", 10.0);
  const std::string trace_path = args.get_str("trace", "");
  args.finish();
  GLX_CHECK_MSG(!dir.empty(), "run: --dir is required");

  Tracer tracer(!trace_path.empty());
  const int threads = omp_get_num_procs();
  const int ranks = std::min(w.ranks, threads);  // never more threads than
                                                 // cores
  const bool distributed = w.ranks > 0;
  const core::EngineConfig cfg = engine_config(w, distributed ? 1 : threads);
  const core::Engine engine(cfg);

  std::vector<std::string> paths;
  for (int i = 0; i < w.catalogs; ++i) paths.push_back(catalog_path(dir, i));

  Samples s;
  std::vector<double> traced_wall, plain_wall;
  std::vector<std::uint64_t> expected_pairs(paths.size(), 0);
  std::uint64_t attempted = 0, failed = 0;
  // Smallest per-computation resident peak: the glibc arenas that rank
  // threads inherit from earlier calls make single peaks bimodal.
  double min_peak_rss = 1e300;
  core::ZetaResult last_result;

  // One computation, catalog file to zeta. Returns the result's n_pairs.
  auto compute = [&](int cat_index, int run_id, bool record, bool spans) {
    const std::string& path = paths[static_cast<std::size_t>(cat_index)];
    reset_peak_rss();
    const double cpu0 = cpu_seconds();
    const double t0 = tracer.now();
    sim::Catalog cat = io::read_catalog_binary(path);
    const double t_read = tracer.now();
    const double galaxies = static_cast<double>(cat.size());
    const double bytes = galaxies * 4 * sizeof(double);  // x, y, z, w
    core::ZetaResult res;
    double setup = 0.0;
    if (!distributed) {
      core::Engine::Staged staged = engine.build_index(std::move(cat));
      const double t_built = tracer.now();
      core::EngineStats st;
      res = staged.run_indexed(nullptr, &st);
      const double t1 = tracer.now();
      setup = t_built - t0;
      if (record) {
        add_engine_sample(s, st, t1 - t_built, w.lmax);
        s["build_s"].push_back(t_built - t_read);
      }
      if (spans) {
        const int root = tracer.add("compute", t0, t1, 0, run_id,
                                    JsonObject().add("catalog", cat_index));
        tracer.add("io.read", t0, t_read, root, run_id,
                   JsonObject().add("bytes", bytes));
        tracer.add("index.build", t_read, t_built, root, run_id,
                   JsonObject().add("galaxies", galaxies));
        tracer.add("engine.run_indexed", t_built, t1, root, run_id,
                   bench::phases_json(st));
      }
    } else {
      dist::DistRunConfig dcfg;
      dcfg.engine = cfg;
      dcfg.ranks = ranks;
      dcfg.partition = dist::PartitionPolicy::kPairWeighted;
      dcfg.halo.mode = dist::HaloMode::kLet;
      dcfg.overlap = dist::OverlapMode::kTwoPass;
      std::vector<dist::RankReport> reps;
      res = dist::run_distributed(cat, dcfg, &reps);
      const double t1 = tracer.now();
      double part = 0, build = 0, halo = 0, owned = 0, second = 0,
             red_min = 1e300, red_max = 0, setup_max = 0;
      double halo_bytes = 0, wire = 0, held = 0, own = 0, hidden = 0,
             blocked = 0;
      for (const dist::RankReport& r : reps) {
        part = std::max(part, r.partition_seconds);
        build = std::max(build, r.index_build_seconds);
        halo = std::max(halo, r.halo_seconds);
        owned = std::max(owned, r.owned_pass_seconds);
        second = std::max(second, r.secondary_pass_seconds);
        red_min = std::min(red_min, r.reduce_seconds);
        red_max = std::max(red_max, r.reduce_seconds);
        setup_max =
            std::max(setup_max, r.partition_seconds + r.index_build_seconds);
        halo_bytes += static_cast<double>(r.halo_bytes_sent);
        for (int p = 0; p < dist::kPhaseCount; ++p)
          wire += static_cast<double>(r.phase_bytes_sent[p]);
        held += static_cast<double>(r.held);
        own += static_cast<double>(r.owned);
        hidden += r.halo_hidden_seconds;
        blocked += r.halo_seconds;
      }
      setup = (t_read - t0) + setup_max;
      if (record) {
        const double run_s = t1 - t_read;
        s["build_s"].push_back(build);
        s["partition_frac"].push_back(part / run_s);
        s["halo_wait_frac"].push_back(halo / run_s);
        s["owned_pass_frac"].push_back(owned / run_s);
        s["secondary_pass_frac"].push_back(second / run_s);
        s["reduce_frac"].push_back(red_min / run_s);
        s["straggler_frac"].push_back((red_max - red_min) / run_s);
        s["pair_imbalance"].push_back(reps.empty() ? 1.0
                                                   : reps[0].pair_imbalance);
        s["halo_bytes"].push_back(halo_bytes);
        s["wire_bytes"].push_back(wire);
        s["held_over_owned"].push_back(own > 0 ? held / own : 1.0);
        s["halo_hidden_frac"].push_back(
            hidden + blocked > 0 ? hidden / (hidden + blocked) : 0.0);
      }
      if (spans) {
        const int root = tracer.add("compute", t0, t1, 0, run_id,
                                    JsonObject().add("catalog", cat_index));
        tracer.add("io.read", t0, t_read, root, run_id,
                   JsonObject().add("bytes", bytes));
        JsonObject a;
        a.add("ranks", ranks)
            .add("pairs", res.n_pairs)
            .add("pair_imbalance", reps.empty() ? 1.0 : reps[0].pair_imbalance)
            .add("partition_max_s", part)
            .add("index_build_max_s", build)
            .add("halo_wait_max_s", halo)
            .add("owned_pass_max_s", owned)
            .add("secondary_pass_max_s", second)
            .add("reduce_min_s", red_min)
            .add("reduce_max_s", red_max)
            .add("halo_bytes", halo_bytes)
            .add("wire_bytes", wire);
        tracer.add("dist.run_distributed", t_read, t1, root, run_id, a);
      }
    }
    const double wall = tracer.now() - t0;
    if (record) {
      s["wall_s"].push_back(wall);
      s["setup_s"].push_back(setup);
      s["read_s"].push_back(t_read - t0);
      s["cpu_s"].push_back(cpu_seconds() - cpu0);
      min_peak_rss = std::min(min_peak_rss, peak_rss_mb());
      s["pairs"].push_back(static_cast<double>(res.n_pairs));
      s["io_bytes"].push_back(bytes);
      (spans ? traced_wall : plain_wall).push_back(wall);
    }
    last_result = std::move(res);
    return last_result.n_pairs;
  };

  // Warm-up: every catalog once; its n_pairs is what each timed repetition
  // must reproduce exactly.
  int run_id = 0;
  for (int i = 0; i < w.catalogs; ++i)
    expected_pairs[static_cast<std::size_t>(i)] =
        compute(i, ++run_id, /*record=*/false, /*spans=*/false);

  // Timed passes over every catalog until the time budget is spent. A traced
  // run alternates passes with and without span recording, so the cost of
  // tracing is measured inside one process.
  const int min_passes = tracer.on() ? 2 : 1;
  const Timer budget;
  for (int pass = 0; pass < min_passes || budget.seconds() < seconds;
       ++pass) {
    const bool spans = tracer.on() && pass % 2 == 0;
    for (int i = 0; i < w.catalogs; ++i) {
      ++attempted;
      if (compute(i, ++run_id, /*record=*/true, spans) !=
          expected_pairs[static_cast<std::size_t>(i)])
        ++failed;
    }
  }

  // Independent reference check.
  JsonObject verify;
  ++attempted;
  const double tv0 = tracer.now();
  JsonObject engine_ref;  // dist workload: the engine split on the same catalog
  bool ok = false;
  double err = 0.0;
  if (!distributed) {
    const sim::Catalog small = io::read_catalog_binary(oracle_path(dir));
    const core::ZetaResult got = engine.run(small);
    baseline::OracleConfig ocfg;
    ocfg.bins = cfg.bins;
    ocfg.lmax = cfg.lmax;
    ocfg.los = cfg.los;
    const core::ZetaResult ref = baseline::direct_summation(small, ocfg);
    err = core::max_gated_rel_err(ref, got, 1e-2);
    const double pair_dev =
        std::abs(static_cast<double>(got.n_pairs) -
                 static_cast<double>(ref.n_pairs)) /
        std::max(1.0, static_cast<double>(ref.n_pairs));
    ok = err <= 2e-3 && pair_dev <= 1e-3;
    verify.add("reference", "baseline::direct_summation")
        .add("galaxies", static_cast<double>(small.size()))
        .add("n_pairs_rel_dev", pair_dev);
  } else {
    core::EngineConfig single = cfg;
    single.threads = threads;
    const sim::Catalog cat = io::read_catalog_binary(paths[0]);
    core::EngineStats st;
    Timer t;
    const core::ZetaResult ref = core::Engine(single).run(cat, nullptr, &st);
    const double traverse = t.seconds() - st.phases.get("index build");
    Samples one;
    add_engine_sample(one, st, traverse, w.lmax);
    for (const auto& [k, v] : one) engine_ref.add(k, v.front());
    err = payload_rel_diff(ref, last_result);
    ok = err <= 1e-10 && ref.n_pairs == last_result.n_pairs;
    verify.add("reference", "single-node Engine::run")
        .add("galaxies", static_cast<double>(cat.size()));
  }
  verify.add("zeta_rel_err", err).add("ok", ok ? 1.0 : 0.0);
  tracer.add("verify.oracle", tv0, tracer.now(), 0, ++run_id, verify);
  if (!ok) ++failed;

  JsonObject out;
  out.add("workload", w.name)
      .add("threads", threads)
      .add("ranks", ranks)
      .add("lmax", w.lmax)
      .add("galaxies", static_cast<double>(w.n))
      .add("catalogs", w.catalogs)
      .add("attempted", static_cast<double>(attempted))
      .add("failed", static_cast<double>(failed))
      .add("peak_rss_mb", min_peak_rss)
      .add("zeta_rel_err", err)
      .add_raw("verify", verify.str());
  if (distributed) out.add_raw("engine_ref", engine_ref.str());

  if (tracer.on()) {
    const double tk0 = tracer.now();
    const double gf = measure_kernel_gflops(w.lmax);
    tracer.add("kernel.isolated", tk0, tracer.now(), 0, ++run_id,
               JsonObject()
                   .add("isa", core::kernel_isa_name(core::kernel_isa()))
                   .add("lmax", w.lmax)
                   .add("gflops", gf));
    out.add("bucket_gflops", gf)
        .add("trace_overhead_frac",
             median(traced_wall) / median(plain_wall) - 1.0);
    tracer.write(trace_path);
  }

  JsonObject samples;
  for (const auto& [k, v] : s) samples.add_raw(k, json_array(v));
  out.add_raw("samples", samples.str());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    GLX_CHECK_MSG(argc >= 2, "usage: perfsuite gen|run --workload W ...");
    const std::string cmd = argv[1];
    ArgParser args(argc - 1, argv + 1);
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "run") return cmd_run(args);
    GLX_CHECK_MSG(false, "unknown command '" << cmd << "' (gen|run)");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfsuite: error: %s\n", e.what());
  }
  return 1;
}
