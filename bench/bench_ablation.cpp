// §3.3 ablations: the single-node design choices that are still settings,
// toggled one at a time against the paper-default configuration.
//
//   tree precision             (mixed vs double; paper: 9% end-to-end)
//   k-d leaf size
//   self-pair subtraction      (Legendre moments in u_z per pair)
//
// The bucket size (paper k = 128) and the ILP stream count (4) are the
// constants core::kBucketCapacity and core::kKernelIlp: changing either
// changes the result bits. bench_kernel sweeps the raw kernel's ilp.
#include <cstdio>

#include "bench_util.hpp"
#include "util/argparse.hpp"

using namespace galactos;
using namespace galactos::bench;

namespace {

// Best of three runs — the knobs differ by a few percent, below the
// run-to-run noise of a single measurement.
double run_best(const core::EngineConfig& cfg, const sim::Catalog& cat) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    Timer timer;
    (void)core::Engine(cfg).run(cat);
    best = std::min(best, timer.seconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::size_t n = args.get<std::size_t>("n", 60000);
  const double rmax = args.get<double>("rmax", 14.0);
  args.finish();

  print_header("Sec. 3.3 ablations — single-node design choices");
  print_kv("galaxies", fmt(static_cast<double>(n), "%.0f"));
  print_kv("R_max (Mpc/h)", fmt(rmax, "%.1f"));

  const sim::Catalog cat = outer_rim_scaled(n, 2024);
  const core::EngineConfig base = paper_engine_config(rmax, 10, 0);
  const double t_base = run_best(base, cat);
  print_kv("paper-default config time (s)", fmt(t_base, "%.3f"));

  Table t({"knob", "setting", "time (s)", "vs default"});
  auto row = [&](const char* knob, const std::string& setting, double time) {
    t.add_row({knob, setting, fmt(time, "%.3f"),
               fmt(100.0 * (time / t_base - 1.0), "%+.1f%%")});
  };
  row("(default)", "mixed,leaf=32", t_base);

  {
    core::EngineConfig cfg = base;
    cfg.tree.precision = core::TreePrecision::kDouble;
    row("precision", "all-double (paper: mixed ~9% faster)",
        run_best(cfg, cat));
  }
  for (int leaf : {8, 64, 128}) {
    core::EngineConfig cfg = base;
    cfg.tree.leaf_size = leaf;
    row("kd leaf size", "leaf=" + fmt(leaf, "%.0f"), run_best(cfg, cat));
  }
  {
    core::EngineConfig cfg = base;
    cfg.subtract_self_pairs = true;
    row("self-pair corr.", "on (Legendre moments per pair)",
        run_best(cfg, cat));
  }
  std::printf("\n");
  t.print();
  return 0;
}
