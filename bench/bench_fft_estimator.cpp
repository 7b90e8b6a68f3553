// FFT estimator backend bench: accuracy + runtime vs grid size, against the
// tree backend as both the accuracy reference and the timing baseline.
//
// Generates a periodic lognormal mock, measures the tree answer once — on
// one thread, so the errors repeat bit for bit; --threads sets the FFT
// runs' threads — then sweeps the FFT backend over a list of grid sizes
// (plain and interlaced), reporting per grid the wall seconds and the max
// gated relative error of the zeta multipoles (core::max_gated_rel_err,
// gate = 3% of the largest coefficient — the committed accuracy contract;
// coefficients below it are cancellation-dominated). The "crossover" row reports the smallest grid whose
// interlaced error meets --target-err and its speedup over the tree — the
// regime where the mesh wins outright.
//
// Emits BENCH_fft.json (--json) for the CI artifact trail.
// tools/check_bench_regression.py gates it against
// bench/baselines/BENCH_fft.ci.json: the committed block's error ceiling,
// each grid's error drift, monotone convergence and the crossover grid.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/estimator.hpp"
#include "core/fft_estimator.hpp"
#include "mocks/lognormal.hpp"
#include "util/argparse.hpp"

using namespace galactos;
using namespace galactos::bench;

namespace {

std::vector<std::size_t> parse_grids(const std::string& csv) {
  std::vector<std::size_t> grids;
  std::istringstream is(csv);
  std::string tok;
  while (std::getline(is, tok, ',')) grids.push_back(std::stoul(tok));
  return grids;
}

struct GridRow {
  std::size_t grid_n = 0;
  double plain_seconds = 0, plain_err = 0, plain_l2 = 0;
  double inter_seconds = 0, inter_err = 0, inter_l2 = 0;
};

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const double box = args.get<double>("box", 200.0);
  const double nbar = args.get<double>("nbar", 6e-4);
  const double rmin = args.get<double>("rmin", 55.0);
  const double rmax = args.get<double>("rmax", 95.0);
  const int nbins = args.get<int>("nbins", 2);
  const int lmax = args.get<int>("lmax", 3);
  const int threads = args.get<int>("threads", 0);
  const std::uint64_t seed = args.get<std::uint64_t>("seed", 99);
  const std::string assignment = args.get_str("assignment", "tsc");
  const std::string grids_csv = args.get_str("grids", "32,64,128");
  const double target_err = args.get<double>("target-err", 1e-3);
  const int compensate = args.get<int>("compensate", 1);
  const int edge_aa = args.get<int>("edge-aa", 1);
  const double gate = args.get<double>("gate", 3e-2);
  const bool json = args.flag("json");
  args.finish();

  mocks::LognormalParams mp;
  mp.grid_n = 64;
  mp.box_side = box;
  mp.nbar = nbar;
  mp.bias = 1.5;
  mp.seed = seed;
  const sim::Catalog cat =
      mocks::lognormal_catalog(mp, mocks::BaoPowerSpectrum{}).galaxies;

  core::EngineConfig base;
  base.bins = core::RadialBins(rmin, rmax, nbins);
  base.lmax = lmax;
  base.threads = threads;

  print_header("FFT estimator backend: accuracy + crossover vs tree");
  print_kv("galaxies", std::to_string(cat.size()));
  print_kv("box / bins", fmt(box, "%.0f") + " / [" + fmt(rmin, "%.0f") + ", " +
                             fmt(rmax, "%.0f") + ") x " +
                             std::to_string(nbins));
  print_kv("lmax / assignment", std::to_string(lmax) + " / " + assignment);

  // The tree reference runs on one thread: at more, the dynamic leaf
  // schedule changes its last bits run to run, and so every error below.
  core::EngineConfig tree_cfg = base;
  tree_cfg.threads = 1;
  Timer timer;
  core::EngineStats tree_stats;
  const core::ZetaResult tree = core::periodic_box_3pcf(
      cat, sim::Aabb::cube(box), tree_cfg, &tree_stats);
  const double tree_seconds = timer.seconds();
  print_kv("tree reference", fmt(tree_seconds) + " s, " +
                                 std::to_string(tree_stats.pairs) + " pairs");

  core::FftConfig fcfg;
  fcfg.box_side = box;
  fcfg.assignment = core::assignment_from_name(assignment);
  fcfg.compensate = compensate != 0;
  fcfg.edge_antialias = edge_aa != 0;

  std::vector<GridRow> rows;
  for (std::size_t n : parse_grids(grids_csv)) {
    GridRow row;
    row.grid_n = n;
    fcfg.grid_n = n;
    for (bool interlace : {false, true}) {
      fcfg.interlace = interlace;
      timer.restart();
      const core::ZetaResult z = core::fft_3pcf(base, fcfg, cat);
      const double secs = timer.seconds();
      const double err = core::max_gated_rel_err(tree, z, gate);
      (interlace ? row.inter_seconds : row.plain_seconds) = secs;
      (interlace ? row.inter_err : row.plain_err) = err;
      (interlace ? row.inter_l2 : row.plain_l2) = core::l2_rel_err(tree, z);
    }
    rows.push_back(row);
  }

  Table table({"grid", "plain err", "plain l2", "plain s", "interlaced err",
               "interlaced l2", "interlaced s", "speedup vs tree"});
  const GridRow* crossover = nullptr;
  for (const GridRow& r : rows) {
    if (!crossover && r.inter_err <= target_err) crossover = &r;
    table.add_row({std::to_string(r.grid_n), fmt(r.plain_err, "%.2e"),
                   fmt(r.plain_l2, "%.2e"), fmt(r.plain_seconds),
                   fmt(r.inter_err, "%.2e"), fmt(r.inter_l2, "%.2e"),
                   fmt(r.inter_seconds), fmt(tree_seconds / r.inter_seconds,
                                             "%.2fx")});
  }
  table.print();
  if (crossover)
    print_kv("crossover", "grid " + std::to_string(crossover->grid_n) +
                              " meets err<=" + fmt(target_err, "%.0e") +
                              " at " + fmt(tree_seconds /
                                           crossover->inter_seconds,
                                           "%.2fx") + " tree speed");
  else
    print_kv("crossover", "no swept grid meets err<=" + fmt(target_err,
                                                            "%.0e"));

  if (json) {
    JsonObject config;
    config.add("n_galaxies", static_cast<std::uint64_t>(cat.size()))
        .add("box_side", box)
        .add("rmin", rmin)
        .add("rmax", rmax)
        .add("nbins", nbins)
        .add("lmax", lmax)
        .add("assignment", assignment)
        .add("interlace", 1)
        .add("compensate", compensate)
        .add("edge_antialias", edge_aa)
        .add("gate", gate)
        .add("target_err", target_err);

    std::string grid_rows = "[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      JsonObject g;
      g.add("grid_n", static_cast<std::uint64_t>(rows[i].grid_n))
          .add("plain_err", rows[i].plain_err)
          .add("plain_l2_err", rows[i].plain_l2)
          .add("plain_seconds", rows[i].plain_seconds)
          .add("interlaced_err", rows[i].inter_err)
          .add("interlaced_l2_err", rows[i].inter_l2)
          .add("interlaced_seconds", rows[i].inter_seconds);
      grid_rows += (i ? "," : "") + std::string("\n    ") + g.str(4);
    }
    grid_rows += "\n  ]";

    JsonObject committed;
    const GridRow& last = rows.back();
    committed.add("grid_n", static_cast<std::uint64_t>(last.grid_n))
        .add("max_rel_err", last.inter_err)
        .add("seconds", last.inter_seconds)
        .add("speedup_vs_tree", tree_seconds / last.inter_seconds);

    JsonObject root;
    root.add("bench", std::string("fft_estimator"))
        .add_raw("config", config.str(2))
        .add("tree_seconds", tree_seconds)
        .add("tree_pairs", tree_stats.pairs)
        .add_raw("grids", grid_rows)
        .add_raw("committed", committed.str(2))
        .add("crossover_grid",
             static_cast<std::uint64_t>(crossover ? crossover->grid_n : 0));
    write_json_file("BENCH_fft.json", root.str());
  }
  return 0;
}
