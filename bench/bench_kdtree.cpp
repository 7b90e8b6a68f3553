// Spatial-index microbenchmarks: k-d tree build and radius queries in both
// precisions (the paper runs the tree in single precision — §5.1 notes the
// search is "insensitive to the precision of galaxy locations").
#include <benchmark/benchmark.h>

#include "sim/generators.hpp"
#include "tree/kdtree.hpp"

namespace s = galactos::sim;
namespace t = galactos::tree;

namespace {

s::Catalog dataset(std::size_t n) {
  const double side = s::outer_rim_box_side(n);
  return s::uniform_box(n, s::Aabb::cube(side), 7);
}

}  // namespace

// Build time at n points on `threads` build threads (the engine passes its
// own thread count). 72,000 is the perfsuite uniform catalog, so this is
// the ceiling for its traced index.build_s.
template <typename Real>
static void BM_KdTreeBuild(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const s::Catalog cat = dataset(n);
  typename t::KdTree<Real>::BuildParams bp;
  bp.threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    t::KdTree<Real> tree(cat, bp);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_TEMPLATE(BM_KdTreeBuild, float)
    ->ArgNames({"n", "threads"})
    ->ArgsProduct({{10000, 72000, 100000}, {1, 2, 4}})
    ->UseRealTime();
BENCHMARK_TEMPLATE(BM_KdTreeBuild, double)
    ->ArgNames({"n", "threads"})
    ->ArgsProduct({{10000, 72000, 100000}, {1, 2, 4}})
    ->UseRealTime();

template <typename Real>
static void BM_KdTreeQuery(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const double rmax = static_cast<double>(state.range(1));
  const s::Catalog cat = dataset(n);
  const t::KdTree<Real> tree(cat);
  t::NeighborList<Real> nl;
  std::size_t q = 0, found = 0;
  for (auto _ : state) {
    nl.clear();
    tree.gather_neighbors(cat.x[q], cat.y[q], cat.z[q], rmax, nl);
    found += nl.size();
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(found));
  state.counters["neighbors/query"] =
      static_cast<double>(found) / static_cast<double>(state.iterations());
}
BENCHMARK_TEMPLATE(BM_KdTreeQuery, float)
    ->ArgNames({"n", "rmax"})
    ->Args({100000, 10})
    ->Args({100000, 20})
    ->Args({100000, 40});
BENCHMARK_TEMPLATE(BM_KdTreeQuery, double)
    ->ArgNames({"n", "rmax"})
    ->Args({100000, 10})
    ->Args({100000, 20})
    ->Args({100000, 40});
