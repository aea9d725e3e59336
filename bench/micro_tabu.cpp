// Micro-benchmarks: full searcher runs (the paper's scheduling cost).
// Work counters come from the obs registry, so the perf JSON carries
// swaps_per_sec (candidate evaluations / s) next to the wall-clock columns.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/commsched.h"

namespace {

using namespace commsched;

dist::DistanceTable Table(std::size_t switches) {
  topo::IrregularTopologyOptions options;
  options.switch_count = switches;
  options.seed = 1;
  const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
  const route::UpDownRouting routing(g);
  return dist::DistanceTable::Build(routing);
}

void BM_TabuSearchPaperSchedule(benchmark::State& state) {
  const dist::DistanceTable table = Table(static_cast<std::size_t>(state.range(0)));
  const std::vector<std::size_t> sizes(4, table.size() / 4);
  std::uint64_t seed = 0;
  const bench::ObsDelta obs_delta;
  for (auto _ : state) {
    sched::TabuOptions options;
    options.rng_seed = ++seed;
    benchmark::DoNotOptimize(sched::TabuSearch(table, sizes, options));
  }
  state.counters["swaps_per_sec"] =
      benchmark::Counter(static_cast<double>(obs_delta.Delta("search.tabu.evaluations")),
                         benchmark::Counter::kIsRate);
  state.counters["seed_iters_p50"] =
      benchmark::Counter(bench::HistogramPercentile("search.tabu.seed_iters", 0.50));
  state.counters["seed_iters_p99"] =
      benchmark::Counter(bench::HistogramPercentile("search.tabu.seed_iters", 0.99));
  // Share of scanned candidates scored with an exact SwapCost; the rest were
  // settled by their O(1) bounds. A count, so it holds on any machine.
  state.counters["exact_fraction"] = benchmark::Counter(
      obs_delta.Rate("search.tabu.exact_evaluations", "search.tabu.evaluations"));
  state.counters["scanned"] =
      benchmark::Counter(static_cast<double>(obs_delta.Delta("search.tabu.evaluations")));
}
BENCHMARK(BM_TabuSearchPaperSchedule)->Arg(16)->Arg(24)->Arg(96)->Unit(benchmark::kMillisecond);

void BM_TabuSearchParallelSeeds(benchmark::State& state) {
  const dist::DistanceTable table = Table(24);
  const std::vector<std::size_t> sizes(4, 6);
  std::uint64_t seed = 0;
  const bench::ObsDelta obs_delta;
  for (auto _ : state) {
    sched::TabuOptions options;
    options.rng_seed = ++seed;
    options.parallel_seeds = true;
    benchmark::DoNotOptimize(sched::TabuSearch(table, sizes, options));
  }
  state.counters["swaps_per_sec"] =
      benchmark::Counter(static_cast<double>(obs_delta.Delta("search.tabu.evaluations")),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TabuSearchParallelSeeds)->Unit(benchmark::kMillisecond);

void BM_SimulatedAnnealing(benchmark::State& state) {
  const dist::DistanceTable table = Table(16);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    sched::AnnealingOptions options;
    options.iterations = 20000;
    options.rng_seed = ++seed;
    benchmark::DoNotOptimize(sched::SimulatedAnnealing(table, {4, 4, 4, 4}, options));
  }
}
BENCHMARK(BM_SimulatedAnnealing)->Unit(benchmark::kMillisecond);

void BM_ExhaustiveWithPruning(benchmark::State& state) {
  const dist::DistanceTable table = Table(static_cast<std::size_t>(state.range(0)));
  const std::vector<std::size_t> sizes(4, table.size() / 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::ExhaustiveSearch(table, sizes));
  }
}
BENCHMARK(BM_ExhaustiveWithPruning)->Arg(8)->Arg(12)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
