// Micro-benchmarks: quality functions and the incremental swap evaluator —
// the inner loop of every searcher.
#include <benchmark/benchmark.h>

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

void BM_GlobalSimilarityDirect(benchmark::State& state) {
  const dist::DistanceTable table = Table(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  const std::vector<std::size_t> sizes(4, table.size() / 4);
  const qual::Partition p = qual::Partition::Random(sizes, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qual::GlobalSimilarity(table, p));
  }
}
BENCHMARK(BM_GlobalSimilarityDirect)->Arg(16)->Arg(24);

/// A fixed inter-cluster pair of the evaluator's partition.
std::pair<std::size_t, std::size_t> InterClusterPair(const qual::SwapEvaluator& eval) {
  std::size_t b = 1;
  while (eval.partition().ClusterOf(0) == eval.partition().ClusterOf(b)) ++b;
  return {0, b};
}

// The swap-delta loop under each of the evaluator's weightings. Arg(96) is
// the net size of perfbench map_large's schedule and the daemon's cold
// schedules.
void BM_SwapDelta(benchmark::State& state) {
  const dist::DistanceTable table = Table(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  const std::vector<std::size_t> sizes(4, table.size() / 4);
  const qual::SwapEvaluator eval(table, qual::Partition::Random(sizes, rng));
  const auto [a, b] = InterClusterPair(eval);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.SwapDelta(a, b));
  }
}
BENCHMARK(BM_SwapDelta)->Arg(16)->Arg(24)->Arg(96);

/// F_G^λ: per-cluster intensities, as IntensityTabuSearch uses them.
void BM_SwapDeltaIntensity(benchmark::State& state) {
  const dist::DistanceTable table = Table(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  const std::vector<std::size_t> sizes(4, table.size() / 4);
  const qual::SwapEvaluator eval(table, qual::Partition::Random(sizes, rng),
                                 {1.0, 1.5, 2.0, 2.5});
  const auto [a, b] = InterClusterPair(eval);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.SwapDelta(a, b));
  }
}
BENCHMARK(BM_SwapDeltaIntensity)->Arg(16)->Arg(24)->Arg(96);

/// F_G^w: a pair weight matrix moves the intra weight too, so this times
/// FgAfterSwap, the call WeightedTabuSearch makes per candidate.
void BM_SwapDeltaPairWeighted(benchmark::State& state) {
  const dist::DistanceTable table = Table(static_cast<std::size_t>(state.range(0)));
  const std::size_t n = table.size();
  qual::WeightMatrix weights(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      weights.Set(i, j, 1.0 + static_cast<double>((i * 7 + j * 3) % 5));
    }
  }
  Rng rng(1);
  const std::vector<std::size_t> sizes(4, n / 4);
  const qual::SwapEvaluator eval(table, qual::Partition::Random(sizes, rng), {}, &weights);
  const auto [a, b] = InterClusterPair(eval);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.FgAfterSwap(a, b));
  }
}
BENCHMARK(BM_SwapDeltaPairWeighted)->Arg(16)->Arg(24)->Arg(96);

void BM_FullNeighborhoodScan(benchmark::State& state) {
  const dist::DistanceTable table = Table(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  const std::vector<std::size_t> sizes(4, table.size() / 4);
  qual::SwapEvaluator eval(table, qual::Partition::Random(sizes, rng));
  const std::size_t n = table.size();
  for (auto _ : state) {
    double best = 0.0;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (eval.partition().ClusterOf(a) == eval.partition().ClusterOf(b)) continue;
        best = std::min(best, eval.SwapDelta(a, b));
      }
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_FullNeighborhoodScan)->Arg(16)->Arg(24);

void BM_ClusteringCoefficient(benchmark::State& state) {
  const dist::DistanceTable table = Table(16);
  Rng rng(1);
  const qual::Partition p = qual::Partition::Random({4, 4, 4, 4}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qual::ClusteringCoefficient(table, p));
  }
}
BENCHMARK(BM_ClusteringCoefficient);

}  // namespace

BENCHMARK_MAIN();
