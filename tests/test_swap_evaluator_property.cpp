// Property tests for qual::SwapEvaluator, the one incremental F_G evaluator,
// on its three weightings: plain, random per-cluster intensities λ (F_G^λ)
// and a random pair weight matrix W (F_G^w). Across many random (size, seed)
// instances, the running sums after a chain of ApplySwap calls must match a
// from-scratch recompute, the swap predictions must match the observed
// after-swap values, and F_G / D_G / C_c must match the free reference
// functions of quality.h and weighted.h. Unit weights must reproduce the
// plain evaluator bit for bit: the searchers' goldens rely on that.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "distance/distance_table.h"
#include "quality/partition.h"
#include "quality/quality.h"
#include "quality/weighted.h"
#include "routing/updown.h"
#include "topology/generator.h"

namespace commsched {
namespace {

constexpr double kTol = 1e-9;

/// Random symmetric table with off-diagonal entries in [0.5, 3.5) — the
/// quality functions only need symmetry and non-negativity, so random
/// tables explore far more shapes than real topologies would.
dist::DistanceTable RandomTable(std::size_t n, Rng& rng) {
  dist::DistanceTable table(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      table.Set(i, j, 0.5 + 3.0 * rng.NextDouble());
    }
  }
  return table;
}

/// Random cluster sizes: `clusters` parts of n with every part >= 1.
std::vector<std::size_t> RandomClusterSizes(std::size_t n, std::size_t clusters, Rng& rng) {
  std::vector<std::size_t> sizes(clusters, 1);
  for (std::size_t extra = n - clusters; extra > 0; --extra) {
    ++sizes[rng.NextIndex(clusters)];
  }
  return sizes;
}

/// A uniformly random pair of switches in different clusters (the partition
/// always has >= 2 clusters here, so one exists).
std::pair<std::size_t, std::size_t> RandomInterClusterPair(const qual::Partition& partition,
                                                           Rng& rng) {
  for (;;) {
    const std::size_t a = rng.NextIndex(partition.switch_count());
    const std::size_t b = rng.NextIndex(partition.switch_count());
    if (a != b && partition.ClusterOf(a) != partition.ClusterOf(b)) {
      return {a, b};
    }
  }
}

enum class Weighting { kPlain, kIntensity, kPairWeights };

/// One evaluator input plus the reference functions it must agree with.
struct Instance {
  dist::DistanceTable table;
  qual::Partition start;
  std::vector<double> intensity;  // empty: all 1
  qual::WeightMatrix weights;     // size 0: no pair weights

  [[nodiscard]] qual::SwapEvaluator Evaluator() const {
    return qual::SwapEvaluator(table, start, intensity,
                               weights.size() > 0 ? &weights : nullptr);
  }
  [[nodiscard]] double ReferenceFg(const qual::Partition& p) const {
    if (!intensity.empty()) return qual::IntensityGlobalSimilarity(table, p, intensity);
    if (weights.size() > 0) return qual::WeightedGlobalSimilarity(table, weights, p);
    return qual::GlobalSimilarity(table, p);
  }
  [[nodiscard]] double ReferenceDg(const qual::Partition& p) const {
    if (weights.size() > 0) return qual::WeightedGlobalDissimilarity(table, weights, p);
    return qual::GlobalDissimilarity(table, p);
  }
};

/// Draws the weighting's λ (in [0.25, 4.25)) or W (in [0.1, 5.1)) after
/// the table and partition, so the plain walks keep their RNG stream.
Instance MakeInstance(dist::DistanceTable table, qual::Partition start, Weighting weighting,
                      Rng& rng) {
  Instance instance{std::move(table), std::move(start), {}, {}};
  if (weighting == Weighting::kIntensity) {
    for (std::size_t c = 0; c < instance.start.cluster_count(); ++c) {
      instance.intensity.push_back(0.25 + 4.0 * rng.NextDouble());
    }
  } else if (weighting == Weighting::kPairWeights) {
    const std::size_t n = instance.table.size();
    instance.weights = qual::WeightMatrix(n, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        instance.weights.Set(i, j, 0.1 + 5.0 * rng.NextDouble());
      }
    }
  }
  return instance;
}

/// Random 6..24-switch table split into 2..4 random-size clusters.
Instance RandomInstance(Weighting weighting, Rng& rng) {
  const std::size_t n = 6 + rng.NextIndex(19);
  const std::size_t clusters = 2 + rng.NextIndex(3);
  dist::DistanceTable table = RandomTable(n, rng);
  const std::vector<std::size_t> sizes = RandomClusterSizes(n, clusters, rng);
  qual::Partition start = qual::Partition::Random(sizes, rng);
  return MakeInstance(std::move(table), std::move(start), weighting, rng);
}

/// Walks `steps` random swaps, checking every property after each step,
/// then resets to a fresh random partition and checks it against the
/// reference again.
void CheckWalk(const Instance& instance, Rng& rng, int steps, const std::string& label) {
  const bool unit_intensity = instance.intensity.empty();
  qual::SwapEvaluator eval = instance.Evaluator();
  EXPECT_NEAR(eval.Fg(), instance.ReferenceFg(eval.partition()), kTol) << label;

  for (int step = 0; step < steps; ++step) {
    const auto [a, b] = RandomInterClusterPair(eval.partition(), rng);
    const double predicted_delta = eval.SwapDelta(a, b);
    const double predicted_fg = eval.FgAfterSwap(a, b);
    const double before = eval.IntraSum();

    eval.ApplySwap(a, b);

    // Property 1: the incrementally maintained sums match a from-scratch
    // recompute (Reset on a copy forces the O(N^2) path); F_G divides the
    // running sum by the running weight, so it checks the weight too.
    qual::SwapEvaluator fresh = eval;
    fresh.Reset(eval.partition());
    EXPECT_NEAR(eval.IntraSum(), fresh.IntraSum(), kTol) << label << " step=" << step;
    EXPECT_NEAR(eval.Fg(), fresh.Fg(), kTol) << label << " step=" << step;

    // Property 2: SwapDelta and FgAfterSwap predicted the observed values.
    EXPECT_NEAR(predicted_delta, eval.IntraSum() - before, kTol) << label << " step=" << step;
    EXPECT_NEAR(predicted_fg, eval.Fg(), kTol) << label << " step=" << step;

    // Property 3: the values match the from-scratch reference functions.
    EXPECT_NEAR(eval.Fg(), instance.ReferenceFg(eval.partition()), kTol)
        << label << " step=" << step;
    if (unit_intensity) {
      EXPECT_NEAR(eval.Dg(), instance.ReferenceDg(eval.partition()), kTol)
          << label << " step=" << step;
      EXPECT_NEAR(eval.Cc(),
                  instance.ReferenceDg(eval.partition()) /
                      instance.ReferenceFg(eval.partition()),
                  kTol)
          << label << " step=" << step;
    }
  }

  qual::Partition other = instance.start;
  for (int k = 0; k < 3; ++k) {
    const auto [a, b] = RandomInterClusterPair(other, rng);
    other.Swap(a, b);
  }
  eval.Reset(other);
  EXPECT_NEAR(eval.Fg(), instance.ReferenceFg(other), kTol) << label << " after Reset";
}

void CheckRandomCases(Weighting weighting) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed);
    const Instance instance = RandomInstance(weighting, rng);
    CheckWalk(instance, rng, 12,
              "seed=" + std::to_string(seed) + " n=" + std::to_string(instance.table.size()));
  }
}

TEST(SwapEvaluatorProperty, IncrementalMatchesRecomputeAcross120RandomCases) {
  CheckRandomCases(Weighting::kPlain);
}

TEST(SwapEvaluatorProperty, IntensityMatchesRecomputeAndReferenceAcross120RandomCases) {
  CheckRandomCases(Weighting::kIntensity);
}

TEST(SwapEvaluatorProperty, PairWeightsMatchRecomputeAndReferenceAcross120RandomCases) {
  CheckRandomCases(Weighting::kPairWeights);
}

// Reset to an unrelated partition must drop every running sum: the
// pair-weighted F_G, D_G and C_c then match the reference functions and a
// freshly built evaluator exactly.
TEST(SwapEvaluatorProperty, PairWeightsResetRecomputesFromScratch) {
  topo::IrregularTopologyOptions options;
  options.switch_count = 12;
  options.seed = 2;
  const topo::SwitchGraph graph = topo::GenerateIrregularTopology(options);
  const route::UpDownRouting routing(graph);
  Rng rng(3);
  const Instance instance =
      MakeInstance(dist::DistanceTable::Build(routing), qual::Partition::Blocked({4, 4, 4}),
                   Weighting::kPairWeights, rng);
  qual::SwapEvaluator eval = instance.Evaluator();
  const qual::Partition other = qual::Partition::Random({4, 4, 4}, rng);
  eval.Reset(other);

  const double fg = qual::WeightedGlobalSimilarity(instance.table, instance.weights, other);
  const double dg = qual::WeightedGlobalDissimilarity(instance.table, instance.weights, other);
  EXPECT_NEAR(eval.Fg(), fg, kTol);
  EXPECT_NEAR(eval.Dg(), dg, kTol);
  EXPECT_NEAR(eval.Cc(),
              qual::WeightedClusteringCoefficient(instance.table, instance.weights, other), kTol);

  const qual::SwapEvaluator fresh(instance.table, other, {}, &instance.weights);
  EXPECT_EQ(eval.IntraSum(), fresh.IntraSum());
  EXPECT_EQ(eval.Fg(), fresh.Fg());
  EXPECT_EQ(eval.Dg(), fresh.Dg());
}

// The same properties on a real equivalent-distance table, where entries
// correlate through the topology rather than being independent.
TEST(SwapEvaluatorProperty, HoldsOnRealTopologyTables) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    topo::IrregularTopologyOptions options;
    options.switch_count = 16;
    options.seed = seed;
    const topo::SwitchGraph graph = topo::GenerateIrregularTopology(options);
    const route::UpDownRouting routing(graph);
    for (const Weighting weighting :
         {Weighting::kPlain, Weighting::kIntensity, Weighting::kPairWeights}) {
      Rng rng(seed);
      qual::Partition start = qual::Partition::Random({4, 4, 4, 4}, rng);
      const Instance instance =
          MakeInstance(dist::DistanceTable::Build(routing), std::move(start), weighting, rng);
      CheckWalk(instance, rng, 10, "topology seed=" + std::to_string(seed));
    }
  }
}

// With λ ≡ 1 or W ≡ 1 every weight multiply is by exactly 1.0, so the
// weighted evaluators must equal the plain one bit for bit — the merge of
// the three former evaluators into one rests on this.
TEST(SwapEvaluatorProperty, UnitWeightsAreBitIdenticalToPlainAcross120Seeds) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed);
    const Instance instance = RandomInstance(Weighting::kPlain, rng);
    const dist::DistanceTable& table = instance.table;
    const qual::WeightMatrix ones(table.size(), 1.0);
    qual::SwapEvaluator plain(table, instance.start);
    qual::SwapEvaluator unit_lambda(
        table, instance.start, std::vector<double>(instance.start.cluster_count(), 1.0));
    qual::SwapEvaluator unit_w(table, instance.start, {}, &ones);

    // The all-pairs normalizer is DistanceTable's own mean squared distance.
    EXPECT_EQ(plain.Fg(),
              (plain.IntraSum() / static_cast<double>(instance.start.IntraPairCount())) /
                  table.MeanSquaredDistance())
        << "seed=" << seed;

    for (int step = 0; step < 12; ++step) {
      const auto [a, b] = RandomInterClusterPair(plain.partition(), rng);
      for (const qual::SwapEvaluator* unit : {&unit_lambda, &unit_w}) {
        EXPECT_EQ(unit->SwapDelta(a, b), plain.SwapDelta(a, b)) << "seed=" << seed;
        EXPECT_EQ(unit->FgAfterSwap(a, b), plain.FgAfterSwap(a, b)) << "seed=" << seed;
        EXPECT_EQ(unit->IntraSum(), plain.IntraSum()) << "seed=" << seed;
        EXPECT_EQ(unit->Fg(), plain.Fg()) << "seed=" << seed;
        EXPECT_EQ(unit->Dg(), plain.Dg()) << "seed=" << seed;
      }
      plain.ApplySwap(a, b);
      unit_lambda.ApplySwap(a, b);
      unit_w.ApplySwap(a, b);
    }
  }
}

TEST(SwapEvaluatorProperty, RejectsMismatchedWeightings) {
  const dist::DistanceTable table(8, 1.0);
  const qual::Partition p = qual::Partition::Blocked({4, 4});
  const qual::WeightMatrix small(6, 1.0);
  EXPECT_THROW((void)qual::SwapEvaluator(table, p, {1.0}), ContractError);
  EXPECT_THROW((void)qual::SwapEvaluator(table, p, {-1.0, 1.0}), ContractError);
  EXPECT_THROW((void)qual::SwapEvaluator(table, p, {}, &small), ContractError);
  // All-zero intensities leave no intracluster weight to normalize by.
  EXPECT_THROW((void)qual::SwapEvaluator(table, p, {0.0, 0.0}).Fg(), ContractError);
  // Intensities weight intracluster pairs only, so D_G is undefined.
  EXPECT_THROW((void)qual::SwapEvaluator(table, p, {2.0, 1.0}).Dg(), ContractError);
}

}  // namespace
}  // namespace commsched
