// The engine's filtered neighbourhood scan is decision-exact (DESIGN.md,
// "The scan filter"): an objective with O(1) SwapCostBounds must walk
// exactly as the same objective does when every candidate is scored with
// its exact SwapCost.
//
// Each case runs one walk twice from the same start: once through a
// forwarding objective that passes the adapter's bounds to the engine, and
// once through a forwarding objective that does not override SwapCostBounds
// (so the engine sees the exact cost as both bounds). The move sequences,
// best partitions, best values (bits) and every scan counter must be equal.
// The bounded run also checks, for every candidate it scans, that the exact
// cost lies inside the bounds and that NaN bounds coincide with a non-finite
// exact cost.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "distance/distance_table.h"
#include "quality/comm_graph.h"
#include "routing/updown.h"
#include "sched/engine.h"
#include "sched/multilevel/sparse_objective.h"
#include "topology/generator.h"

namespace commsched::sched {
namespace {

using Moves = std::vector<std::pair<std::size_t, std::size_t>>;

/// Forwards every call to `inner`, recording applied swaps. With kBounds it
/// also forwards SwapCostBounds and checks each interval against the exact
/// cost; without it the engine falls back to the exact default.
template <bool kBounds>
class Forwarding final : public Objective {
 public:
  explicit Forwarding(Objective& inner) : inner_(&inner) {}

  double SwapCost(std::size_t a, std::size_t b) override { return inner_->SwapCost(a, b); }
  const SwapCostRange* SwapCostBounds(std::size_t a, SwapCostRange* scratch) override {
    if constexpr (!kBounds) {
      return Objective::SwapCostBounds(a, scratch);
    } else {
      const SwapCostRange* row = inner_->SwapCostBounds(a, scratch);
      const std::vector<std::size_t>& cluster_of = partition().cluster_of_switch();
      for (std::size_t b = a + 1; b < cluster_of.size(); ++b) {
        if (cluster_of[b] == cluster_of[a]) continue;
        const double exact = inner_->SwapCost(a, b);
        const bool inadmissible = !std::isfinite(exact);
        if (std::isnan(row[b].lo) != inadmissible || std::isnan(row[b].hi) != inadmissible ||
            (!inadmissible && !(row[b].lo <= exact && exact <= row[b].hi))) {
          ++violations;
        }
      }
      return row;
    }
  }
  [[nodiscard]] double Value() const override { return inner_->Value(); }
  [[nodiscard]] double TraceFg() const override { return inner_->TraceFg(); }
  [[nodiscard]] double AspirantValue(double cost, double current_value) override {
    return inner_->AspirantValue(cost, current_value);
  }
  void Apply(std::size_t a, std::size_t b) override {
    moves.emplace_back(a, b);
    inner_->Apply(a, b);
  }
  [[nodiscard]] const Partition& partition() const override { return inner_->partition(); }
  void FinalizeSeed(SearchResult& result) const override { inner_->FinalizeSeed(result); }

  Moves moves;
  std::size_t violations = 0;

 private:
  Objective* inner_;
};

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Cluster sizes >= 2 summing to n.
std::vector<std::size_t> RandomClusterSizes(std::size_t n, Rng& rng) {
  const std::size_t clusters = 2 + rng.NextIndex(std::min<std::size_t>(4, n / 2 - 1));
  std::vector<std::size_t> sizes(clusters, 2);
  for (std::size_t extra = n - 2 * clusters; extra > 0; --extra) ++sizes[rng.NextIndex(clusters)];
  return sizes;
}

topo::SwitchGraph RandomNet(std::size_t switches, Rng& rng) {
  topo::IrregularTopologyOptions options;
  options.switch_count = switches;
  options.seed = rng.NextIndex(1u << 20) + 1;
  return topo::GenerateIrregularTopology(options);
}

enum class TableKind { kHops, kResistance, kWideRange };

dist::DistanceTable RandomTable(TableKind kind, std::size_t switches, Rng& rng) {
  switch (kind) {
    case TableKind::kHops:  // integer distances: ties everywhere
      return dist::DistanceTable::BuildGraphHops(RandomNet(switches, rng));
    case TableKind::kResistance:
      return dist::DistanceTable::Build(route::UpDownRouting(RandomNet(switches, rng)));
    case TableKind::kWideRange:
      break;
  }
  dist::DistanceTable table(switches, 1.0);
  for (std::size_t i = 0; i < switches; ++i) {
    for (std::size_t j = i + 1; j < switches; ++j) {
      table.Set(i, j, std::pow(10.0, -3.0 + 6.0 * rng.NextDouble()));
    }
  }
  return table;
}

ScanRules RandomRules(Rng& rng) {
  switch (rng.NextIndex(4)) {
    case 0:
      return ScanRules::TabuMargin();
    case 1:
      return ScanRules::GreedyDescent();
    case 2:
      return ScanRules::GreedyGain(-1e-3 * rng.NextDouble());
    default:
      return ScanRules::ValueDescent();
  }
}

EngineOptions RandomEngineOptions(Rng& rng) {
  EngineOptions options;
  options.seeds = 1;
  options.max_iterations_per_seed = 5 + rng.NextIndex(40);
  options.local_min_repeats = 1 + rng.NextIndex(4);
  options.tenure = 1 + rng.NextIndex(6);
  options.aspiration = rng.NextBool(0.7);
  return options;
}

/// A coarse communication graph with vertex sizes 1-3, placed feasibly on
/// `switches` switches of `capacity` hosts, filled to ~90% so that many
/// unequal-size swaps overflow a switch.
struct CoarseCase {
  qual::CommGraph graph;
  std::vector<std::size_t> assignment;
  std::size_t capacity = 0;
};

CoarseCase RandomCoarse(std::size_t switches, Rng& rng) {
  CoarseCase c;
  c.capacity = 3 + rng.NextIndex(4);
  std::vector<std::size_t> load(switches, 0);
  std::vector<std::size_t> sizes;
  const std::size_t budget = switches * c.capacity * 9 / 10;
  std::size_t placed = 0;
  for (std::size_t guard = 0; placed < budget && guard < 50 * switches; ++guard) {
    const std::size_t size = 1 + rng.NextIndex(3);
    const std::size_t s = rng.NextIndex(switches);
    if (load[s] + size > c.capacity) continue;
    load[s] += size;
    placed += size;
    sizes.push_back(size);
    c.assignment.push_back(s);
  }
  const std::size_t vertices = sizes.size();
  std::vector<qual::CommEdge> edges;
  for (std::size_t v = 1; v < vertices; ++v) {
    edges.push_back({rng.NextIndex(v), v, 0.5 + 4.0 * rng.NextDouble()});  // spanning tree
  }
  for (std::size_t e = 0; e < vertices; ++e) {
    const std::size_t u = rng.NextIndex(vertices);
    const std::size_t v = rng.NextIndex(vertices);
    if (u != v) edges.push_back({u, v, static_cast<double>(1 + rng.NextIndex(3))});
  }
  c.graph = qual::CommGraph::FromEdges(vertices, std::move(edges), std::move(sizes));
  return c;
}

struct Outcome {
  Moves moves;
  SeedRun run;
  std::size_t violations = 0;
};

template <bool kBounds>
Outcome Walk(Objective& objective, const SearchEngine& engine) {
  Forwarding<kBounds> forwarding(objective);
  Outcome out;
  out.run = engine.RunSeed(forwarding, 0);
  out.moves = std::move(forwarding.moves);
  out.violations = forwarding.violations;
  return out;
}

struct Totals {
  std::uint64_t exact = 0;
  std::uint64_t scanned = 0;
  std::uint64_t tabu_hits = 0;
  std::uint64_t aspirations = 0;
  std::uint64_t escapes = 0;
};

/// Runs both walks over fresh objectives from `make` and compares them.
template <typename Make>
void ExpectSameWalk(const Make& make, const SearchEngine& engine, const std::string& label,
                    Totals& totals) {
  std::unique_ptr<Objective> bounded_objective = make();
  std::unique_ptr<Objective> exact_objective = make();
  const Outcome bounded = Walk<true>(*bounded_objective, engine);
  const Outcome reference = Walk<false>(*exact_objective, engine);

  EXPECT_EQ(bounded.violations, 0u) << label << ": exact cost outside its bounds";
  EXPECT_EQ(bounded.moves, reference.moves) << label;
  EXPECT_EQ(bounded.run.result.best, reference.run.result.best) << label;
  EXPECT_EQ(Bits(bounded.run.best_value), Bits(reference.run.best_value)) << label;
  EXPECT_EQ(Bits(bounded_objective->Value()), Bits(exact_objective->Value())) << label;
  EXPECT_EQ(bounded.run.result.iterations, reference.run.result.iterations) << label;
  EXPECT_EQ(bounded.run.result.evaluations, reference.run.result.evaluations) << label;
  EXPECT_EQ(bounded.run.tabu_hits, reference.run.tabu_hits) << label;
  EXPECT_EQ(bounded.run.aspirations, reference.run.aspirations) << label;
  EXPECT_EQ(bounded.run.escapes, reference.run.escapes) << label;
  EXPECT_LE(bounded.run.exact_evaluations, bounded.run.result.evaluations) << label;
  totals.exact += bounded.run.exact_evaluations;
  totals.scanned += bounded.run.result.evaluations;
  totals.tabu_hits += reference.run.tabu_hits;
  totals.aspirations += reference.run.aspirations;
  totals.escapes += reference.run.escapes;
}

TEST(ScanFilterProperty, BoundedAdaptersWalkExactlyLikeExactScansAcross250Cases) {
  Rng rng(2024);
  Totals totals;
  constexpr std::size_t kCases = 250;
  for (std::size_t k = 0; k < kCases; ++k) {
    const TableKind kind = static_cast<TableKind>(k % 3);
    const std::size_t switches = 8 + rng.NextIndex(25);
    const dist::DistanceTable table = RandomTable(kind, switches, rng);
    const SearchEngine engine("filter_property", RandomEngineOptions(rng), RandomRules(rng));
    const std::string label = "case " + std::to_string(k) + " kind " +
                              std::to_string(static_cast<int>(kind)) + " n " +
                              std::to_string(switches);

    if (k % 5 == 4) {
      // Sparse-QAP over a coarse graph with unequal vertex sizes.
      const CoarseCase coarse = RandomCoarse(switches, rng);
      const std::vector<std::size_t> cluster_switch = ml::UsedSwitches(coarse.assignment);
      if (cluster_switch.size() < 2) continue;
      const Partition start = ml::ToPartition(coarse.assignment, cluster_switch);
      ExpectSameWalk(
          [&]() -> std::unique_ptr<Objective> {
            return std::make_unique<ml::SparseQapObjective>(coarse.graph, table, cluster_switch,
                                                            start, coarse.capacity);
          },
          engine, label + " sparse", totals);
    } else {
      // Dense F_G, every other case against a migration anchor.
      const std::vector<std::size_t> sizes = RandomClusterSizes(switches, rng);
      const Partition start = Partition::Random(sizes, rng);
      const Partition anchor = Partition::Random(sizes, rng);
      const bool anchored = k % 2 == 1;
      const double penalty = anchored ? std::pow(10.0, -2.0 + 3.0 * rng.NextDouble()) : 0.0;
      ExpectSameWalk(
          [&]() -> std::unique_ptr<Objective> {
            return std::make_unique<TabuObjective>(table, start, anchored ? &anchor : nullptr,
                                                   penalty);
          },
          engine, label + (anchored ? " anchored" : " dense"), totals);
    }
    if (::testing::Test::HasFailure()) break;  // one case's report is enough
  }
  // Every scan branch was exercised, and the filter actually filters (a
  // count, not a timing).
  EXPECT_GT(totals.tabu_hits, 0u);
  EXPECT_GT(totals.aspirations, 0u);
  EXPECT_GT(totals.escapes, 0u);
  EXPECT_LT(totals.exact, totals.scanned / 2)
      << totals.exact << " of " << totals.scanned << " candidates scored exactly";
}

}  // namespace
}  // namespace commsched::sched
