// The sparse-QAP objective of the multilevel pipeline's coarsest-level engine
// search (DESIGN.md §13), with O(1) swap-cost bounds for the scan filter.
#pragma once

#include <cstddef>
#include <vector>

#include "distance/distance_table.h"
#include "quality/comm_graph.h"
#include "quality/sparse.h"
#include "sched/engine.h"

namespace commsched::sched::ml {

/// Switches an assignment uses, ascending. Cluster c of the engine's
/// partition stands for switch used[c]; swaps never change this set.
[[nodiscard]] std::vector<std::size_t> UsedSwitches(const std::vector<std::size_t>& assignment);

/// The engine partition of an assignment: vertex v in cluster c where
/// cluster_switch[c] == assignment[v]. Every assigned switch must appear in
/// cluster_switch.
[[nodiscard]] Partition ToPartition(const std::vector<std::size_t>& assignment,
                                    const std::vector<std::size_t>& cluster_switch);

/// Inverse of ToPartition: vertex -> switch.
[[nodiscard]] std::vector<std::size_t> ToAssignment(const Partition& partition,
                                                    const std::vector<std::size_t>& cluster_switch);

/// Sparse-QAP objective for the coarsest-level SearchEngine walk. The
/// engine's Partition is over coarse *vertices*; cluster c stands for the
/// switch cluster_switch[c]. Swaps that would push a switch past its host
/// capacity are inadmissible (non-finite SwapCost).
///
/// The swap bounds come from a vertex x cluster table
/// H[v][c] = Σ_{x∈N(v)} w_vx·T(s_c, s_x)², the absolute form of Schulz &
/// Träff's gain table: the swap delta is
///   H[a][c_b] − H[a][c_a] + H[b][c_a] − H[b][c_b]
/// minus the a–b edge's four terms, enclosed with SwapDeltaErrorBound over
/// the H entries' total and 2·max_degree + 8 terms. The objective keeps
/// every pair's enclosure, so SwapCostBounds returns a stored row. Apply rebuilds H for a, b and their neighbours from scratch
/// and then recomputes the matrix rows and columns of every vertex whose
/// pairs read a changed input: those H entries, a's and b's clusters and
/// switches, and the loads of their two switches (the capacity test).
/// Every other entry is bit-identical to a fresh computation, so the bound
/// stays static.
class SparseQapObjective final : public Objective {
 public:
  /// Graph and table must outlive the objective.
  SparseQapObjective(const qual::CommGraph& graph, const dist::DistanceTable& table,
                     std::vector<std::size_t> cluster_switch, const Partition& start,
                     std::size_t capacity);

  double SwapCost(std::size_t a, std::size_t b) override;
  const SwapCostRange* SwapCostBounds(std::size_t a, SwapCostRange* scratch) override;
  [[nodiscard]] double Value() const override { return eval_.Cost(); }
  [[nodiscard]] double TraceFg() const override { return eval_.NormalizedCost(); }
  [[nodiscard]] double AspirantValue(double cost, double current_value) override {
    return current_value + cost;
  }
  void Apply(std::size_t a, std::size_t b) override;
  [[nodiscard]] const Partition& partition() const override { return partition_; }
  void FinalizeSeed(SearchResult& result) const override;

 private:
  [[nodiscard]] long long Slack(std::size_t s) const;  // free hosts on switch s
  [[nodiscard]] bool OverCapacity(std::size_t a, std::size_t b) const;
  /// Recomputes H[·][v] for every cluster.
  void RebuildColumn(std::size_t v);
  /// The enclosure of SwapCost(x, y), x < y in different clusters; w is
  /// the x–y edge weight (0 if none).
  [[nodiscard]] SwapCostRange PairBounds(std::size_t x, std::size_t y, double w);
  /// Recomputes the stored bounds of every inter-cluster pair involving v.
  void RefreshBounds(std::size_t v);

  qual::SparseQapEvaluator eval_;
  Partition partition_;
  std::vector<std::size_t> cluster_switch_;  // cluster id -> switch id
  std::size_t capacity_;
  std::vector<double> gains_;        // clusters x vertices: H[v][c] at [c * V + v]
  double error_terms_ = 0.0;         // K of SwapDeltaErrorBound
  std::vector<double> edge_weight_;  // w(v, x) during RefreshBounds(v), else 0
  std::vector<std::vector<SwapCostRange>> bounds_;  // bounds_[x][y]: pair x < y
  std::vector<char> stale_;            // Apply's scratch: H entry rebuilt
};

}  // namespace commsched::sched::ml
