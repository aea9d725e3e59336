#include "sched/multilevel/sparse_objective.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace commsched::sched::ml {
namespace {

/// Whether exchanging vertices of sizes size_a (on a switch with slack_a
/// free hosts) and size_b (slack_b) overflows either switch.
bool SwapOverflows(std::size_t size_a, std::size_t size_b, long long slack_a, long long slack_b) {
  const long long grow = static_cast<long long>(size_b) - static_cast<long long>(size_a);
  return grow != 0 && (grow > slack_a || -grow > slack_b);
}

}  // namespace

std::vector<std::size_t> UsedSwitches(const std::vector<std::size_t>& assignment) {
  std::vector<std::size_t> used = assignment;
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  return used;
}

Partition ToPartition(const std::vector<std::size_t>& assignment,
                      const std::vector<std::size_t>& cluster_switch) {
  std::vector<std::size_t> cluster_of_switch(cluster_switch.empty() ? 0 : cluster_switch.back() + 1,
                                             0);
  for (std::size_t c = 0; c < cluster_switch.size(); ++c) cluster_of_switch[cluster_switch[c]] = c;
  std::vector<std::size_t> cluster_of_vertex(assignment.size());
  for (std::size_t v = 0; v < assignment.size(); ++v) {
    cluster_of_vertex[v] = cluster_of_switch[assignment[v]];
  }
  return Partition(std::move(cluster_of_vertex));
}

std::vector<std::size_t> ToAssignment(const Partition& partition,
                                      const std::vector<std::size_t>& cluster_switch) {
  std::vector<std::size_t> assignment(partition.switch_count());
  for (std::size_t v = 0; v < assignment.size(); ++v) {
    assignment[v] = cluster_switch[partition.ClusterOf(v)];
  }
  return assignment;
}

SparseQapObjective::SparseQapObjective(const qual::CommGraph& graph,
                                       const dist::DistanceTable& table,
                                       std::vector<std::size_t> cluster_switch,
                                       const Partition& start, std::size_t capacity)
    : eval_(graph, table, ToAssignment(start, cluster_switch)),
      partition_(start),
      cluster_switch_(std::move(cluster_switch)),
      capacity_(capacity),
      edge_weight_(graph.vertex_count(), 0.0) {
  const std::size_t vertices = graph.vertex_count();
  std::size_t max_degree = 0;
  for (std::size_t v = 0; v < vertices; ++v) max_degree = std::max(max_degree, graph.Degree(v));
  // Exact delta: at most 2·max_degree edge terms; each H entry: at most
  // max_degree; the combination and the a–b correction: a handful more.
  error_terms_ = static_cast<double>(2 * max_degree + 8);
  gains_.assign(cluster_switch_.size() * vertices, 0.0);
  for (std::size_t v = 0; v < vertices; ++v) RebuildColumn(v);
  bounds_.assign(vertices, std::vector<SwapCostRange>(vertices));
  for (std::size_t v = 0; v < vertices; ++v) RefreshBounds(v);
}

void SparseQapObjective::RebuildColumn(std::size_t v) {
  const qual::CommGraph& graph = eval_.graph();
  const dist::DistanceTable& table = eval_.table();
  const std::size_t vertices = graph.vertex_count();
  for (std::size_t c = 0; c < cluster_switch_.size(); ++c) {
    const std::size_t s = cluster_switch_[c];
    double sum = 0.0;
    for (const qual::CommGraph::Neighbor* it = graph.NeighborsBegin(v);
         it != graph.NeighborsEnd(v); ++it) {
      const double d = table(s, eval_.SwitchOf(it->vertex));
      sum += it->weight * d * d;
    }
    gains_[c * vertices + v] = sum;
  }
}

long long SparseQapObjective::Slack(std::size_t s) const {
  return static_cast<long long>(capacity_) - static_cast<long long>(eval_.load()[s]);
}

bool SparseQapObjective::OverCapacity(std::size_t a, std::size_t b) const {
  return SwapOverflows(eval_.graph().vertex_size(a), eval_.graph().vertex_size(b),
                       Slack(eval_.SwitchOf(a)), Slack(eval_.SwitchOf(b)));
}

double SparseQapObjective::SwapCost(std::size_t a, std::size_t b) {
  if (OverCapacity(a, b)) return kInadmissible;
  return eval_.SwapDelta(a, b);
}

SwapCostRange SparseQapObjective::PairBounds(std::size_t x, std::size_t y, double w) {
  const dist::DistanceTable& table = eval_.table();
  const std::size_t vertices = eval_.graph().vertex_count();
  const std::size_t cx = partition_.ClusterOf(x);
  const std::size_t cy = partition_.ClusterOf(y);
  if (OverCapacity(x, y)) return ExactRange(kInadmissible);
  const double h_x_cx = gains_[cx * vertices + x];
  const double h_x_cy = gains_[cy * vertices + x];
  const double h_y_cx = gains_[cx * vertices + y];
  const double h_y_cy = gains_[cy * vertices + y];
  double approx = (h_x_cy - h_x_cx) + (h_y_cx - h_y_cy);
  double magnitude = h_x_cx + h_x_cy + h_y_cx + h_y_cy;
  if (w != 0.0) {
    // The x–y edge keeps its switch pair, so SwapDelta skips it; H counts
    // it among x's terms at y and among y's at x.
    const std::size_t sx = eval_.SwitchOf(x);
    const std::size_t sy = eval_.SwitchOf(y);
    const double d_yy = table(sy, sy);
    const double d_xy = table(sx, sy);
    const double d_xx = table(sx, sx);
    const double d_yx = table(sy, sx);
    const double into = w * d_yy * d_yy + w * d_xx * d_xx;
    const double out = w * d_xy * d_xy + w * d_yx * d_yx;
    approx -= into - out;
    magnitude += into + out;
  }
  const double width = SwapDeltaErrorBound(magnitude, error_terms_);
  const SwapCostRange range{approx - width, approx + width};
  if (!std::isfinite(range.lo) || !std::isfinite(range.hi)) {
    return ExactRange(SwapCost(x, y));  // an overflowing bound
  }
  return range;
}

void SparseQapObjective::RefreshBounds(std::size_t v) {
  const qual::CommGraph& graph = eval_.graph();
  const std::size_t vertices = graph.vertex_count();
  const std::vector<std::size_t>& cluster_of = partition_.cluster_of_switch();
  for (const qual::CommGraph::Neighbor* it = graph.NeighborsBegin(v);
       it != graph.NeighborsEnd(v); ++it) {
    edge_weight_[it->vertex] = it->weight;
  }
  for (std::size_t x = 0; x < v; ++x) {  // column v
    if (cluster_of[x] == cluster_of[v]) continue;
    bounds_[x][v] = PairBounds(x, v, edge_weight_[x]);
  }
  for (std::size_t y = v + 1; y < vertices; ++y) {  // row v
    if (cluster_of[y] == cluster_of[v]) continue;
    bounds_[v][y] = PairBounds(v, y, edge_weight_[y]);
  }
  for (const qual::CommGraph::Neighbor* it = graph.NeighborsBegin(v);
       it != graph.NeighborsEnd(v); ++it) {
    edge_weight_[it->vertex] = 0.0;
  }
}

const SwapCostRange* SparseQapObjective::SwapCostBounds(std::size_t a,
                                                        SwapCostRange* /*scratch*/) {
  return bounds_[a].data();
}

void SparseQapObjective::Apply(std::size_t a, std::size_t b) {
  const std::size_t ca = partition_.ClusterOf(a);
  const std::size_t cb = partition_.ClusterOf(b);
  eval_.ApplySwap(a, b);
  partition_.Swap(a, b);
  const qual::CommGraph& graph = eval_.graph();
  // Inputs of the stored bounds that this move changes: H of a, b and their
  // neighbours; a's and b's clusters and switches; and the loads of the two
  // switches, which the capacity test reads for every vertex on them
  // (clusters ca and cb).
  stale_.assign(graph.vertex_count(), 0);
  for (const std::size_t v : {a, b}) {
    RebuildColumn(v);
    stale_[v] = 1;
    for (const qual::CommGraph::Neighbor* it = graph.NeighborsBegin(v);
         it != graph.NeighborsEnd(v); ++it) {
      RebuildColumn(it->vertex);
      stale_[it->vertex] = 1;
    }
  }
  const std::vector<std::size_t>& cluster_of = partition_.cluster_of_switch();
  for (std::size_t v = 0; v < stale_.size(); ++v) {
    if (stale_[v] != 0 || cluster_of[v] == ca || cluster_of[v] == cb) RefreshBounds(v);
  }
}

void SparseQapObjective::FinalizeSeed(SearchResult& result) const {
  result.best_fg = eval_.NormalizedCost();
  result.best_dg = 0.0;
  result.best_cc = 0.0;
}

}  // namespace commsched::sched::ml
