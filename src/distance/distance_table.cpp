#include "distance/distance_table.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/parallel.h"
#include "linalg/resistance.h"

namespace commsched::dist {

DistanceTable::DistanceTable(std::size_t n, double fill) : n_(n), values_(n * n, fill) {
  for (std::size_t i = 0; i < n; ++i) {
    values_[i * n + i] = 0.0;
  }
}

void DistanceTable::Set(std::size_t i, std::size_t j, double value) {
  CS_CHECK(i < n_ && j < n_, "distance index out of range");
  CS_CHECK(i != j || value == 0.0, "diagonal must stay zero");
  CS_CHECK(value >= 0.0, "distances are non-negative");
  values_[i * n_ + j] = value;
  values_[j * n_ + i] = value;
}

namespace {

/// Build() runs inline up to this many pairs (24 switches): below it a
/// transient thread pool costs more than it saves. Medians of 200 alternating
/// builds on a 4-core VM: 16 switches 0.09-0.10 ms inline vs 0.19-0.20 ms
/// pooled, 24 switches 0.33 vs 0.36-0.48 ms, 32 switches 0.60-0.78 vs
/// 0.63-0.76 ms, 48 switches 1.7-2.0 vs 1.0-1.9 ms.
constexpr std::size_t kMaxInlinePairs = 276;

/// Per-task scratch for PairEquivalentDistance, reused across pairs.
struct PairScratch {
  explicit PairScratch(std::size_t n) : local(n, kNotOnPath) {}

  static constexpr std::size_t kNotOnPath = static_cast<std::size_t>(-1);
  std::vector<std::size_t> local;  // switch -> index in `nodes`; kNotOnPath off the pair's paths
  std::vector<SwitchId> nodes;     // the pair's on-path switches, ascending
};

/// Equivalent distance for one pair: restrict to links on minimal permitted
/// paths, 1 Ω each, effective resistance between the endpoints. The network
/// holds only the k switches those links touch, relabelled 0..k-1 in
/// ascending switch id; the grounded system therefore has the same rows, in
/// the same order, as over all N switches, and the result the same bits.
double PairEquivalentDistance(const Routing& routing, SwitchId i, SwitchId j,
                              PairScratch& scratch) {
  const topo::SwitchGraph& graph = routing.graph();
  const auto links = routing.LinksOnMinimalPaths(i, j);
  CS_CHECK(!links.empty(), "connected pair must have at least one path link");
  auto& [local, nodes] = scratch;
  nodes.clear();
  for (topo::LinkId l : links) {
    for (const SwitchId s : {graph.link(l).a, graph.link(l).b}) {
      if (local[s] == PairScratch::kNotOnPath) {
        local[s] = 0;
        nodes.push_back(s);
      }
    }
  }
  std::sort(nodes.begin(), nodes.end());
  for (std::size_t k = 0; k < nodes.size(); ++k) local[nodes[k]] = k;
  linalg::ResistorNetwork network(nodes.size());
  for (topo::LinkId l : links) {
    network.Add(local[graph.link(l).a], local[graph.link(l).b], 1.0);
  }
  const double resistance = network.EffectiveResistance(local[i], local[j]);
  for (const SwitchId s : nodes) local[s] = PairScratch::kNotOnPath;
  return resistance;
}

}  // namespace

DistanceTable DistanceTable::Build(const Routing& routing, bool parallel) {
  const std::size_t n = routing.graph().switch_count();
  DistanceTable table(n, 0.0);

  auto fill_row = [&](SwitchId i, PairScratch& scratch) {
    for (SwitchId j = i + 1; j < n; ++j) {
      const double d = PairEquivalentDistance(routing, i, j, scratch);
      // Each row writes distinct (i,j) cells: no synchronization needed.
      table.values_[i * n + j] = d;
      table.values_[j * n + i] = d;
    }
  };
  // Work is split by source row. Rows r and n-1-r together hold n-1 pairs,
  // so pairing them gives every task the same load.
  auto fill_rows = [&](std::size_t r) {
    PairScratch scratch(n);
    fill_row(r, scratch);
    if (n - 1 - r != r) fill_row(n - 1 - r, scratch);
  };
  const std::size_t tasks = (n + 1) / 2;
  if (parallel && n * (n - 1) / 2 > kMaxInlinePairs) {
    ParallelFor(tasks, fill_rows);
  } else {
    for (std::size_t r = 0; r < tasks; ++r) fill_rows(r);
  }
  return table;
}

DistanceTable DistanceTable::BuildHopCount(const Routing& routing) {
  const std::size_t n = routing.graph().switch_count();
  DistanceTable table(n, 0.0);
  for (SwitchId i = 0; i < n; ++i) {
    for (SwitchId j = i + 1; j < n; ++j) {
      table.Set(i, j, static_cast<double>(routing.MinimalDistance(i, j)));
    }
  }
  return table;
}

DistanceTable DistanceTable::BuildGraphHops(const topo::SwitchGraph& graph) {
  const std::size_t n = graph.switch_count();
  DistanceTable table(n, 0.0);
  for (SwitchId i = 0; i < n; ++i) {
    const std::vector<std::size_t> hops = graph.BfsDistances(i);
    for (SwitchId j = i + 1; j < n; ++j) {
      CS_CHECK(hops[j] != static_cast<std::size_t>(-1), "graph must be connected");
      table.Set(i, j, static_cast<double>(hops[j]));
    }
  }
  return table;
}

DistanceTable DistanceTable::FromValues(std::size_t n, std::vector<double> values) {
  if (values.size() != n * n) {
    throw ConfigError("distance table payload holds " + std::to_string(values.size()) +
                      " values, expected " + std::to_string(n * n));
  }
  DistanceTable table;
  table.n_ = n;
  table.values_ = std::move(values);
  return table;
}

double DistanceTable::SumSquaredAllPairs() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = i + 1; j < n_; ++j) {
      const double d = values_[i * n_ + j];
      sum += d * d;
    }
  }
  return sum;
}

double DistanceTable::MeanSquaredDistance() const {
  CS_CHECK(n_ >= 2, "need at least two switches");
  return SumSquaredAllPairs() / (static_cast<double>(n_) * (n_ - 1) / 2.0);
}

bool DistanceTable::SatisfiesTriangleInequality(double tolerance) const {
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      if (i == j) continue;
      for (std::size_t k = 0; k < n_; ++k) {
        if (k == i || k == j) continue;
        if ((*this)(i, j) > (*this)(i, k) + (*this)(k, j) + tolerance) {
          return false;
        }
      }
    }
  }
  return true;
}

double DistanceTable::MaxAbsDiff(const DistanceTable& other) const {
  CS_CHECK(n_ == other.n_, "table size mismatch");
  double worst = 0.0;
  for (std::size_t k = 0; k < values_.size(); ++k) {
    worst = std::max(worst, std::abs(values_[k] - other.values_[k]));
  }
  return worst;
}

std::string DistanceTable::ToCsv() const {
  std::ostringstream oss;
  oss << "switch";
  for (std::size_t j = 0; j < n_; ++j) oss << ',' << j;
  oss << '\n';
  for (std::size_t i = 0; i < n_; ++i) {
    oss << i;
    for (std::size_t j = 0; j < n_; ++j) {
      oss << ',' << (*this)(i, j);
    }
    oss << '\n';
  }
  return oss.str();
}

double CorrelateTables(const DistanceTable& a, const DistanceTable& b) {
  CS_CHECK(a.size() == b.size(), "table size mismatch");
  const std::size_t n = a.size();
  CS_CHECK(n >= 3, "need at least 3 switches for a meaningful correlation");
  double mean_a = 0.0;
  double mean_b = 0.0;
  const double pairs = static_cast<double>(n) * (n - 1) / 2.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      mean_a += a(i, j);
      mean_b += b(i, j);
    }
  }
  mean_a /= pairs;
  mean_b /= pairs;
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double da = a(i, j) - mean_a;
      const double db = b(i, j) - mean_b;
      cov += da * db;
      var_a += da * da;
      var_b += db * db;
    }
  }
  CS_CHECK(var_a > 0.0 && var_b > 0.0, "degenerate table in correlation");
  return cov / std::sqrt(var_a * var_b);
}

}  // namespace commsched::dist
