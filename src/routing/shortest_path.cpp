#include "routing/shortest_path.h"

#include <algorithm>
#include <limits>

namespace commsched::route {

namespace {
constexpr std::size_t kUnreachable = std::numeric_limits<std::size_t>::max();
}  // namespace

ShortestPathRouting::ShortestPathRouting(const SwitchGraph& graph) : graph_(&graph) {
  CS_CHECK(graph.IsConnected(), "routing requires a connected graph");
  dist_.reserve(graph.switch_count());
  for (SwitchId t = 0; t < graph.switch_count(); ++t) {
    dist_.push_back(graph.BfsDistances(t));
  }
}

std::size_t ShortestPathRouting::MinimalDistance(SwitchId s, SwitchId t) const {
  CS_CHECK(s < graph_->switch_count() && t < graph_->switch_count(), "switch out of range");
  return dist_[t][s];
}

std::vector<NextHop> ShortestPathRouting::NextHops(SwitchId current, SwitchId dest,
                                                   Phase /*phase*/) const {
  CS_CHECK(current < graph_->switch_count() && dest < graph_->switch_count(),
           "switch out of range");
  std::vector<NextHop> hops;
  if (current == dest) return hops;
  const auto& dist = dist_[dest];
  for (LinkId l : graph_->incident_links(current)) {
    const SwitchId v = graph_->OtherEnd(l, current);
    if (dist[v] + 1 == dist[current]) {
      hops.push_back({l, v, Phase::kUp});
    }
  }
  std::sort(hops.begin(), hops.end(),
            [](const NextHop& x, const NextHop& y) { return x.link < y.link; });
  CS_CHECK(!hops.empty(), "connected graph must yield a next hop");
  return hops;
}

std::vector<LinkId> ShortestPathRouting::LinksOnMinimalPaths(SwitchId s, SwitchId t) const {
  CS_CHECK(s < graph_->switch_count() && t < graph_->switch_count(), "switch out of range");
  std::vector<LinkId> result;
  if (s == t) return result;
  const auto& dist = dist_[t];
  CS_CHECK(dist[s] != kUnreachable, "unreachable destination");
  // Walk dist_[t] downhill from s one level at a time: a link lies on a
  // shortest path iff it steps from a switch reachable this way to a
  // neighbour exactly one hop closer to t. Each link is met once, from its
  // end farther from t, so sorting is all the result needs.
  std::vector<SwitchId> level{s};
  std::vector<SwitchId> next;
  while (dist[level.front()] > 0) {
    next.clear();
    for (const SwitchId u : level) {
      for (LinkId l : graph_->incident_links(u)) {
        const SwitchId v = graph_->OtherEnd(l, u);
        if (dist[v] + 1 == dist[u]) {
          result.push_back(l);
          next.push_back(v);
        }
      }
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    level.swap(next);
  }
  std::sort(result.begin(), result.end());
  return result;
}

Phase ShortestPathRouting::ArrivalPhase(LinkId /*link*/, SwitchId /*into*/) const {
  return Phase::kUp;
}

}  // namespace commsched::route
