#include "simnet/vc_routing.h"

#include <algorithm>

#include "common/check.h"
#include "routing/deadlock.h"

namespace commsched::sim {

namespace {

constexpr Phase kPhases[] = {Phase::kUp, Phase::kDown};

}  // namespace

void CandidateTable::Add(const SwitchGraph& graph, SwitchId from, const route::NextHop& hop,
                         std::size_t vc, bool escape) {
  const std::size_t dir = graph.link(hop.link).a == from ? 0 : 1;
  entries_.push_back({static_cast<std::uint32_t>(2 * hop.link + dir),
                      static_cast<std::uint32_t>(hop.next), static_cast<std::uint32_t>(vc),
                      hop.phase, escape});
}

SingleClassVcPolicy::SingleClassVcPolicy(const Routing& routing, std::size_t vc_count,
                                         bool adaptive)
    : routing_(&routing),
      vc_count_(vc_count),
      adaptive_(adaptive),
      table_(routing.graph().switch_count()) {
  CS_CHECK(vc_count >= 1, "need at least one virtual channel");
  const SwitchGraph& g = routing.graph();
  const std::size_t n = g.switch_count();
  for (SwitchId s = 0; s < n; ++s) {
    for (SwitchId t = 0; t < n; ++t) {
      for (const Phase phase : kPhases) {
        const auto hops = routing.NextHops(s, t, phase);
        const std::size_t links = adaptive ? hops.size() : std::min<std::size_t>(1, hops.size());
        // VC-major order so a blocked VC 0 falls through to VC 1 of the same
        // link before trying the next link (keeps deterministic routing on
        // one path).
        for (std::size_t l = 0; l < links; ++l) {
          for (std::size_t vc = 0; vc < vc_count; ++vc) table_.Add(g, s, hops[l], vc, false);
        }
        table_.EndRow();
      }
    }
  }
}

std::span<const VcCandidate> SingleClassVcPolicy::Candidates(SwitchId current, SwitchId dest,
                                                             Phase phase,
                                                             bool /*on_escape*/) const {
  return table_.Row(table_.State(current, dest, phase));
}

std::string SingleClassVcPolicy::Name() const {
  return routing_->Name() + (adaptive_ ? "/adaptive" : "/deterministic") + "/vc" +
         std::to_string(vc_count_);
}

DuatoFullyAdaptivePolicy::DuatoFullyAdaptivePolicy(const SwitchGraph& graph,
                                                   std::size_t vc_count,
                                                   route::RootPolicy root_policy)
    : graph_(&graph),
      vc_count_(vc_count),
      escape_(graph, root_policy),
      adaptive_(graph),
      table_(graph.switch_count()) {
  CS_CHECK(vc_count >= 2, "Duato fully-adaptive routing needs an escape VC plus at least one "
                          "adaptive VC (vc_count >= 2)");
  const std::size_t n = graph.switch_count();
  for (SwitchId s = 0; s < n; ++s) {
    for (SwitchId t = 0; t < n; ++t) {
      for (const Phase phase : kPhases) {
        // Not on escape (the phase plays no part): adaptive channels on
        // every minimal physical hop, preferred; then the escape channel as
        // the fallback. A message enters the escape network as if freshly
        // injected at `s` (phase restarts at kUp) — legal because the
        // escape subfunction routes from the current switch.
        for (const route::NextHop& hop : adaptive_.NextHops(s, t, Phase::kUp)) {
          for (std::size_t vc = 1; vc < vc_count; ++vc) table_.Add(graph, s, hop, vc, false);
        }
        for (const route::NextHop& hop : escape_.NextHops(s, t, Phase::kUp)) {
          table_.Add(graph, s, hop, 0, true);
        }
        table_.EndRow();
        // Committed to the escape network: deterministic up*/down* on VC 0.
        // Empty when `phase` cannot reach `t`; Candidates() rejects those.
        const auto hops = escape_.NextHops(s, t, phase);
        if (!hops.empty()) table_.Add(graph, s, hops.front(), 0, true);
        table_.EndRow();
      }
    }
  }
}

std::span<const VcCandidate> DuatoFullyAdaptivePolicy::Candidates(SwitchId current,
                                                                  SwitchId dest, Phase phase,
                                                                  bool on_escape) const {
  const std::span<const VcCandidate> row =
      table_.Row(table_.State(current, dest, phase) * 2 + on_escape);
  CS_CHECK(!on_escape || !row.empty(), "escape network must offer a hop");
  return row;
}

bool VerifyDuatoSafety(const DuatoFullyAdaptivePolicy& policy) {
  // Obligation 1: acyclic escape CDG.
  if (!route::IsDeadlockFree(policy.escape_routing())) {
    return false;
  }
  // Obligation 2: an escape candidate from every adaptive state.
  const std::size_t n = policy.graph().switch_count();
  for (SwitchId s = 0; s < n; ++s) {
    for (SwitchId t = 0; t < n; ++t) {
      if (s == t) continue;
      const auto candidates = policy.Candidates(s, t, Phase::kUp, /*on_escape=*/false);
      const bool has_escape = std::any_of(candidates.begin(), candidates.end(),
                                          [](const VcCandidate& c) { return c.escape; });
      if (!has_escape) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace commsched::sim
