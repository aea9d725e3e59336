#include "simnet/vc_routing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "faults/degraded.h"
#include "routing/updown.h"
#include "topology/generator.h"
#include "topology/library.h"

namespace commsched::sim {
namespace {

using route::Phase;
using route::UpDownRouting;

TEST(SingleClassPolicy, DeterministicUsesOneLinkAllVcs) {
  const topo::SwitchGraph g = topo::MakeMesh2D(3, 3);
  const route::ShortestPathRouting routing(g);
  const SingleClassVcPolicy policy(routing, 3, /*adaptive=*/false);
  EXPECT_EQ(policy.vc_count(), 3u);
  // Corner to far corner offers 2 links; deterministic keeps the first only.
  const auto candidates = policy.Candidates(0, 8, Phase::kUp, false);
  ASSERT_EQ(candidates.size(), 3u);
  for (const VcCandidate& c : candidates) {
    EXPECT_EQ(c.link(), candidates.front().link());
    EXPECT_FALSE(c.escape);
  }
  EXPECT_EQ(candidates[0].vc, 0u);
  EXPECT_EQ(candidates[2].vc, 2u);
}

TEST(SingleClassPolicy, AdaptiveUsesAllLinks) {
  const topo::SwitchGraph g = topo::MakeMesh2D(3, 3);
  const route::ShortestPathRouting routing(g);
  const SingleClassVcPolicy policy(routing, 2, /*adaptive=*/true);
  const auto candidates = policy.Candidates(0, 8, Phase::kUp, false);
  EXPECT_EQ(candidates.size(), 4u);  // 2 links x 2 VCs
}

TEST(SingleClassPolicy, EmptyAtDestination) {
  const topo::SwitchGraph g = topo::MakeMesh2D(2, 2);
  const route::ShortestPathRouting routing(g);
  const SingleClassVcPolicy policy(routing, 2, true);
  EXPECT_TRUE(policy.Candidates(1, 1, Phase::kUp, false).empty());
}

TEST(DuatoPolicy, RequiresTwoVcs) {
  const topo::SwitchGraph g = topo::MakeRing(6);
  EXPECT_THROW(DuatoFullyAdaptivePolicy policy(g, 1), commsched::ContractError);
}

TEST(DuatoPolicy, AdaptiveChannelsPreferredEscapeLast) {
  topo::IrregularTopologyOptions options;
  options.switch_count = 16;
  options.seed = 3;
  const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
  const DuatoFullyAdaptivePolicy policy(g, 2);
  for (topo::SwitchId s = 0; s < 16; ++s) {
    for (topo::SwitchId t = 0; t < 16; ++t) {
      if (s == t) continue;
      const auto candidates = policy.Candidates(s, t, Phase::kUp, false);
      ASSERT_FALSE(candidates.empty());
      // Prefix: adaptive (vc >= 1); suffix: escape (vc 0, up*/down*).
      bool seen_escape = false;
      std::size_t escape_count = 0;
      for (const VcCandidate& c : candidates) {
        if (c.escape) {
          seen_escape = true;
          ++escape_count;
          EXPECT_EQ(c.vc, 0u);
        } else {
          EXPECT_FALSE(seen_escape) << "adaptive candidate after an escape candidate";
          EXPECT_GE(c.vc, 1u);
        }
      }
      EXPECT_GE(escape_count, 1u) << "escape network must always be reachable";
    }
  }
}

TEST(DuatoPolicy, AdaptiveCandidatesAreMinimal) {
  topo::IrregularTopologyOptions options;
  options.switch_count = 12;
  options.seed = 9;
  const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
  const DuatoFullyAdaptivePolicy policy(g, 3);
  const auto hops = g.AllPairsHopDistance();
  for (topo::SwitchId s = 0; s < 12; ++s) {
    for (topo::SwitchId t = 0; t < 12; ++t) {
      if (s == t) continue;
      for (const VcCandidate& c : policy.Candidates(s, t, Phase::kUp, false)) {
        if (!c.escape) {
          EXPECT_EQ(hops[c.next][t] + 1, hops[s][t]) << "non-minimal adaptive hop";
        }
      }
    }
  }
}

TEST(DuatoPolicy, OnEscapeStaysOnEscape) {
  const topo::SwitchGraph g = topo::MakeFourRingsOfSix();
  const DuatoFullyAdaptivePolicy policy(g, 2);
  for (topo::SwitchId s = 0; s < 24; ++s) {
    for (topo::SwitchId t = 0; t < 24; ++t) {
      if (s == t) continue;
      const auto candidates = policy.Candidates(s, t, Phase::kUp, /*on_escape=*/true);
      ASSERT_EQ(candidates.size(), 1u);  // deterministic escape
      EXPECT_TRUE(candidates.front().escape);
      EXPECT_EQ(candidates.front().vc, 0u);
    }
  }
}

TEST(DuatoPolicy, EscapeFollowsUpDownPhases) {
  const topo::SwitchGraph g = topo::MakeFourRingsOfSix();
  const DuatoFullyAdaptivePolicy policy(g, 2);
  const UpDownRouting& escape = policy.escape_routing();
  // Walk any pair along the escape network and confirm phase legality.
  topo::SwitchId at = 3;
  const topo::SwitchId dest = 20;
  Phase phase = Phase::kUp;
  bool went_down = false;
  std::size_t steps = 0;
  while (at != dest) {
    const auto candidates = policy.Candidates(at, dest, phase, true);
    ASSERT_EQ(candidates.size(), 1u);
    const VcCandidate& c = candidates.front();
    const bool is_up = escape.IsUpTraversal(c.link(), at);
    if (went_down) {
      EXPECT_FALSE(is_up) << "up traversal after down on escape path";
    }
    if (!is_up) went_down = true;
    at = c.next;
    phase = c.phase;
    ASSERT_LT(++steps, 50u);
  }
}

TEST(PolicyNames, AreDescriptive) {
  const topo::SwitchGraph g = topo::MakeRing(6);
  const UpDownRouting ud(g, topo::SwitchId{0});
  EXPECT_EQ(SingleClassVcPolicy(ud, 2, false).Name(), "up*/down*/deterministic/vc2");
  EXPECT_EQ(SingleClassVcPolicy(ud, 4, true).Name(), "up*/down*/adaptive/vc4");
  EXPECT_EQ(DuatoFullyAdaptivePolicy(g, 2).Name(), "duato-fully-adaptive");
}

// ---- Candidate tables --------------------------------------------------------
//
// Each policy expands its routing function into a CSR table at construction.
// The reference below is the per-call expansion of Routing::NextHops the
// policies used to run on every lookup; every row must equal it, in order.

VcCandidate Expand(const topo::SwitchGraph& g, topo::SwitchId from, const route::NextHop& hop,
                   std::size_t vc, bool escape) {
  const std::size_t dir = g.link(hop.link).a == from ? 0 : 1;
  return {static_cast<std::uint32_t>(2 * hop.link + dir), static_cast<std::uint32_t>(hop.next),
          static_cast<std::uint32_t>(vc), hop.phase, escape};
}

std::vector<VcCandidate> ReferenceSingleClass(const route::Routing& routing, std::size_t vcs,
                                              bool adaptive, topo::SwitchId s, topo::SwitchId t,
                                              Phase phase) {
  const auto hops = routing.NextHops(s, t, phase);
  const std::size_t links = adaptive ? hops.size() : std::min<std::size_t>(1, hops.size());
  std::vector<VcCandidate> expected;
  for (std::size_t l = 0; l < links; ++l) {
    for (std::size_t vc = 0; vc < vcs; ++vc) {
      expected.push_back(Expand(routing.graph(), s, hops[l], vc, false));
    }
  }
  return expected;
}

std::vector<VcCandidate> ReferenceDuatoAdaptive(const DuatoFullyAdaptivePolicy& policy,
                                                topo::SwitchId s, topo::SwitchId t) {
  const topo::SwitchGraph& g = policy.graph();
  std::vector<VcCandidate> expected;
  for (const route::NextHop& hop : policy.adaptive_routing().NextHops(s, t, Phase::kUp)) {
    for (std::size_t vc = 1; vc < policy.vc_count(); ++vc) {
      VcCandidate adaptive = Expand(g, s, hop, vc, false);
      adaptive.phase = Phase::kUp;  // adaptive hops never enter the up*/down* phases
      expected.push_back(adaptive);
    }
  }
  for (const route::NextHop& hop : policy.escape_routing().NextHops(s, t, Phase::kUp)) {
    expected.push_back(Expand(g, s, hop, 0, true));
  }
  return expected;
}

void ExpectRow(std::span<const VcCandidate> row, const std::vector<VcCandidate>& expected,
               const std::string& where) {
  ASSERT_EQ(row.size(), expected.size()) << where;
  for (std::size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(row[i], expected[i]) << where << " entry " << i;
  }
}

struct TableNet {
  std::string name;
  topo::SwitchGraph graph;
};

std::vector<TableNet> TableNets() {
  std::vector<TableNet> nets;
  for (const std::size_t n : {8u, 16u, 24u, 32u}) {
    nets.push_back({"irregular" + std::to_string(n),
                    topo::GenerateIrregularTopology({n, 4, 3, 1, 1000})});
  }
  nets.push_back({"rings24", topo::MakeFourRingsOfSix()});
  return nets;
}

void ExpectSingleClassTable(const route::Routing& routing, const std::string& name) {
  const std::size_t n = routing.graph().switch_count();
  for (const bool adaptive : {false, true}) {
    for (const std::size_t vcs : {1u, 2u, 3u}) {
      const SingleClassVcPolicy policy(routing, vcs, adaptive);
      for (topo::SwitchId s = 0; s < n; ++s) {
        for (topo::SwitchId t = 0; t < n; ++t) {
          for (const Phase phase : {Phase::kUp, Phase::kDown}) {
            const auto expected = ReferenceSingleClass(routing, vcs, adaptive, s, t, phase);
            for (const bool on_escape : {false, true}) {
              ExpectRow(policy.Candidates(s, t, phase, on_escape), expected,
                        name + " " + policy.Name() + " s=" + std::to_string(s) +
                            " t=" + std::to_string(t) +
                            " phase=" + std::to_string(static_cast<int>(phase)) +
                            " escape=" + std::to_string(on_escape));
            }
          }
        }
      }
    }
  }
}

TEST(VcRoutingTable, SingleClassUpDownMatchesNextHops) {
  for (const TableNet& net : TableNets()) {
    const UpDownRouting routing(net.graph);
    ExpectSingleClassTable(routing, net.name);
  }
}

TEST(VcRoutingTable, SingleClassShortestPathMatchesNextHops) {
  for (const TableNet& net : TableNets()) {
    const route::ShortestPathRouting routing(net.graph);
    ExpectSingleClassTable(routing, net.name);
  }
}

TEST(VcRoutingTable, SingleClassDegradedMatchesNextHops) {
  for (const TableNet& net : TableNets()) {
    // A link fault keeps every switch; a switch fault leaves one uncovered,
    // whose rows (as source or destination) must all be empty.
    faults::DegradedView link_down(net.graph);
    const topo::Link& first = net.graph.link(0);
    link_down.FailLink(first.a, first.b);
    const faults::DegradedRouting after_link(net.graph, link_down.Reconfigure(true));
    ExpectSingleClassTable(after_link, net.name + "/link-fault");

    faults::DegradedView switch_down(net.graph);
    switch_down.FailSwitch(1);
    const faults::DegradedRouting after_switch(net.graph, switch_down.Reconfigure(true));
    ASSERT_FALSE(after_switch.Covers(1));
    ExpectSingleClassTable(after_switch, net.name + "/switch-fault");
    const SingleClassVcPolicy policy(after_switch, 2, true);
    EXPECT_TRUE(policy.Candidates(1, 0, Phase::kUp, false).empty());
    EXPECT_TRUE(policy.Candidates(0, 1, Phase::kUp, false).empty());
  }
}

TEST(VcRoutingTable, DuatoMatchesNextHops) {
  for (const TableNet& net : TableNets()) {
    const std::size_t n = net.graph.switch_count();
    for (const std::size_t vcs : {2u, 3u}) {
      const DuatoFullyAdaptivePolicy policy(net.graph, vcs);
      const UpDownRouting& escape = policy.escape_routing();
      for (topo::SwitchId s = 0; s < n; ++s) {
        for (topo::SwitchId t = 0; t < n; ++t) {
          const auto adaptive = ReferenceDuatoAdaptive(policy, s, t);
          for (const Phase phase : {Phase::kUp, Phase::kDown}) {
            const std::string where = net.name + " vcs=" + std::to_string(vcs) +
                                      " s=" + std::to_string(s) + " t=" + std::to_string(t) +
                                      " phase=" + std::to_string(static_cast<int>(phase));
            ExpectRow(policy.Candidates(s, t, phase, false), adaptive, where);
            const auto hops = escape.NextHops(s, t, phase);
            if (hops.empty()) {
              EXPECT_THROW((void)policy.Candidates(s, t, phase, true), ContractError) << where;
            } else {
              ExpectRow(policy.Candidates(s, t, phase, true),
                        {Expand(net.graph, s, hops[0], 0, true)}, where + " on-escape");
            }
          }
        }
      }
    }
  }
}

TEST(VcRoutingTable, DuatoEscapeCheckThrowsInUnreachableState) {
  const topo::SwitchGraph g = topo::MakeFourRingsOfSix();
  const DuatoFullyAdaptivePolicy policy(g, 2);
  std::size_t unreachable = 0;
  for (topo::SwitchId s = 0; s < g.switch_count(); ++s) {
    for (topo::SwitchId t = 0; t < g.switch_count(); ++t) {
      if (s == t || !policy.escape_routing().NextHops(s, t, Phase::kDown).empty()) continue;
      ++unreachable;
      EXPECT_THROW((void)policy.Candidates(s, t, Phase::kDown, /*on_escape=*/true),
                   ContractError);
      // The adaptive row of the same state is still served.
      EXPECT_FALSE(policy.Candidates(s, t, Phase::kDown, /*on_escape=*/false).empty());
    }
  }
  EXPECT_GT(unreachable, 0u) << "no descending dead end to probe";
}

TEST(VcRoutingTable, RejectsOutOfRangeSwitches) {
  const topo::SwitchGraph g = topo::MakeRing(6);
  const UpDownRouting ud(g, topo::SwitchId{0});
  EXPECT_THROW((void)SingleClassVcPolicy(ud, 2, true).Candidates(6, 0, Phase::kUp, false),
               ContractError);
  EXPECT_THROW((void)DuatoFullyAdaptivePolicy(g, 2).Candidates(0, 6, Phase::kUp, false),
               ContractError);
}

}  // namespace
}  // namespace commsched::sim
