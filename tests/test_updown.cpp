#include "routing/updown.h"

#include <gtest/gtest.h>

#include "topology/generator.h"
#include "topology/library.h"

namespace commsched::route {
namespace {

using topo::GenerateIrregularTopology;
using topo::IrregularTopologyOptions;
using topo::MakeRing;
using topo::MakeStar;

TEST(UpDown, RootPolicies) {
  const topo::SwitchGraph star = MakeStar(4);  // hub 0
  EXPECT_EQ(SelectRoot(star, RootPolicy::kLowestId), 0u);
  EXPECT_EQ(SelectRoot(star, RootPolicy::kMaxDegree), 0u);
  EXPECT_EQ(SelectRoot(star, RootPolicy::kMinEccentricity), 0u);

  topo::SwitchGraph path(5, 1);  // 0-1-2-3-4: center is 2
  for (std::size_t i = 0; i + 1 < 5; ++i) path.AddLink(i, i + 1);
  EXPECT_EQ(SelectRoot(path, RootPolicy::kMinEccentricity), 2u);
}

TEST(UpDown, LevelsFollowBfs) {
  topo::SwitchGraph path(4, 1);
  for (std::size_t i = 0; i + 1 < 4; ++i) path.AddLink(i, i + 1);
  const UpDownRouting routing(path, topo::SwitchId{0});
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(routing.Level(i), i);
  }
  EXPECT_EQ(routing.root(), 0u);
}

TEST(UpDown, UpEndIsCloserToRoot) {
  const topo::SwitchGraph ring = MakeRing(6);
  const UpDownRouting routing(ring, topo::SwitchId{0});
  for (topo::LinkId l = 0; l < ring.link_count(); ++l) {
    const topo::Link& link = ring.link(l);
    const topo::SwitchId up = routing.UpEnd(l);
    const topo::SwitchId down = ring.OtherEnd(l, up);
    if (routing.Level(up) != routing.Level(down)) {
      EXPECT_LT(routing.Level(up), routing.Level(down));
    } else {
      EXPECT_LT(up, down);  // Autonet tie-break by id
    }
    EXPECT_TRUE(routing.IsUpTraversal(l, down));
    EXPECT_FALSE(routing.IsUpTraversal(l, up));
    (void)link;
  }
}

TEST(UpDown, MinimalDistanceOnPathEqualsHops) {
  topo::SwitchGraph path(5, 1);
  for (std::size_t i = 0; i + 1 < 5; ++i) path.AddLink(i, i + 1);
  const UpDownRouting routing(path, topo::SwitchId{0});
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(routing.MinimalDistance(i, j), i > j ? i - j : j - i);
    }
  }
}

TEST(UpDown, RingDistancesCanExceedPhysicalShortestPath) {
  // In a 6-ring rooted at 0, the up*/down* path between some neighbours of
  // the "bottom" is forced the long way: between 2 and 4 (levels 2,2 via
  // opposite sides) the legal distance exceeds the physical 2.
  const topo::SwitchGraph ring = MakeRing(6);
  const UpDownRouting routing(ring, topo::SwitchId{0});
  bool some_pair_longer = false;
  const auto hops = ring.AllPairsHopDistance();
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_GE(routing.MinimalDistance(i, j), hops[i][j]);
      if (routing.MinimalDistance(i, j) > hops[i][j]) some_pair_longer = true;
    }
  }
  EXPECT_TRUE(some_pair_longer);
}

TEST(UpDown, NextHopsLeadToDestination) {
  IrregularTopologyOptions options;
  options.switch_count = 16;
  options.seed = 11;
  const topo::SwitchGraph g = GenerateIrregularTopology(options);
  const UpDownRouting routing(g);
  // Walk the deterministic (first-candidate) route for every pair and check
  // it arrives with exactly MinimalDistance hops and legal phases.
  for (topo::SwitchId s = 0; s < 16; ++s) {
    for (topo::SwitchId t = 0; t < 16; ++t) {
      if (s == t) continue;
      topo::SwitchId at = s;
      Phase phase = Phase::kUp;
      std::size_t hops = 0;
      bool went_down = false;
      while (at != t) {
        const auto next = routing.NextHops(at, t, phase);
        ASSERT_FALSE(next.empty());
        const NextHop& hop = next.front();
        // Legality: never up after down.
        const bool is_up = routing.IsUpTraversal(hop.link, at);
        if (went_down) {
          EXPECT_FALSE(is_up);
        }
        if (!is_up) went_down = true;
        at = hop.next;
        phase = hop.phase;
        ++hops;
        ASSERT_LE(hops, 32u) << "routing loop";
      }
      EXPECT_EQ(hops, routing.MinimalDistance(s, t));
    }
  }
}

TEST(UpDown, NextHopsEmptyAtDestination) {
  const topo::SwitchGraph ring = MakeRing(4);
  const UpDownRouting routing(ring, topo::SwitchId{0});
  EXPECT_TRUE(routing.NextHops(2, 2, Phase::kUp).empty());
}

TEST(UpDown, ArrivalPhaseMatchesTraversalDirection) {
  const topo::SwitchGraph ring = MakeRing(4);
  const UpDownRouting routing(ring, topo::SwitchId{0});
  for (topo::LinkId l = 0; l < ring.link_count(); ++l) {
    const topo::SwitchId up = routing.UpEnd(l);
    const topo::SwitchId down = ring.OtherEnd(l, up);
    EXPECT_EQ(routing.ArrivalPhase(l, up), Phase::kUp);      // moved upward
    EXPECT_EQ(routing.ArrivalPhase(l, down), Phase::kDown);  // moved downward
  }
}

TEST(UpDown, LinksOnMinimalPathsContainsAWholePath) {
  IrregularTopologyOptions options;
  options.switch_count = 12;
  options.seed = 4;
  const topo::SwitchGraph g = GenerateIrregularTopology(options);
  const UpDownRouting routing(g);
  for (topo::SwitchId s = 0; s < 12; ++s) {
    for (topo::SwitchId t = s + 1; t < 12; ++t) {
      const auto links = routing.LinksOnMinimalPaths(s, t);
      ASSERT_FALSE(links.empty());
      EXPECT_GE(links.size(), routing.MinimalDistance(s, t));
      // The deterministic route's links must all be in the set.
      topo::SwitchId at = s;
      Phase phase = Phase::kUp;
      while (at != t) {
        const NextHop hop = routing.NextHops(at, t, phase).front();
        EXPECT_NE(std::find(links.begin(), links.end(), hop.link), links.end());
        at = hop.next;
        phase = hop.phase;
      }
    }
  }
}

TEST(UpDown, LinksOnMinimalPathsEmptyForSamePair) {
  const topo::SwitchGraph ring = MakeRing(4);
  const UpDownRouting routing(ring, topo::SwitchId{0});
  EXPECT_TRUE(routing.LinksOnMinimalPaths(1, 1).empty());
}

TEST(UpDown, EnumerateMinimalPathsAllMinimalAndLegal) {
  IrregularTopologyOptions options;
  options.switch_count = 10;
  options.seed = 21;
  const topo::SwitchGraph g = GenerateIrregularTopology(options);
  const UpDownRouting routing(g);
  for (topo::SwitchId s = 0; s < 10; ++s) {
    for (topo::SwitchId t = 0; t < 10; ++t) {
      if (s == t) continue;
      const auto paths = EnumerateMinimalPaths(routing, s, t);
      ASSERT_FALSE(paths.empty());
      for (const auto& path : paths) {
        EXPECT_EQ(path.front(), s);
        EXPECT_EQ(path.back(), t);
        EXPECT_EQ(path.size(), routing.MinimalDistance(s, t) + 1);
      }
    }
  }
}

TEST(UpDown, DisconnectedGraphRejected) {
  topo::SwitchGraph g(4, 1);
  g.AddLink(0, 1);
  g.AddLink(2, 3);
  try {
    UpDownRouting routing(g);
    FAIL() << "expected DisconnectedGraphError";
  } catch (const DisconnectedGraphError& e) {
    // Root policy kMaxDegree picks switch 0 (all tie at degree 1), so the
    // stranded component {2, 3} must be named, in order.
    EXPECT_EQ(e.unreachable_switches(), (std::vector<SwitchId>{2, 3}));
    EXPECT_NE(std::string(e.what()).find("{2, 3}"), std::string::npos) << e.what();
  }
  // The typed error is user-facing configuration feedback, not a contract
  // violation — it must be catchable as ConfigError.
  EXPECT_THROW(UpDownRouting routing(g), commsched::ConfigError);
}

TEST(UpDown, StarRoutesThroughHub) {
  const topo::SwitchGraph star = MakeStar(4);
  const UpDownRouting routing(star);
  EXPECT_EQ(routing.MinimalDistance(1, 2), 2u);
  const auto hops = routing.NextHops(1, 2, Phase::kUp);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops.front().next, 0u);
}

}  // namespace
}  // namespace commsched::route
