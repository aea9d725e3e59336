// Exact link-set property: LinksOnMinimalPaths(s, t) is precisely the sorted
// union of the links on every minimal permitted path, as enumerated one path
// at a time through NextHops. Every ordered pair, on irregular and ring
// networks, under both up*/down* and unrestricted shortest-path routing.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "routing/shortest_path.h"
#include "routing/updown.h"
#include "topology/generator.h"
#include "topology/library.h"

namespace commsched::route {
namespace {

struct NamedNet {
  std::string name;
  topo::SwitchGraph graph;
};

std::vector<NamedNet> Nets() {
  std::vector<NamedNet> nets;
  for (const std::size_t switches : {8u, 16u, 24u}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      topo::IrregularTopologyOptions options;
      options.switch_count = switches;
      options.seed = seed;
      nets.push_back({"irregular" + std::to_string(switches) + ".seed" + std::to_string(seed),
                      topo::GenerateIrregularTopology(options)});
    }
  }
  for (const std::size_t n : {5u, 6u, 9u}) {
    nets.push_back({"ring" + std::to_string(n), topo::MakeRing(n)});
  }
  nets.push_back({"rings24", topo::MakeFourRingsOfSix()});
  return nets;
}

/// Sorted union of the links along every enumerated minimal path.
std::vector<LinkId> UnionOfEnumeratedPaths(const Routing& routing, SwitchId s, SwitchId t) {
  std::vector<LinkId> links;
  for (const std::vector<SwitchId>& path : EnumerateMinimalPaths(routing, s, t)) {
    for (std::size_t k = 0; k + 1 < path.size(); ++k) {
      const auto link = routing.graph().FindLink(path[k], path[k + 1]);
      EXPECT_TRUE(link.has_value());
      if (link) links.push_back(*link);
    }
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  return links;
}

void ExpectExactLinkSets(const Routing& routing, const std::string& name) {
  const std::size_t n = routing.graph().switch_count();
  for (SwitchId s = 0; s < n; ++s) {
    for (SwitchId t = 0; t < n; ++t) {
      const std::vector<LinkId> links = routing.LinksOnMinimalPaths(s, t);
      if (s == t) {
        EXPECT_TRUE(links.empty()) << name;
        continue;
      }
      ASSERT_EQ(links, UnionOfEnumeratedPaths(routing, s, t))
          << name << " " << routing.Name() << " s=" << s << " t=" << t;
    }
  }
}

TEST(MinimalLinkSets, UpDownEqualsUnionOfEnumeratedPaths) {
  for (const NamedNet& net : Nets()) {
    ExpectExactLinkSets(UpDownRouting(net.graph), net.name);
  }
}

TEST(MinimalLinkSets, ShortestPathEqualsUnionOfEnumeratedPaths) {
  for (const NamedNet& net : Nets()) {
    ExpectExactLinkSets(ShortestPathRouting(net.graph), net.name);
  }
}

}  // namespace
}  // namespace commsched::route
