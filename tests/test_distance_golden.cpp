// Frozen equivalent-distance tables: one FNV-1a-64 digest of the raw bytes of
// DistanceTable::values() per network. The digests pin every table to the
// last bit, so any change to link-set extraction or to the resistance solve
// that moves a single ulp anywhere fails here. Serial and parallel builds
// must both match.
//
// The golden was captured before the per-pair solve was rebuilt at
// path-subgraph size and must not change with it. Regenerate only after an
// intentional change to the table's arithmetic:
//
//   COMMSCHED_UPDATE_GOLDEN=1 ./build/tests/test_distance_golden
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "distance/distance_table.h"
#include "routing/shortest_path.h"
#include "routing/updown.h"
#include "service/cache.h"
#include "topology/generator.h"
#include "topology/library.h"

namespace commsched::dist {
namespace {

#ifndef COMMSCHED_TEST_DATA_DIR
#define COMMSCHED_TEST_DATA_DIR "tests/data"
#endif

const char* const kGoldenPath = COMMSCHED_TEST_DATA_DIR "/distance_tables.golden.txt";

using Digests = std::map<std::string, std::string>;

struct GoldenNet {
  std::string name;
  std::function<topo::SwitchGraph()> graph;
  bool shortest_path = false;  // ShortestPathRouting instead of up*/down*
};

std::vector<GoldenNet> Nets() {
  std::vector<GoldenNet> nets;
  for (const std::uint64_t seed : {1u, 97u}) {
    for (const std::size_t switches : {8u, 16u, 24u, 48u, 96u, 192u}) {
      nets.push_back({"irregular" + std::to_string(switches) + ".seed" + std::to_string(seed),
                      [=] {
                        topo::IrregularTopologyOptions options;
                        options.switch_count = switches;
                        options.seed = seed;
                        return topo::GenerateIrregularTopology(options);
                      }});
    }
  }
  nets.push_back({"rings24", [] { return topo::MakeFourRingsOfSix(); }});
  nets.push_back({"torus4x4x4", [] { return topo::MakeTorus3D(4, 4, 4); }});
  nets.push_back({"irregular24.seed1.shortest_path",
                  [] {
                    topo::IrregularTopologyOptions options;
                    options.switch_count = 24;
                    options.seed = 1;
                    return topo::GenerateIrregularTopology(options);
                  },
                  true});
  return nets;
}

std::string Digest(const DistanceTable& table) {
  const std::vector<double>& values = table.values();
  const std::string_view bytes(reinterpret_cast<const char*>(values.data()),
                               values.size() * sizeof(double));
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(svc::HashBytes(bytes)));
  return buffer;
}

Digests LoadGolden() {
  Digests digests;
  std::ifstream in(kGoldenPath);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    digests[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return digests;
}

TEST(DistanceGolden, TablesMatchFrozenDigests) {
  Digests current;
  for (const GoldenNet& net : Nets()) {
    const topo::SwitchGraph graph = net.graph();
    std::unique_ptr<route::Routing> routing;
    if (net.shortest_path) {
      routing = std::make_unique<route::ShortestPathRouting>(graph);
    } else {
      routing = std::make_unique<route::UpDownRouting>(graph);
    }
    const std::string serial = Digest(DistanceTable::Build(*routing, /*parallel=*/false));
    const std::string parallel = Digest(DistanceTable::Build(*routing, /*parallel=*/true));
    EXPECT_EQ(serial, parallel) << net.name;
    current[net.name] = serial;
  }

  if (std::getenv("COMMSCHED_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << "# FNV-1a-64 of DistanceTable::values() raw bytes, per network\n";
    for (const auto& [name, digest] : current) out << name << '=' << digest << '\n';
    GTEST_SKIP() << "golden regenerated at " << kGoldenPath;
  }

  const Digests golden = LoadGolden();
  ASSERT_EQ(golden.size(), current.size()) << "golden file missing or stale: " << kGoldenPath;
  for (const auto& [name, digest] : current) {
    const auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << name << " missing from " << kGoldenPath;
    EXPECT_EQ(digest, it->second) << name;
  }
}

}  // namespace
}  // namespace commsched::dist
