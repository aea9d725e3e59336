// Frozen multilevel maps: per case, the FNV-1a-64 digest of the raw bytes of
// switch_of_process, the bit pattern of the final cost and the coarsest-level
// engine's evaluation count. Any change to the coarsest-level scan that moves
// a single decision (a different move, a different tie, one ulp of cost)
// fails here.
//
// The golden was captured before the engine scan learned to skip candidates
// by their swap-cost bounds and must not change with it. Regenerate only
// after an intentional change to the multilevel pipeline's arithmetic:
//
//   COMMSCHED_UPDATE_GOLDEN=1 ./build/tests/test_multilevel_golden
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "distance/distance_table.h"
#include "routing/updown.h"
#include "sched/multilevel/multilevel.h"
#include "service/cache.h"
#include "topology/generator.h"
#include "topology/library.h"
#include "workload/procgen.h"

namespace commsched::sched::ml {
namespace {

#ifndef COMMSCHED_TEST_DATA_DIR
#define COMMSCHED_TEST_DATA_DIR "tests/data"
#endif

const char* const kGoldenPath = COMMSCHED_TEST_DATA_DIR "/multilevel.golden.txt";

using Digests = std::map<std::string, std::string>;

struct GoldenCase {
  std::string name;
  std::function<topo::SwitchGraph()> fabric;
  std::function<qual::CommGraph()> processes;
  bool hops = false;  // BuildGraphHops instead of the up*/down* resistance table
  std::uint64_t rng_seed = 1;
};

topo::SwitchGraph Irregular48() {
  topo::IrregularTopologyOptions options;
  options.switch_count = 48;
  options.seed = 1;
  return topo::GenerateIrregularTopology(options);
}

std::vector<GoldenCase> Cases() {
  std::vector<GoldenCase> cases;
  for (const std::uint64_t seed : {1u, 97u}) {
    cases.push_back({"grid10k.torus6.hops.seed" + std::to_string(seed),
                     [] { return topo::MakeTorus3D(6, 6, 6, 64); },
                     [] { return work::MakeGridComm(10000); }, true, seed});
  }
  cases.push_back({"ring150.irregular48.resistance", Irregular48,
                   [] { return work::MakeRingComm(150); }});
  cases.push_back({"random160.irregular48.resistance", Irregular48,
                   [] { return work::MakeRandomComm(160, 4, 7); }});
  // 180 of 192 host slots: coarse vertices of sizes 1-4 packed this tightly
  // make about 44% of the engine's candidates unequal-size swaps that would
  // overflow a switch (inadmissible, NaN cost).
  cases.push_back({"random180.irregular48.resistance.tight", Irregular48,
                   [] { return work::MakeRandomComm(180, 5, 3); }, false, 5});
  return cases;
}

std::string Digest(const MultilevelResult& result) {
  const std::vector<std::size_t>& map = result.switch_of_process;
  const std::string_view bytes(reinterpret_cast<const char*>(map.data()),
                               map.size() * sizeof(std::size_t));
  std::uint64_t cost_bits = 0;
  std::memcpy(&cost_bits, &result.cost, sizeof(cost_bits));
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "%016llx %016llx %llu",
                static_cast<unsigned long long>(svc::HashBytes(bytes)),
                static_cast<unsigned long long>(cost_bits),
                static_cast<unsigned long long>(result.engine_evaluations));
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

TEST(MultilevelGolden, MapsMatchFrozenDigests) {
  Digests current;
  for (const GoldenCase& c : Cases()) {
    const topo::SwitchGraph fabric = c.fabric();
    const dist::DistanceTable table =
        c.hops ? dist::DistanceTable::BuildGraphHops(fabric)
               : dist::DistanceTable::Build(route::UpDownRouting(fabric));
    const qual::CommGraph processes = c.processes();
    MultilevelOptions options;
    options.rng_seed = c.rng_seed;
    const MultilevelResult result =
        MapMultilevel(processes, table, fabric.hosts_per_switch(), options);
    EXPECT_GT(result.engine_evaluations, 0u) << c.name << ": the engine must run";
    current[c.name] = Digest(result);
    options.parallel_seeds = true;
    EXPECT_EQ(Digest(MapMultilevel(processes, table, fabric.hosts_per_switch(), options)),
              current[c.name])
        << c.name << ": parallel seeds";
  }

  if (std::getenv("COMMSCHED_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << "# per case: FNV-1a-64 of switch_of_process raw bytes, cost bits, engine evaluations\n";
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
}  // namespace commsched::sched::ml
