// Heap allocations per simulated cycle. This binary replaces the global
// operator new with a counting one, so it is built as its own executable.
//
// Routing a header is a lookup into the policy's precomputed candidate
// table, so a warm simulator allocates only O(1)-per-run bookkeeping and
// the occasional deque node or metric name, far below one allocation per
// cycle.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "core/commsched.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace commsched::sim {
namespace {

/// The micro_simnet bench fixture: random irregular net, four uniform
/// applications, one random aligned mapping.
struct AllocFixture {
  topo::SwitchGraph graph;
  route::UpDownRouting routing;
  work::Workload workload;
  work::ProcessMapping mapping;
  TrafficPattern pattern;

  explicit AllocFixture(std::size_t switches)
      : graph(topo::GenerateIrregularTopology({switches, 4, 3, 1, 1000})),
        routing(graph),
        workload(work::Workload::Uniform(4, switches)),
        mapping(Make(graph, workload)),
        pattern(graph, workload, mapping) {}

  static work::ProcessMapping Make(const topo::SwitchGraph& g, const work::Workload& w) {
    Rng rng(1);
    return work::ProcessMapping::RandomAligned(g, w, rng);
  }
};

class SimAlloc : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(SimAlloc, WarmRunAllocatesFarLessThanOncePerCycle) {
  const auto [switches, load] = GetParam();
  const AllocFixture f(switches);
  SimConfig config;
  config.warmup_cycles = 1000;
  config.measure_cycles = 4000;
  NetworkSimulator simulator(f.graph, f.routing, f.pattern, config);
  (void)simulator.Run(load);  // warm: buffers and pools reach steady size

  g_allocations.store(0);
  g_counting.store(true);
  const SimMetrics metrics = simulator.Run(load);
  g_counting.store(false);

  const std::size_t cycles = config.warmup_cycles + config.measure_cycles;
  const double per_cycle =
      static_cast<double>(g_allocations.load()) / static_cast<double>(cycles);
  RecordProperty("allocations_per_cycle", std::to_string(per_cycle));
  EXPECT_GT(metrics.messages_delivered, 0u);
  EXPECT_LT(per_cycle, 0.2) << g_allocations.load() << " allocations in " << cycles
                            << " cycles";
}

INSTANTIATE_TEST_SUITE_P(MicroSimnetNets, SimAlloc,
                         ::testing::Combine(::testing::Values<std::size_t>(16, 24),
                                            ::testing::Values(0.3, 1.4)));

}  // namespace
}  // namespace commsched::sim
