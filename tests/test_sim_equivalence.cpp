// Differential test of the simulator's two execution schedules.
//
// Every phase sweeps the same active sets in ascending index order.
// ExecMode::kCycle arms every element each cycle and never skips time (the
// dense reference schedule); ExecMode::kEvent arms only elements with due
// work and skips idle spans. Visiting an idle element has no effect, so the
// two schedules must agree exactly: every SimMetrics field and every
// SimTotals field of a cycle-mode run equals the same run in event mode.
//
// The grid covers irregular 16/24/32-switch nets and four-rings-of-six,
// loads from 0.05 to 1.4 (past saturation), 1-3 virtual channels,
// deterministic, adaptive and Duato routing, mid-run link and switch faults
// with 0 and 64 cycles of reconfiguration downtime, the checked-in fault
// plans under tests/data, drained-run termination, and a real deadlock of
// shortest-path routing on a 1-VC ring.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "routing/shortest_path.h"
#include "routing/updown.h"
#include "simnet/simulator.h"
#include "topology/generator.h"
#include "topology/library.h"

#ifndef COMMSCHED_TEST_DATA_DIR
#define COMMSCHED_TEST_DATA_DIR "tests/data"
#endif

namespace commsched::sim {
namespace {

struct Fixture {
  topo::SwitchGraph graph;
  route::UpDownRouting routing;
  work::Workload workload;
  work::ProcessMapping mapping;
  TrafficPattern pattern;

  explicit Fixture(topo::SwitchGraph g, std::uint64_t seed = 1)
      : graph(std::move(g)),
        routing(graph),
        workload(work::Workload::Uniform(4, graph.host_count() / 4)),
        mapping(MakeMapping(graph, workload, seed)),
        pattern(graph, workload, mapping) {}

  static work::ProcessMapping MakeMapping(const topo::SwitchGraph& g,
                                          const work::Workload& w, std::uint64_t seed) {
    Rng rng(seed);
    return work::ProcessMapping::RandomAligned(g, w, rng);
  }
};

SimConfig HarnessConfig(ExecMode mode, std::uint64_t seed) {
  SimConfig config;
  config.exec_mode = mode;
  config.warmup_cycles = 800;
  config.measure_cycles = 2500;
  config.rng_seed = seed;
  return config;
}

struct Outcome {
  SimMetrics metrics;
  SimTotals totals;
};

Outcome RunOnce(NetworkSimulator& sim, double rate) {
  Outcome outcome;
  outcome.metrics = sim.Run(rate);
  outcome.totals = sim.Totals();
  return outcome;
}

Outcome RunMode(const Fixture& f, SimConfig config, ExecMode mode, double rate) {
  config.exec_mode = mode;
  NetworkSimulator sim(f.graph, f.routing, f.pattern, config);
  return RunOnce(sim, rate);
}

/// Every SimMetrics and SimTotals field must be equal; doubles too, since
/// both schedules perform the same arithmetic in the same order.
void ExpectIdentical(const Outcome& cycle, const Outcome& event, const std::string& where) {
  SCOPED_TRACE(where);
  const SimMetrics& a = cycle.metrics;
  const SimMetrics& b = event.metrics;
  EXPECT_EQ(a.offered_flits_per_switch_cycle, b.offered_flits_per_switch_cycle);
  EXPECT_EQ(a.accepted_flits_per_switch_cycle, b.accepted_flits_per_switch_cycle);
  EXPECT_EQ(a.avg_latency_cycles, b.avg_latency_cycles);
  EXPECT_EQ(a.avg_total_latency_cycles, b.avg_total_latency_cycles);
  EXPECT_EQ(a.p50_latency_cycles, b.p50_latency_cycles);
  EXPECT_EQ(a.p95_latency_cycles, b.p95_latency_cycles);
  EXPECT_EQ(a.p99_latency_cycles, b.p99_latency_cycles);
  EXPECT_EQ(a.max_latency_cycles, b.max_latency_cycles);
  EXPECT_EQ(a.messages_generated, b.messages_generated);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.simulated_cycles, b.simulated_cycles);
  EXPECT_EQ(a.source_queue_growth, b.source_queue_growth);
  EXPECT_EQ(a.max_link_utilization, b.max_link_utilization);
  EXPECT_EQ(a.avg_link_utilization, b.avg_link_utilization);
  EXPECT_EQ(a.deadlock_detected, b.deadlock_detected);
  EXPECT_EQ(a.fault_events_applied, b.fault_events_applied);
  EXPECT_EQ(a.dropped_flits, b.dropped_flits);
  EXPECT_EQ(a.messages_lost, b.messages_lost);
  EXPECT_EQ(a.reconfig_cycles, b.reconfig_cycles);
  EXPECT_EQ(a.switch_pair_flit_rate, b.switch_pair_flit_rate);
  ASSERT_EQ(a.per_app.size(), b.per_app.size());
  for (std::size_t app = 0; app < a.per_app.size(); ++app) {
    EXPECT_EQ(a.per_app[app].messages_delivered, b.per_app[app].messages_delivered) << app;
    EXPECT_EQ(a.per_app[app].flits_delivered, b.per_app[app].flits_delivered) << app;
    EXPECT_EQ(a.per_app[app].avg_latency_cycles, b.per_app[app].avg_latency_cycles) << app;
  }
  // The defaulted operator== also covers any field added after this list.
  EXPECT_TRUE(a == b);

  const SimTotals& x = cycle.totals;
  const SimTotals& y = event.totals;
  EXPECT_EQ(x.flits_injected, y.flits_injected);
  EXPECT_EQ(x.flits_delivered, y.flits_delivered);
  EXPECT_EQ(x.flits_dropped, y.flits_dropped);
  EXPECT_EQ(x.flits_in_network, y.flits_in_network);
  EXPECT_EQ(x.messages_enqueued, y.messages_enqueued);
  EXPECT_EQ(x.messages_born_dead, y.messages_born_dead);
  EXPECT_EQ(x.messages_lost, y.messages_lost);
  EXPECT_EQ(x.pool_live, y.pool_live);
  EXPECT_TRUE(x == y);
}

void ExpectModesIdentical(const Fixture& f, const SimConfig& config, double rate,
                          const std::string& where) {
  ExpectIdentical(RunMode(f, config, ExecMode::kCycle, rate),
                  RunMode(f, config, ExecMode::kEvent, rate), where);
}

void ExpectSeedsIdentical(const Fixture& f, double rate, std::uint64_t seeds) {
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    ExpectModesIdentical(f, HarnessConfig(ExecMode::kCycle, seed), rate,
                         "seed " + std::to_string(seed));
  }
}

/// Loads x VCs x deterministic/adaptive, with the traffic matrix on so
/// switch_pair_flit_rate is compared too.
void ExpectGridIdentical(const Fixture& f) {
  for (const double rate : {0.05, 0.3, 0.7, 1.4}) {
    for (const std::size_t vcs : {1u, 2u, 3u}) {
      for (const bool adaptive : {false, true}) {
        SimConfig config;
        config.warmup_cycles = 300;
        config.measure_cycles = 900;
        config.virtual_channels = vcs;
        config.adaptive_routing = adaptive;
        config.collect_traffic_matrix = true;
        config.rng_seed = 7;
        ExpectModesIdentical(f, config, rate,
                             "rate " + std::to_string(rate) + " vcs " + std::to_string(vcs) +
                                 (adaptive ? " adaptive" : " deterministic"));
      }
    }
  }
}

TEST(SimEquivalence, IrregularTopologyLowLoad) {
  const Fixture f(topo::GenerateIrregularTopology({16, 4, 3, 1, 1000}));
  ExpectSeedsIdentical(f, 0.08, 8);
}

TEST(SimEquivalence, IrregularTopologyModerateLoad) {
  const Fixture f(topo::GenerateIrregularTopology({16, 4, 3, 1, 1000}));
  ExpectSeedsIdentical(f, 0.45, 8);
}

TEST(SimEquivalence, RingsTopologyLowLoad) {
  const Fixture f(topo::MakeFourRingsOfSix());
  ExpectSeedsIdentical(f, 0.08, 8);
}

TEST(SimEquivalence, RingsTopologyModerateLoad) {
  const Fixture f(topo::MakeFourRingsOfSix());
  ExpectSeedsIdentical(f, 0.45, 8);
}

TEST(SimEquivalence, Irregular16GridMatchesExactly) {
  ExpectGridIdentical(Fixture(topo::GenerateIrregularTopology({16, 4, 3, 1, 1000})));
}

TEST(SimEquivalence, Irregular24GridMatchesExactly) {
  ExpectGridIdentical(Fixture(topo::GenerateIrregularTopology({24, 4, 3, 2, 1000}), 2));
}

TEST(SimEquivalence, Irregular32GridMatchesExactly) {
  ExpectGridIdentical(Fixture(topo::GenerateIrregularTopology({32, 4, 3, 3, 1000}), 3));
}

TEST(SimEquivalence, RingsGridMatchesExactly) {
  ExpectGridIdentical(Fixture(topo::MakeFourRingsOfSix(), 4));
}

// Duato fully-adaptive routing goes through the explicit-policy
// constructor: escape commitments and multi-VC candidates.
TEST(SimEquivalence, DuatoPolicyMatchesExactly) {
  const Fixture f(topo::GenerateIrregularTopology({24, 4, 3, 2, 1000}), 2);
  for (const std::size_t vcs : {2u, 3u}) {
    const DuatoFullyAdaptivePolicy policy(f.graph, vcs);
    for (const double rate : {0.1, 0.6, 1.4}) {
      SimConfig config;
      config.warmup_cycles = 400;
      config.measure_cycles = 1200;
      config.virtual_channels = vcs;
      Outcome outcome[2];
      int i = 0;
      for (const ExecMode mode : {ExecMode::kCycle, ExecMode::kEvent}) {
        config.exec_mode = mode;
        NetworkSimulator sim(f.graph, policy, f.pattern, config);
        outcome[i++] = RunOnce(sim, rate);
      }
      ExpectIdentical(outcome[0], outcome[1],
                      "vcs " + std::to_string(vcs) + " rate " + std::to_string(rate));
    }
  }
}

// Faults strike a loaded network: purges, reconfiguration windows and the
// routing swap must leave both schedules in the same state.
TEST(SimEquivalence, MidRunFaultGridMatchesExactly) {
  const Fixture rings(topo::MakeFourRingsOfSix());
  const Fixture irregular(topo::GenerateIrregularTopology({24, 4, 3, 2, 1000}), 2);
  for (const Fixture* f : {&rings, &irregular}) {
    const topo::Link link = f->graph.link(0);
    const faults::FaultPlan link_plan = faults::FaultPlan::FromEvents(
        {{500, faults::FaultKind::kLinkDown, link.a, link.b, 0},
         {900, faults::FaultKind::kLinkUp, link.a, link.b, 0}});
    const faults::FaultPlan switch_plan =
        faults::FaultPlan::FromEvents({{700, faults::FaultKind::kSwitchDown, 0, 0, 3}});
    for (const faults::FaultPlan* plan : {&link_plan, &switch_plan}) {
      for (const std::size_t downtime : {0u, 64u}) {
        for (const std::size_t vcs : {1u, 2u}) {
          for (const double rate : {0.2, 0.8}) {
            SimConfig config;
            config.warmup_cycles = 300;
            config.measure_cycles = 900;
            config.virtual_channels = vcs;
            config.fault_plan = plan;
            config.reconfig_downtime_cycles = downtime;
            ExpectModesIdentical(*f, config, rate,
                                 std::string(f == &rings ? "rings" : "irregular24") +
                                     (plan == &link_plan ? " link" : " switch") +
                                     " downtime " + std::to_string(downtime) + " vcs " +
                                     std::to_string(vcs) + " rate " + std::to_string(rate));
          }
        }
      }
    }
  }
}

// ---- checked-in fault plans -----------------------------------------------

std::string ReadDataFile(const std::string& name) {
  const std::string path = std::string(COMMSCHED_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing test data file " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Outcome ReplayPlan(const Fixture& f, const faults::FaultPlan& plan, ExecMode mode, double rate) {
  SimConfig config;
  config.warmup_cycles = 1200;
  config.measure_cycles = 3000;
  config.fault_plan = &plan;
  return RunMode(f, config, mode, rate);
}

// A switch dies at cycle 1, before anything is in flight.
TEST(SimEquivalence, SwitchDownPlanMatchesExactly) {
  const Fixture f(topo::MakeFourRingsOfSix());
  const auto plan = faults::FaultPlan::FromJson(ReadDataFile("faultplan_diff_switch.json"));
  plan.ValidateFor(f.graph);
  const Outcome cycle = ReplayPlan(f, plan, ExecMode::kCycle, 0.25);
  const Outcome event = ReplayPlan(f, plan, ExecMode::kEvent, 0.25);

  EXPECT_EQ(cycle.metrics.fault_events_applied, 1u);
  EXPECT_GT(cycle.metrics.messages_lost, 0u);  // the check must bite
  EXPECT_EQ(cycle.metrics.reconfig_cycles, 128u);  // default downtime window
  ExpectIdentical(cycle, event, "faultplan_diff_switch.json");
}

// Two redundant ring links die at cycle 1: the surviving graph stays
// connected and nothing was in flight, so no schedule may lose anything.
TEST(SimEquivalence, RedundantLinksPlanLosesNothingInBothModes) {
  const Fixture f(topo::MakeFourRingsOfSix());
  const auto plan = faults::FaultPlan::FromJson(ReadDataFile("faultplan_diff_links.json"));
  plan.ValidateFor(f.graph);
  const Outcome cycle = ReplayPlan(f, plan, ExecMode::kCycle, 0.2);
  const Outcome event = ReplayPlan(f, plan, ExecMode::kEvent, 0.2);

  for (const Outcome* o : {&cycle, &event}) {
    EXPECT_EQ(o->metrics.fault_events_applied, 2u);
    EXPECT_EQ(o->metrics.messages_lost, 0u);
    EXPECT_EQ(o->metrics.dropped_flits, 0u);
    EXPECT_EQ(o->metrics.reconfig_cycles, 128u);
  }
  ExpectIdentical(cycle, event, "faultplan_diff_links.json");
}

// A link dies under load and comes back: in-flight losses depend on the
// exact flit interleaving, so equal loss counts show the schedules agree.
TEST(SimEquivalence, MidRunFaultCountersMatch) {
  const Fixture f(topo::MakeFourRingsOfSix());
  const auto plan = faults::FaultPlan::FromEvents(
      {{1500, faults::FaultKind::kLinkDown, 0, 1, 0},
       {2600, faults::FaultKind::kLinkUp, 0, 1, 0}});
  const Outcome cycle = ReplayPlan(f, plan, ExecMode::kCycle, 0.2);
  const Outcome event = ReplayPlan(f, plan, ExecMode::kEvent, 0.2);

  EXPECT_EQ(cycle.metrics.fault_events_applied, 2u);
  EXPECT_EQ(event.metrics.fault_events_applied, 2u);
  EXPECT_EQ(event.metrics.reconfig_cycles, cycle.metrics.reconfig_cycles);
  EXPECT_EQ(event.metrics.simulated_cycles, cycle.metrics.simulated_cycles);
  EXPECT_EQ(event.metrics.messages_lost, cycle.metrics.messages_lost);
  EXPECT_EQ(event.metrics.dropped_flits, cycle.metrics.dropped_flits);
  EXPECT_EQ(event.totals.messages_lost, cycle.totals.messages_lost);
  EXPECT_EQ(event.totals.flits_dropped, cycle.totals.flits_dropped);
}

// ---- termination ------------------------------------------------------------

// A drained run (no deadlock) terminates at warmup + measure in both
// schedules: skipped spans count as simulated cycles, and an emptied event
// queue must not stop the clock early.
TEST(SimEquivalence, DrainedRunsTerminateAtTheSameCycle) {
  const Fixture f(topo::GenerateIrregularTopology({16, 4, 3, 1, 1000}));
  for (const double rate : {0.0, 0.05, 0.4}) {
    SimMetrics by_mode[2];
    int i = 0;
    for (const ExecMode mode : {ExecMode::kCycle, ExecMode::kEvent}) {
      NetworkSimulator sim(f.graph, f.routing, f.pattern, HarnessConfig(mode, 3));
      by_mode[i++] = sim.Run(rate);
    }
    ASSERT_FALSE(by_mode[0].deadlock_detected);
    ASSERT_FALSE(by_mode[1].deadlock_detected);
    EXPECT_EQ(by_mode[0].simulated_cycles, 800u + 2500u) << "rate " << rate;
    EXPECT_EQ(by_mode[1].simulated_cycles, by_mode[0].simulated_cycles)
        << "schedules disagree on the termination cycle at rate " << rate;
  }
}

// Shortest-path routing on a ring is not deadlock-free under wormhole with
// one virtual channel. Both watchdogs must fire, at the same cycle, well
// before the horizon; the skipped idle span counts toward the threshold.
TEST(SimEquivalence, BothWatchdogsDetectRealDeadlock) {
  const auto graph = topo::MakeRing(8, 4);
  const route::ShortestPathRouting routing(graph);
  const auto workload = work::Workload::Uniform(2, 16);
  Rng rng(3);
  const auto mapping = work::ProcessMapping::RandomAligned(graph, workload, rng);
  const TrafficPattern pattern(graph, workload, mapping);
  Outcome outcome[2];
  int i = 0;
  for (const ExecMode mode : {ExecMode::kCycle, ExecMode::kEvent}) {
    SimConfig config;
    config.exec_mode = mode;
    config.message_length_flits = 32;
    config.input_buffer_flits = 2;
    config.warmup_cycles = 4000;
    config.measure_cycles = 12000;
    config.deadlock_threshold_cycles = 1000;
    config.rng_seed = 3;
    NetworkSimulator sim(graph, routing, pattern, config);
    outcome[i++] = RunOnce(sim, 1.6);
  }
  EXPECT_TRUE(outcome[0].metrics.deadlock_detected);
  EXPECT_LT(outcome[0].metrics.simulated_cycles, 16000u);
  EXPECT_EQ(outcome[1].metrics.simulated_cycles, outcome[0].metrics.simulated_cycles)
      << "watchdogs fired at different cycles";
  ExpectIdentical(outcome[0], outcome[1], "ring deadlock");
}

}  // namespace
}  // namespace commsched::sim
