// paper_figs: the paper's §5 evaluation pipeline on both of its networks
// (Fig. 3: the seeded 16-switch irregular net; Fig. 5: four rings of six).
// Each pass builds routing, the equivalent-distance table, the Tabu mapping
// OP, scores OP and the random mappings, sweeps every mapping over S1..S9 in
// the cycle engine and runs S1..S3 in the event engine. Simulation is
// nearly all of the time, so this is the workload simulator changes move.
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/rng.h"
#include "distance/distance_table.h"
#include "harness.h"
#include "obs/obs.h"
#include "quality/quality.h"
#include "routing/updown.h"
#include "sched/tabu.h"
#include "simnet/simulator.h"
#include "simnet/sweep.h"
#include "topology/generator.h"
#include "topology/library.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using namespace commsched;

constexpr std::size_t kApps = 4;
constexpr std::size_t kRandomMappings = 2;  // per network
constexpr std::size_t kEventPoints = 3;     // S1..S3
constexpr std::size_t kWarmupCycles = 1500;
constexpr std::size_t kMeasureCycles = 3000;

struct Network {
  const char* name;
  topo::SwitchGraph graph;
  work::Workload workload;
  sched::TabuOptions tabu;
  std::vector<work::ProcessMapping> random;  // R1..Rk, drawn from the mapping seed
};

std::vector<Network> MakeNetworks(const Options& options, Tracer& tracer, std::int64_t& gen_ns) {
  std::vector<std::pair<const char*, topo::SwitchGraph>> graphs;
  {
    Span span(tracer, "topology.gen");
    topo::IrregularTopologyOptions irregular;
    irregular.switch_count = 16;
    irregular.seed = options.topo_seed;
    graphs.emplace_back("fig3", topo::GenerateIrregularTopology(irregular));
    graphs.emplace_back("fig5", topo::MakeFourRingsOfSix());
    gen_ns = span.Stop();
  }
  Span span(tracer, "workload.gen");
  Rng rng(options.mapping_seed);
  std::vector<Network> nets;
  for (auto& [name, graph] : graphs) {
    const std::size_t per_app = graph.host_count() / kApps;
    Network net{name, std::move(graph), work::Workload::Uniform(kApps, per_app), {}, {}};
    for (std::size_t k = 0; k < kRandomMappings; ++k) {
      net.random.push_back(work::ProcessMapping::RandomAligned(net.graph, net.workload, rng));
    }
    nets.push_back(std::move(net));
  }
  nets[1].tabu.max_iterations_per_seed = 60;  // as bench/fig5_perf24
  return nets;
}

/// Loads of the S1..S9 sweep (bench/bench_util.h PaperSweep's range).
std::vector<double> SweepLoads() {
  sim::SweepOptions sweep;
  sweep.points = 9;
  sweep.min_rate = 0.08;
  sweep.max_rate = 1.4;
  return sim::SweepRates(sweep);
}

/// The simulator seed of sweep point k: RunLoadSweep's derivation (the base
/// seed advanced k + 1 SplitMix64 steps), so every point here is the run
/// RunLoadSweep would make, with its SimTotals in reach.
sim::SimConfig PointConfig(std::size_t k, sim::ExecMode mode) {
  sim::SimConfig config;
  config.exec_mode = mode;
  config.warmup_cycles = kWarmupCycles;
  config.measure_cycles = kMeasureCycles;
  std::uint64_t stream = config.rng_seed;
  for (std::size_t i = 0; i < k + 1; ++i) (void)SplitMix64(stream);
  config.rng_seed = stream;
  return config;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricsLine(const sim::SimMetrics& m) {
  std::ostringstream out;
  out << "offered=" << Num(m.offered_flits_per_switch_cycle)
      << " accepted=" << Num(m.accepted_flits_per_switch_cycle)
      << " latency=" << Num(m.avg_latency_cycles) << " total=" << Num(m.avg_total_latency_cycles)
      << " p50=" << Num(m.p50_latency_cycles) << " p95=" << Num(m.p95_latency_cycles)
      << " p99=" << Num(m.p99_latency_cycles) << " max=" << Num(m.max_latency_cycles)
      << " generated=" << m.messages_generated << " delivered=" << m.messages_delivered
      << " flits=" << m.flits_delivered << " cycles=" << m.simulated_cycles
      << " growth=" << Num(m.source_queue_growth) << " maxlink=" << Num(m.max_link_utilization)
      << " avglink=" << Num(m.avg_link_utilization) << " deadlock=" << m.deadlock_detected;
  return out.str();
}

bool Conserves(const sim::SimTotals& t) {
  return t.flits_injected == t.flits_delivered + t.flits_dropped + t.flits_in_network &&
         t.pool_live == t.flits_in_network;
}

/// The reference lines for one topology seed ("seed=<n> " prefix stripped);
/// empty when the reference holds none for it.
std::vector<std::string> ReferenceLines(const Options& options) {
  std::ifstream in(options.reference_dir + "/paper_figs.ref");
  const std::string prefix = "seed=" + std::to_string(options.topo_seed) + " ";
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) lines.push_back(line.substr(prefix.size()));
  }
  return lines;
}

struct PassCounts {
  double cycle_cycles = 0, cycle_ns = 0, event_cycles = 0, event_ns = 0;
  double flits = 0, evaluations = 0, moves = 0, skipped = 0, event_sim_cycles = 0;
};

}  // namespace

Outcome RunPaperFigs(const Options& options, Ledger& ledger) {
  Tracer tracer;
  std::vector<Network> nets;
  std::int64_t gen_ns = 0;
  const std::vector<double> loads = SweepLoads();
  // Set-up: generate the inputs, then warm the simulator with one S1 run
  // per network so the first timed pass does not pay for cold caches.
  const double setup_s = MedianSetupSeconds(15, [&] {
    nets = MakeNetworks(options, tracer, gen_ns);
    for (const Network& net : nets) {
      const route::UpDownRouting routing(net.graph);
      const sim::TrafficPattern pattern(net.graph, net.workload, net.random.front());
      sim::NetworkSimulator simulator(net.graph, routing, pattern,
                                      PointConfig(0, sim::ExecMode::kCycle));
      ledger.Op(simulator.Run(loads[0]).messages_delivered > 0, "set-up warm-up run");
    }
  });
  const std::vector<std::string> reference = ReferenceLines(options);
  if (reference.empty()) {
    std::cout << "note: no reference digest for topology seed " << options.topo_seed
              << "; OP results are checked for determinism and conservation only\n";
  }

  std::vector<std::string> first_digest;
  PassCounts last;  // work counts are the same every pass
  std::vector<double> figure_s, cycles_per_s, event_cycles_per_s;
  obs::Registry& registry = obs::Registry::Global();

  const PassLog log = RunPasses(options, tracer, [&](std::size_t pass, bool traced) {
    PassCounts counts;
    std::vector<std::string> digest;  // OP lines first, then everything else
    std::vector<std::string> rest;
    std::vector<sim::SimTotals> totals;
    const std::int64_t pass_start = NowNs();
    for (const Network& net : nets) {
      std::optional<route::UpDownRouting> routing;
      {
        Span span(tracer, "routing.build");
        routing.emplace(net.graph);
      }
      dist::DistanceTable table;
      {
        Span span(tracer, "distance.build");
        table = dist::DistanceTable::Build(*routing);
      }
      const std::vector<std::size_t> sizes = net.workload.ClusterSwitchSizes(net.graph);
      sched::SearchResult op;
      {
        Span span(tracer, "sched.search");
        op = sched::TabuSearch(table, sizes, net.tabu);
      }
      counts.evaluations += static_cast<double>(op.evaluations);
      counts.moves += static_cast<double>(op.iterations);

      std::vector<work::ProcessMapping> mappings{
          work::ProcessMapping::FromPartition(net.graph, net.workload, op.best)};
      mappings.insert(mappings.end(), net.random.begin(), net.random.end());
      {
        Span span(tracer, "quality.evaluate");
        for (std::size_t m = 0; m < mappings.size(); ++m) {
          const qual::Partition partition =
              m == 0 ? op.best : mappings[m].InducedPartition(net.graph);
          const double fg = qual::GlobalSimilarity(table, partition);
          const double dg = qual::GlobalDissimilarity(table, partition);
          const std::string label = m == 0 ? "OP" : "R" + std::to_string(m);
          std::string line = std::string(net.name) + " " + label + " partition " +
                             partition.ToString() + " fg=" + Num(fg) + " dg=" + Num(dg) +
                             " cc=" + Num(dg / fg);
          (m == 0 ? digest : rest).push_back(std::move(line));
          if (m == 0) ledger.Op(fg == op.best_fg && dg == op.best_dg, "OP F_G/D_G rescore");
        }
      }
      for (const sim::ExecMode mode : {sim::ExecMode::kCycle, sim::ExecMode::kEvent}) {
        const bool cycle = mode == sim::ExecMode::kCycle;
        obs::Counter& skipped = registry.GetCounter("sim.event.skipped_cycles");
        obs::Counter& simulated = registry.GetCounter("sim.cycles");
        const std::uint64_t skipped_before = skipped.value();
        const std::uint64_t simulated_before = simulated.value();
        Span span(tracer, cycle ? "simnet.sweep" : "simnet.event_sweep");
        double sim_cycles = 0;
        for (std::size_t m = 0; m < mappings.size(); ++m) {
          const sim::TrafficPattern pattern(net.graph, net.workload, mappings[m]);
          for (std::size_t k = 0; k < (cycle ? loads.size() : kEventPoints); ++k) {
            sim::NetworkSimulator simulator(net.graph, *routing, pattern, PointConfig(k, mode));
            const sim::SimMetrics metrics = simulator.Run(loads[k]);
            totals.push_back(simulator.Totals());
            sim_cycles += static_cast<double>(metrics.simulated_cycles);
            if (cycle) counts.flits += static_cast<double>(totals.back().flits_delivered);
            std::string line = std::string(net.name) + (m == 0 ? " OP" : " R" + std::to_string(m)) +
                               (cycle ? " cycle S" : " event S") + std::to_string(k + 1) + " " +
                               MetricsLine(metrics);
            (m == 0 && cycle ? digest : rest).push_back(std::move(line));
          }
        }
        const double ns = static_cast<double>(span.Stop());
        (cycle ? counts.cycle_ns : counts.event_ns) += ns;
        (cycle ? counts.cycle_cycles : counts.event_cycles) += sim_cycles;
        if (!cycle) {
          counts.skipped += static_cast<double>(skipped.value() - skipped_before);
          counts.event_sim_cycles += static_cast<double>(simulated.value() - simulated_before);
        }
      }
    }
    const double pass_wall_s = static_cast<double>(NowNs() - pass_start) / 1e9;

    Span span(tracer, "bench.check");
    for (std::size_t i = 0; i < totals.size(); ++i) {
      ledger.Op(Conserves(totals[i]), "flit conservation of simulation run " + std::to_string(i));
    }
    if (!reference.empty()) {
      bool same = reference.size() == digest.size();
      for (std::size_t i = 0; same && i < digest.size(); ++i) same = digest[i] == reference[i];
      if (!same && pass == 0) {
        for (std::size_t i = 0; i < digest.size(); ++i) {
          if (i >= reference.size() || digest[i] != reference[i]) {
            std::cerr << "perfbench: first digest difference at line " << i + 1 << "\n  got  "
                      << digest[i] << "\n  want "
                      << (i < reference.size() ? reference[i] : "<missing>") << "\n";
            break;
          }
        }
      }
      ledger.Op(same, "OP results against the reference digest");
    }
    digest.insert(digest.end(), rest.begin(), rest.end());
    if (pass == 0) {
      first_digest = digest;
      if (reference.empty()) {
        for (const std::string& line : digest) {
          if (line.find(" OP ") != std::string::npos && line.find(" event ") == std::string::npos) {
            std::cerr << "seed=" << options.topo_seed << " " << line << "\n";
          }
        }
      }
    } else {
      ledger.Op(digest == first_digest, "pass output identical to the first pass");
    }
    last = counts;
    if (!traced) {
      figure_s.push_back(pass_wall_s);
      cycles_per_s.push_back(counts.cycle_cycles / (counts.cycle_ns / 1e9));
      event_cycles_per_s.push_back(counts.event_cycles / (counts.event_ns / 1e9));
    }
  });

  Outcome out;
  const double fig_s = Median(figure_s);
  out.end_to_end["setup_s"] = {setup_s, "s"};
  out.end_to_end["pass_s"] = {Median(log.untraced_s), "s"};
  out.per_layer["figure_s"] = {fig_s, "s"};
  out.per_layer["sim_cycles_per_s"] = {Median(cycles_per_s), "cycles/s"};
  out.per_layer["event_cycles_per_s"] = {Median(event_cycles_per_s), "cycles/s"};
  out.per_layer["topology.gen_ns"] = {static_cast<double>(gen_ns), "ns"};
  if (options.trace) {
    const std::map<std::string, double> self =
        ReportSelfTimes(options, tracer, log.traced_wall_ns, log.traced_s.size());
    out.per_layer["routing.build_ns"] = {Row(self, "routing.build"), "ns"};
    out.per_layer["distance.build_ns"] = {Row(self, "distance.build"), "ns"};
    out.per_layer["quality.evaluate_ns"] = {Row(self, "quality.evaluate"), "ns"};
    out.per_layer["sched.search_ns"] = {Row(self, "sched.search"), "ns"};
    out.per_layer["sched.evaluations"] = {last.evaluations, "count"};
    out.per_layer["sched.moves"] = {last.moves, "count"};
    out.per_layer["sched.ns_per_eval"] = {Row(self, "sched.search") / last.evaluations,
                                          "ns"};
    out.per_layer["simnet.sweep_ns"] = {Row(self, "simnet.sweep"), "ns"};
    out.per_layer["simnet.cycles"] = {last.cycle_cycles, "count"};
    out.per_layer["simnet.flits_delivered"] = {last.flits, "count"};
    out.per_layer["simnet.ns_per_flit"] = {Row(self, "simnet.sweep") / last.flits,
                                           "ns"};
    out.per_layer["simnet.event_sweep_ns"] = {Row(self, "simnet.event_sweep"), "ns"};
    out.per_layer["simnet.skip_ratio"] = {
        last.skipped / last.event_sim_cycles, "ratio"};
    out.per_layer["unattributed_ns"] = {Row(self, "unattributed"), "ns"};
    out.per_layer["trace_overhead"] = {log.TraceOverhead(), "ratio"};
  }
  return out;
}

}  // namespace perfbench
