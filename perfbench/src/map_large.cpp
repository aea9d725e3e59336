// map_large: the mapping side at scale, with no simulation. Each pass has
// three timed parts, one per layer under study:
//   table    - up*/down* routing and the equivalent-distance table of a
//              192-switch irregular net (all distance work);
//   schedule - what a `schedule` request does on a 96-switch net: routing,
//              the table, then 10-seed Tabu (mostly sched, some distance);
//   ml       - MapMultilevel of a 10k-process grid onto a 6x6x6 torus and of
//              a 100k-process grid onto a 10x10x10 torus, over hop tables.
// The 10k map takes longer than the 100k one; the workload keeps that
// visible.
#include <algorithm>
#include <cmath>
#include <optional>

#include "distance/distance_table.h"
#include "harness.h"
#include "quality/comm_graph.h"
#include "quality/quality.h"
#include "routing/updown.h"
#include "sched/multilevel/multilevel.h"
#include "sched/tabu.h"
#include "topology/generator.h"
#include "topology/library.h"
#include "workload/procgen.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using namespace commsched;

constexpr std::size_t kApps = 4;

struct MlCase {
  const char* span;  // "multilevel.map.10k" / "multilevel.map.100k"
  topo::SwitchGraph fabric;
  qual::CommGraph processes;
};

struct Inputs {
  topo::SwitchGraph table_net;     // 192 switches
  topo::SwitchGraph schedule_net;  // 96 switches
  std::vector<MlCase> ml;
};

Inputs MakeInputs(const Options& options, Tracer& tracer, std::int64_t& gen_ns) {
  Span gen(tracer, "topology.gen");
  topo::IrregularTopologyOptions irregular;
  irregular.seed = options.large_seed;
  irregular.switch_count = 192;
  topo::SwitchGraph table_net = topo::GenerateIrregularTopology(irregular);
  irregular.switch_count = 96;
  topo::SwitchGraph schedule_net = topo::GenerateIrregularTopology(irregular);
  topo::SwitchGraph torus6 = topo::MakeTorus3D(6, 6, 6, 64);
  topo::SwitchGraph torus10 = topo::MakeTorus3D(10, 10, 10, 104);
  gen_ns = gen.Stop();
  Span span(tracer, "workload.gen");
  std::vector<MlCase> ml;
  ml.push_back({"multilevel.map.10k", std::move(torus6), work::MakeGridComm(10000)});
  ml.push_back({"multilevel.map.100k", std::move(torus10), work::MakeGridComm(100000)});
  return {std::move(table_net), std::move(schedule_net), std::move(ml)};
}

bool Close(double a, double b) { return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b)); }

/// Invariants of an equivalent-distance table that hold for any routing:
/// symmetric, zero diagonal, and 0 < T[i][j] <= the minimal legal hop
/// count (a resistor network is no worse than any one of its paths).
bool TableInvariantsHold(const dist::DistanceTable& table, const dist::DistanceTable& hops) {
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table(i, i) != 0.0) return false;
    for (std::size_t j = i + 1; j < table.size(); ++j) {
      if (table(i, j) != table(j, i) || !(table(i, j) > 0.0) || table(i, j) > hops(i, j) + 1e-9) {
        return false;
      }
    }
  }
  return true;
}

/// Checks a multilevel map against what its input allows: every process on
/// a real switch, no switch over capacity, max_load and both costs as
/// recomputed here from switch_of_process.
bool MultilevelMapHolds(const MlCase& c, const dist::DistanceTable& hops,
                        const sched::ml::MultilevelResult& r) {
  const std::size_t capacity = c.fabric.hosts_per_switch();
  if (r.switch_of_process.size() != c.processes.vertex_count()) return false;
  std::vector<std::size_t> load(c.fabric.switch_count());
  for (const std::size_t s : r.switch_of_process) {
    if (s >= load.size()) return false;
    ++load[s];
  }
  const std::size_t max_load = *std::max_element(load.begin(), load.end());
  double cost = 0.0;
  for (const qual::CommEdge& e : c.processes.edges()) {
    const double d = hops(r.switch_of_process[e.u], r.switch_of_process[e.v]);
    cost += e.weight * d * d;
  }
  const double normalized = cost / c.processes.TotalEdgeWeight() / hops.MeanSquaredDistance();
  return max_load <= capacity && max_load == r.max_load && Close(r.cost, cost) &&
         Close(r.normalized, normalized);
}

struct PassCounts {
  double evaluations = 0, moves = 0, levels = 0, coarsest = 0, engine_evaluations = 0,
         refine_moves = 0, fg = 0, ml_cost = 0;
};

}  // namespace

Outcome RunMapLarge(const Options& options, Ledger& ledger) {
  Tracer tracer;
  std::optional<Inputs> in;
  std::int64_t gen_ns = 0;
  const double setup_s = MedianSetupSeconds(15, [&] {
    in.reset();
    in.emplace(MakeInputs(options, tracer, gen_ns));
  });

  // Library defaults throughout: the paper's 10 seeds x 20 iterations for
  // Tabu, auto knobs for the multilevel maps.
  const sched::TabuOptions tabu;
  const sched::ml::MultilevelOptions ml_options;
  const std::vector<std::size_t> sizes =
      work::Workload::Uniform(kApps, in->schedule_net.host_count() / kApps)
          .ClusterSwitchSizes(in->schedule_net);

  std::vector<double> first_table;
  std::vector<double> first_costs;
  std::vector<double> table_s, schedule_s, ml_s;
  PassCounts last;

  const PassLog log = RunPasses(options, tracer, [&](std::size_t pass, bool traced) {
    PassCounts counts;
    std::int64_t table_ns = 0, schedule_ns = 0, ml_ns = 0;

    std::optional<route::UpDownRouting> routing192;
    {
      Span span(tracer, "routing.build");
      routing192.emplace(in->table_net);
      table_ns += span.Stop();
    }
    dist::DistanceTable table192;
    {
      Span span(tracer, "distance.build");
      table192 = dist::DistanceTable::Build(*routing192);
      table_ns += span.Stop();
    }

    std::optional<route::UpDownRouting> routing96;
    {
      Span span(tracer, "routing.build");
      routing96.emplace(in->schedule_net);
      schedule_ns += span.Stop();
    }
    dist::DistanceTable table96;
    {
      Span span(tracer, "distance.build");
      table96 = dist::DistanceTable::Build(*routing96);
      schedule_ns += span.Stop();
    }
    sched::SearchResult search;
    {
      Span span(tracer, "sched.search");
      search = sched::TabuSearch(table96, sizes, tabu);
      schedule_ns += span.Stop();
    }
    counts.evaluations = static_cast<double>(search.evaluations);
    counts.moves = static_cast<double>(search.iterations);
    counts.fg = search.best_fg;

    std::vector<dist::DistanceTable> hops;
    std::vector<sched::ml::MultilevelResult> maps;
    for (const MlCase& c : in->ml) {
      {
        Span span(tracer, "distance.hops");
        hops.push_back(dist::DistanceTable::BuildGraphHops(c.fabric));
        ml_ns += span.Stop();
      }
      Span span(tracer, c.span);
      maps.push_back(sched::ml::MapMultilevel(c.processes, hops.back(),
                                              c.fabric.hosts_per_switch(), ml_options));
      ml_ns += span.Stop();
      const sched::ml::MultilevelResult& r = maps.back();
      counts.levels += static_cast<double>(r.levels);
      counts.coarsest += static_cast<double>(r.coarsest_vertices);
      counts.engine_evaluations += static_cast<double>(r.engine_evaluations);
      for (const sched::ml::LevelStats& level : r.level_stats) {
        counts.refine_moves += static_cast<double>(level.moves);
      }
      counts.ml_cost += r.normalized;
    }

    Span check(tracer, "bench.check");
    if (pass == 0) {
      ledger.Op(TableInvariantsHold(table192, dist::DistanceTable::BuildHopCount(*routing192)),
                "192-switch table invariants");
      first_table = table192.values();
      first_costs = {search.best_fg, maps[0].cost, maps[1].cost};
    } else {
      ledger.Op(table192.values() == first_table, "192-switch table identical to the first pass");
      ledger.Op(first_costs == std::vector<double>{search.best_fg, maps[0].cost, maps[1].cost},
                "mapping costs identical to the first pass");
    }
    const double fg = qual::GlobalSimilarity(table96, search.best);
    const double dg = qual::GlobalDissimilarity(table96, search.best);
    bool sizes_hold = search.best.cluster_count() == sizes.size();
    for (std::size_t c = 0; sizes_hold && c < sizes.size(); ++c) {
      sizes_hold = search.best.ClusterSize(c) == sizes[c];
    }
    ledger.Op(sizes_hold && fg == search.best_fg && dg == search.best_dg &&
                  dg / fg == search.best_cc,
              "96-switch Tabu F_G/D_G/C_c recomputed from its partition");
    for (std::size_t k = 0; k < maps.size(); ++k) {
      ledger.Op(MultilevelMapHolds(in->ml[k], hops[k], maps[k]),
                std::string(in->ml[k].span) + " load and cost recomputed");
    }
    check.Stop();

    last = counts;
    if (!traced) {
      table_s.push_back(static_cast<double>(table_ns) / 1e9);
      schedule_s.push_back(static_cast<double>(schedule_ns) / 1e9);
      ml_s.push_back(static_cast<double>(ml_ns) / 1e9);
    }
  });

  Outcome out;
  out.end_to_end["setup_s"] = {setup_s, "s"};
  out.end_to_end["pass_s"] = {Median(log.untraced_s), "s"};
  out.per_layer["table_s"] = {Median(table_s), "s"};
  out.per_layer["schedule_s"] = {Median(schedule_s), "s"};
  out.per_layer["ml_map_s"] = {Median(ml_s), "s"};
  out.per_layer["fg"] = {last.fg, "ratio"};
  out.per_layer["ml_cost"] = {last.ml_cost, "ratio"};
  out.per_layer["topology.gen_ns"] = {static_cast<double>(gen_ns), "ns"};
  if (options.trace) {
    const std::map<std::string, double> self =
        ReportSelfTimes(options, tracer, log.traced_wall_ns, log.traced_s.size());
    out.per_layer["routing.build_ns"] = {Row(self, "routing.build"), "ns"};
    out.per_layer["distance.build_ns"] = {Row(self, "distance.build"), "ns"};
    out.per_layer["distance.hops_ns"] = {Row(self, "distance.hops"), "ns"};
    out.per_layer["sched.search_ns"] = {Row(self, "sched.search"), "ns"};
    out.per_layer["sched.evaluations"] = {last.evaluations, "count"};
    out.per_layer["sched.moves"] = {last.moves, "count"};
    out.per_layer["sched.ns_per_eval"] = {Row(self, "sched.search") / last.evaluations, "ns"};
    out.per_layer["multilevel.map_ns.10k"] = {Row(self, "multilevel.map.10k"), "ns"};
    out.per_layer["multilevel.map_ns.100k"] = {Row(self, "multilevel.map.100k"), "ns"};
    out.per_layer["multilevel.levels"] = {last.levels, "count"};
    out.per_layer["multilevel.coarsest_vertices"] = {last.coarsest, "count"};
    out.per_layer["multilevel.engine_evaluations"] = {last.engine_evaluations, "count"};
    out.per_layer["multilevel.refine_moves"] = {last.refine_moves, "count"};
    out.per_layer["unattributed_ns"] = {Row(self, "unattributed"), "ns"};
    out.per_layer["trace_overhead"] = {log.TraceOverhead(), "ratio"};
  }
  return out;
}

}  // namespace perfbench
