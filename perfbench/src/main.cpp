// perfbench: runs one workload of the repo benchmark and prints its
// metrics; the last stdout line is the JSON result. See perfbench/README.md.
//
//   perfbench --workload paper_figs|map_large|service_mixed --seed N
//             --seconds S --trace 0|1 [--topo-seed N] [--large-seed N]
//             [--mapping-seed N] [--arrival-seed N] [--cold-seed N]
//             [--reference DIR] [--trace-out FILE] [--commit SHA]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace perfbench {
namespace {

/// Every workload reports the same metric names (BENCHMARK.json lists
/// them); a layer a workload does not touch reports 0.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"pass_s", "s"}};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"figure_s", "s"},
    {"sim_cycles_per_s", "cycles/s"},
    {"event_cycles_per_s", "cycles/s"},
    {"table_s", "s"},
    {"schedule_s", "s"},
    {"ml_map_s", "s"},
    {"fg", "ratio"},
    {"ml_cost", "ratio"},
    {"p50_ms.low", "ms"},
    {"p99_ms.low", "ms"},
    {"p50_ms.high", "ms"},
    {"p99_ms.high", "ms"},
    {"max_rps", "1/s"},
    {"topology.gen_ns", "ns"},
    {"routing.build_ns", "ns"},
    {"distance.build_ns", "ns"},
    {"distance.hops_ns", "ns"},
    {"quality.evaluate_ns", "ns"},
    {"sched.search_ns", "ns"},
    {"sched.evaluations", "count"},
    {"sched.moves", "count"},
    {"sched.ns_per_eval", "ns"},
    {"multilevel.map_ns.10k", "ns"},
    {"multilevel.map_ns.100k", "ns"},
    {"multilevel.levels", "count"},
    {"multilevel.coarsest_vertices", "count"},
    {"multilevel.engine_evaluations", "count"},
    {"multilevel.refine_moves", "count"},
    {"simnet.sweep_ns", "ns"},
    {"simnet.cycles", "count"},
    {"simnet.flits_delivered", "count"},
    {"simnet.ns_per_flit", "ns"},
    {"simnet.event_sweep_ns", "ns"},
    {"simnet.skip_ratio", "ratio"},
    {"service.stage.queue_ns", "ns"},
    {"service.stage.parse_ns", "ns"},
    {"service.stage.model_ns", "ns"},
    {"service.stage.search_ns", "ns"},
    {"service.stage.serialize_ns", "ns"},
    {"service.stage.other_ns", "ns"},
    {"service.topology_hit_ratio", "ratio"},
    {"service.search_hit_ratio", "ratio"},
    {"service.model_solves", "count"},
    {"service.submit_wait_ns", "ns"},
    {"service.rejected", "count"},
    {"service.deadline_expired", "count"},
    {"bench.gen_lag_ms", "ms"},
    {"unattributed_ns", "ns"},
    {"trace_overhead", "ratio"},
};

[[noreturn]] void Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload paper_figs|map_large|service_mixed --seed N "
               "--seconds S --trace 0|1 [--topo-seed N] [--large-seed N] [--mapping-seed N] "
               "[--arrival-seed N] [--cold-seed N] [--reference DIR] "
               "[--trace-out FILE] [--commit SHA]\n";
  std::exit(2);
}

std::uint64_t ParseU64(const std::string& flag, const std::string& text) {
  try {
    std::size_t used = 0;
    const unsigned long long value = std::stoull(text, &used);
    if (used == text.size() && text[0] != '-') return value;
  } catch (const std::exception&) {
  }
  Usage("bad value for " + flag + ": '" + text + "'");
}

/// Derives an input seed from --seed so different inputs of one run are
/// independent streams.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool OptimizedBuild(const std::string& build_type) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || defined(PERFBENCH_SANITIZED)
  return false;
#else
  return build_type == "Release" || build_type == "RelWithDebInfo";
#endif
}

void PrintMetric(const std::string& name, const Metric& metric) {
  std::cout << "  " << std::left << std::setw(30) << name << std::setprecision(6) << metric.value
            << " " << metric.unit << "\n";
}

std::string JsonMetrics(const std::vector<std::pair<const char*, const char*>>& names,
                        const std::map<std::string, Metric>& values) {
  std::string json = "{";
  for (const auto& [name, unit] : names) {
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", values.at(name).value);
    if (json.size() > 1) json += ", ";
    json.append("\"").append(name).append("\": {\"value\": ").append(value);
    json.append(", \"unit\": \"").append(unit).append("\"}");
  }
  return json + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  std::uint64_t* derived_seeds[] = {&options.large_seed, &options.mapping_seed,
                                    &options.arrival_seed, &options.cold_seed};
  bool seed_given[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = ParseU64(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(ParseU64(flag, value));
      have_seconds = options.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--topo-seed") {
      options.topo_seed = ParseU64(flag, value);
    } else if (flag == "--large-seed" || flag == "--mapping-seed" || flag == "--arrival-seed" ||
               flag == "--cold-seed") {
      const int k = flag == "--large-seed"     ? 0
                    : flag == "--mapping-seed" ? 1
                    : flag == "--arrival-seed" ? 2
                                               : 3;
      *derived_seeds[k] = ParseU64(flag, value);
      seed_given[k] = true;
    } else if (flag == "--reference") {
      options.reference_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (options.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  for (int k = 0; k < 4; ++k) {
    if (!seed_given[k]) *derived_seeds[k] = DeriveSeed(options.seed, static_cast<std::uint64_t>(k));
  }

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::cout << "perfbench workload=" << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << options.trace << "\n"
            << "build=" << (build_type.empty() ? "<none>" : build_type) << " compiler=" <<
#if defined(__clang__)
      "clang "
#else
      "gcc "
#endif
            << __VERSION__ << " nproc=" << std::thread::hardware_concurrency()
            << " commit=" << commit << "\n"
            << "input seeds: topo=" << options.topo_seed << " large=" << options.large_seed
            << " mapping=" << options.mapping_seed << " arrival=" << options.arrival_seed
            << " cold=" << options.cold_seed << "\n";
  if (!OptimizedBuild(build_type)) {
    std::cerr << "perfbench: refusing to time a '" << build_type
              << "' or sanitizer build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }

  Ledger ledger;
  Outcome outcome;
  try {
    if (options.workload == "paper_figs") {
      outcome = RunPaperFigs(options, ledger);
    } else if (options.workload == "map_large") {
      outcome = RunMapLarge(options, ledger);
    } else if (options.workload == "service_mixed") {
      outcome = RunServiceMixed(options, ledger);
    } else {
      Usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " threw: " << e.what() << "\n";
    return 1;
  }
  outcome.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
  for (const auto& [name, unit] : kPerLayer) outcome.per_layer.try_emplace(name, Metric{0.0, unit});
  for (const auto& [name, metric] : outcome.per_layer) {
    bool known = false;
    for (const auto& entry : kPerLayer) known = known || name == entry.first;
    if (!known) throw std::logic_error("unlisted per-layer metric " + name);
  }

  std::cout << "end-to-end:\n";
  for (const auto& entry : kEndToEnd) PrintMetric(entry.first, outcome.end_to_end.at(entry.first));
  std::cout << (options.trace ? "per-layer:\n" : "parts (untraced passes; no bound):\n");
  for (const auto& [name, unit] : kPerLayer) {
    const Metric& metric = outcome.per_layer.at(name);
    if (options.trace || metric.value != 0.0) PrintMetric(name, metric);
  }
  std::cout << "operations: attempted " << ledger.attempted() << ", failed " << ledger.failed()
            << "\n";
  std::cout << "{\"correct\": " << (ledger.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted() << ", \"failed\": " << ledger.failed()
            << ", \"metrics\": "
            << (options.trace ? JsonMetrics(kPerLayer, outcome.per_layer)
                              : JsonMetrics(kEndToEnd, outcome.end_to_end))
            << "}" << std::endl;
  return ledger.failed() == 0 ? 0 : 1;
}
