// What every workload shares: the command-line options, the outcome it
// reports, the operation/check ledger and the timed pass loop.
#pragma once

#include <cstdint>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  // Input seeds; all but topo_seed default to streams derived from --seed.
  // topo_seed stays 1 unless given: the paper_figs reference digest is for
  // the repo's Fig. 3 instance.
  std::uint64_t topo_seed = 1;     // paper_figs: the 16-switch irregular net
  std::uint64_t large_seed = 0;    // map_large: the 192- and 96-switch nets
  std::uint64_t mapping_seed = 0;  // paper_figs: the random mappings
  std::uint64_t arrival_seed = 0;  // service_mixed: arrival schedule and request order
  std::uint64_t cold_seed = 0;     // service_mixed: the never-seen topologies
  std::string reference_dir;       // holds paper_figs.ref
  std::string trace_out;           // span dump (trace mode)
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
};

/// Counts attempted operations and failed ones; prints the first failures.
class Ledger {
 public:
  void Op(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    if (++failed_ <= 20) std::cerr << "perfbench: FAILED " << what << "\n";
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Wall times of the measured passes. In trace mode passes alternate
/// between untraced (even) and traced (odd), so one run yields both the
/// per-layer spans and a paired measure of what tracing costs.
struct PassLog {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::int64_t traced_wall_ns = 0;

  [[nodiscard]] double TraceOverhead() const {
    return Median(traced_s) / Median(untraced_s);
  }
};

/// Runs `pass(index, traced)` until `seconds` have elapsed and at least
/// four passes ran.
inline PassLog RunPasses(const Options& options, Tracer& tracer,
                         const std::function<void(std::size_t, bool)>& pass) {
  PassLog log;
  const std::int64_t end_ns = NowNs() + static_cast<std::int64_t>(options.seconds * 1e9);
  for (std::size_t p = 0; p < 4 || NowNs() < end_ns; ++p) {
    const bool traced = options.trace && p % 2 == 1;
    tracer.set_enabled(traced);
    const std::int64_t start = NowNs();
    pass(p, traced);
    const std::int64_t wall = NowNs() - start;
    tracer.set_enabled(false);
    (traced ? log.traced_s : log.untraced_s).push_back(static_cast<double>(wall) / 1e9);
    if (traced) log.traced_wall_ns += wall;
  }
  return log;
}

/// Runs `setup` `times` times and returns the median wall time in s.
inline double MedianSetupSeconds(int times, const std::function<void()>& setup) {
  std::vector<double> walls;
  for (int i = 0; i < times; ++i) {
    const std::int64_t start = NowNs();
    setup();
    walls.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  return Median(walls);
}

/// Prints the per-layer self-time table of the traced passes, writes the
/// spans to options.trace_out (if set) and returns the rows in ns per
/// traced pass. The "unattributed" row is the traced wall time no span
/// covers, so the rows sum to the traced wall time.
std::map<std::string, double> ReportSelfTimes(const Options& options, const Tracer& tracer,
                                              std::int64_t traced_wall_ns, std::size_t passes);

/// Row `name` of a ReportSelfTimes result; 0 when no span had that name.
inline double Row(const std::map<std::string, double>& rows, const std::string& name) {
  const auto it = rows.find(name);
  return it == rows.end() ? 0.0 : it->second;
}

Outcome RunPaperFigs(const Options& options, Ledger& ledger);
Outcome RunMapLarge(const Options& options, Ledger& ledger);
Outcome RunServiceMixed(const Options& options, Ledger& ledger);

}  // namespace perfbench
