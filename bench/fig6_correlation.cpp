// Figure 6: correlation of the clustering coefficient C_c with network
// performance at each simulation point S1..S9 across all the Fig. 3
// mappings. Paper: ~85 % at low load (S1-S4), ~75 % under deep saturation
// (S7-S9), not significant around the saturation knee (S5-S6).
//
// "Performance" at a point: accepted traffic (saturated runs deliver less);
// we also report the latency-based correlation (negative: lower latency =
// better mapping) for completeness.
#include "bench_util.h"

int main() {
  using namespace commsched;
  bench::PrintHeader("Fig. 6 — correlation of C_c with network performance", "paper Figure 6");

  const topo::SwitchGraph network = bench::PaperNetwork16();
  core::ExperimentOptions options;
  options.random_mappings = 9;
  options.sweep = bench::PaperSweep();
  const core::ExperimentResult result = core::RunPaperExperiment(network, options);

  std::vector<double> cc;
  cc.reserve(result.mappings.size());
  for (const core::MappingEvaluation& eval : result.mappings) {
    cc.push_back(eval.cc);
  }

  TextTable table({"point", "offered", "corr(Cc,accepted)", "corr(Cc,latency)"});
  table.set_precision(3);
  const std::size_t points = result.mappings.front().sweep.points.size();
  for (std::size_t k = 0; k < points; ++k) {
    std::vector<double> accepted;
    std::vector<double> latency;
    for (const core::MappingEvaluation& eval : result.mappings) {
      accepted.push_back(eval.sweep.points[k].metrics.accepted_flits_per_switch_cycle);
      latency.push_back(eval.sweep.points[k].metrics.avg_latency_cycles);
    }
    auto safe_corr = [&](const std::vector<double>& y) -> double {
      // Degenerate below saturation: every mapping accepts the full offered
      // load, so accepted traffic carries no signal there.
      double spread = 0.0;
      for (double v : y) spread = std::max(spread, std::abs(v - y.front()));
      if (spread < 1e-9) return 0.0;
      return stats::PearsonCorrelation(cc, y);
    };
    table.AddRow({std::string("S").append(std::to_string(k + 1)),
                  result.mappings.front().sweep.points[k].offered_rate, safe_corr(accepted),
                  safe_corr(latency)});
  }
  std::cout << table;

  // Aggregate check mirroring the paper's claim: strong positive
  // correlation between C_c and the sweep throughput of a mapping.
  std::vector<double> throughput;
  for (const core::MappingEvaluation& eval : result.mappings) {
    throughput.push_back(eval.Throughput());
  }
  std::cout << "\ncorr(C_c, throughput) over all mappings: "
            << stats::PearsonCorrelation(cc, throughput) << " (paper: > 0.7 everywhere)\n";
  std::cout << "rank correlation (Spearman):             "
            << stats::SpearmanCorrelation(cc, throughput) << "\n";
  return 0;
}
