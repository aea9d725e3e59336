#include "harness.h"

#include <iomanip>

namespace perfbench {

std::map<std::string, double> ReportSelfTimes(const Options& options, const Tracer& tracer,
                                              std::int64_t traced_wall_ns, std::size_t passes) {
  const std::map<std::string, std::int64_t> rows = SelfTimes(tracer.spans(), traced_wall_ns);
  std::cout << "self time of " << options.workload << " over " << passes
            << " traced passes (" << tracer.spans().size() << " spans):\n";
  std::int64_t sum = 0;
  std::map<std::string, double> per_pass;
  for (const auto& [name, ns] : rows) {
    sum += ns;
    per_pass[name] = static_cast<double>(ns) / static_cast<double>(passes);
    std::cout << "  " << std::left << std::setw(24) << name << std::right << std::fixed
              << std::setprecision(4) << std::setw(10) << static_cast<double>(ns) / 1e9 << " s "
              << std::setprecision(1) << std::setw(6)
              << 100.0 * static_cast<double>(ns) / static_cast<double>(traced_wall_ns) << " %\n";
  }
  std::cout << "  " << std::left << std::setw(24) << "sum of rows" << std::right
            << std::setprecision(4) << std::setw(10) << static_cast<double>(sum) / 1e9
            << " s (traced wall " << static_cast<double>(traced_wall_ns) / 1e9 << " s)\n"
            << std::defaultfloat;
  if (!options.trace_out.empty()) tracer.WriteChromeJson(options.trace_out);
  return per_pass;
}

}  // namespace perfbench
