// Arithmetic the benchmark reports with: percentiles, the open-loop arrival
// schedule and its lateness, and peak memory. Header-only and free of the
// library so tests/arith_test.cpp checks it in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

/// The q-quantile (q in [0, 1]) by linear interpolation between the two
/// closest ranks, the rule numpy and Python's statistics "inclusive" method
/// use. Throws on an empty sample.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile of an empty sample");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("percentile rank outside [0, 1]");
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

inline double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

/// Samples needed before the q-quantile has at least `tail` samples above
/// it; below this count a reported tail percentile rests on fewer than
/// `tail` observations.
inline std::size_t SamplesForPercentile(double q, std::size_t tail = 10) {
  return static_cast<std::size_t>(std::ceil(static_cast<double>(tail) / (1.0 - q) - 1e-9));
}

/// Seeded Poisson arrival schedule: offsets in ns from the phase start of
/// every arrival before `seconds`, at `rate_per_s` on average. The gaps are
/// drawn by inverse transform from a fixed-algorithm generator, so a seed
/// gives the same schedule on every platform.
inline std::vector<std::int64_t> ArrivalOffsetsNs(double rate_per_s, double seconds,
                                                  std::uint64_t seed) {
  if (!(rate_per_s > 0.0) || !(seconds > 0.0)) throw std::invalid_argument("bad arrival rate");
  std::mt19937_64 gen(seed);
  std::vector<std::int64_t> offsets;
  double t = 0.0;
  for (;;) {
    const double u = static_cast<double>(gen() >> 11) * 0x1.0p-53;  // [0, 1)
    t += -std::log1p(-u) / rate_per_s;
    if (t >= seconds) break;
    offsets.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  return offsets;
}

/// How late the generator sent a request relative to its due time (never
/// negative: a request sent early is on time).
inline std::int64_t LatenessNs(std::int64_t due_ns, std::int64_t sent_ns) {
  return std::max<std::int64_t>(0, sent_ns - due_ns);
}

/// One open-loop rung's verdict: it holds when the tail latency, measured
/// from due times, meets the limit, nothing failed, and the backlog did not
/// grow (the last request finished within the limit of the last due time).
inline bool RungHolds(double p99_ms, double limit_ms, std::size_t failed,
                      std::int64_t last_due_ns, std::int64_t last_done_ns) {
  return failed == 0 && p99_ms <= limit_ms &&
         static_cast<double>(last_done_ns - last_due_ns) <= limit_ms * 1e6;
}

/// Peak resident set size of this process so far, in MB.
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB on Linux
}

}  // namespace perfbench
