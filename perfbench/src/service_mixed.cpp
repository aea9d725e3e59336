// service_mixed: an open loop into an in-process svc::Daemon through
// Submit. About 85% of requests are cache-hit reads (schedule, quality,
// ping) over a small pool of topologies; the rest are cold `schedule`
// requests on never-seen 16-24-switch topologies, which pay routing, the
// distance table and Tabu, and churn the caches. Mixing the two is what
// lets a cache or model-build change that helps one and hurts the other
// show up as p50 moving against p99.
//
// The measured loop repeats one cycle of phases:
//   burst, low, burst, high, burst, ladder rung k
// A burst submits kBurst requests at once and times until the last answer
// (pass_s: the capacity view). The other phases follow a seeded Poisson
// schedule at a fixed absolute rate; each request is timed from its due
// time, so a stalled generator or a full admission queue shows as latency.
#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>

#include "harness.h"
#include "obs/obs.h"
#include "service/daemon.h"
#include "service/json.h"
#include "service/service.h"

namespace perfbench {
namespace {

using namespace commsched;

// Rates in requests/s: frozen absolute values, chosen from the capacity the
// burst phase measured with seed 1 on a 4-core x86-64 KVM guest (about 2500
// requests/s): low ~30%, high ~70%, and a ladder across the knee.
constexpr double kLowRate = 800;
constexpr double kHighRate = 1800;
constexpr std::array<double, 4> kLadder = {2000, 2200, 2400, 2600};
constexpr double kLimitMs = 25.0;      // p99 latency limit of a ladder rung
constexpr double kPhaseSeconds = 1.0;  // length of one open-loop phase
constexpr std::size_t kBurst = 2000;   // requests in one burst phase
constexpr double kColdShare = 0.15;
constexpr std::uint64_t kDeadlineMs = 2000;
constexpr std::size_t kStages = 6;  // queue parse model search serialize other
constexpr std::array<const char*, kStages> kStageKeys = {
    "\"queue_ns\":", "\"parse_ns\":", "\"model_ns\":", "\"search_ns\":", "\"serialize_ns\":",
    "\"other_ns\":"};

/// A hot request: its line (fixed id, so repeats are byte-identical) and
/// the response it got as a cache miss during set-up.
struct HotRequest {
  std::string line;
  std::string miss_response;
};

std::string TopologyJson(std::size_t switches, std::uint64_t seed) {
  svc::JsonObjectWriter topology;
  topology.Field("kind", "random");
  topology.Field("switches", static_cast<std::uint64_t>(switches));
  topology.Field("seed", seed);
  return topology.Finish();
}

std::string RequestLine(const std::string& id, const char* op, const std::string& topology,
                        const std::string& partition = "") {
  svc::JsonObjectWriter request;
  request.Field("id", id);
  request.Field("op", op);
  if (!topology.empty()) {
    request.Raw("topology", topology);
    if (partition.empty()) request.Field("apps", static_cast<std::uint64_t>(4));
  }
  if (!partition.empty()) request.Raw("partition", partition);
  request.Field("deadline_ms", kDeadlineMs);
  request.Field("timings", true);
  return request.Finish();
}

/// The hot pool: schedule and quality on four topologies, plus ping.
std::vector<std::string> HotLines() {
  const std::array<std::size_t, 4> switches = {16, 20, 24, 16};
  std::vector<std::string> lines;
  for (std::size_t t = 0; t < switches.size(); ++t) {
    const std::string topology = TopologyJson(switches[t], t + 1);
    lines.push_back(RequestLine("hs" + std::to_string(t), "schedule", topology));
    std::string partition = "[";  // blocked: switch s in cluster s / (N/4)
    for (std::size_t s = 0; s < switches[t]; ++s) {
      if (s > 0) partition += ',';
      partition += std::to_string(s / (switches[t] / 4));
    }
    lines.push_back(RequestLine("hq" + std::to_string(t), "quality", topology, partition + "]"));
  }
  lines.push_back(RequestLine("hp", "ping", ""));
  return lines;
}

/// The response minus what legitimately differs between a cache miss and
/// a hit of the same request: the daemon's `,"req":...,"timings":{...}`
/// splice and the "model_cache"/"result_cache" status fields. A cache hit
/// must reproduce the rest byte for byte.
std::string Canonical(const std::string& response) {
  const std::size_t at = response.rfind(",\"req\":\"");
  std::string out = at == std::string::npos ? response : response.substr(0, at) + "}";
  for (const char* field : {",\"model_cache\":\"", ",\"result_cache\":\""}) {
    const std::size_t begin = out.find(field);
    if (begin == std::string::npos) continue;
    const std::size_t end = out.find('"', begin + std::strlen(field));
    if (end != std::string::npos) out.erase(begin, end + 1 - begin);
  }
  return out;
}

/// One submitted request's record, written by the worker that answers it.
struct Slot {
  std::int64_t due_ns = 0;
  std::int64_t done_ns = 0;
  int hot = -1;  // index into the hot pool, -1 for a cold request
  bool ok = false;
  std::array<std::int64_t, kStages> stage_ns{};
};

class Service {
 public:
  explicit Service(std::size_t workers) {
    svc::DaemonOptions options;
    options.workers = workers;
    daemon_.emplace(service_, options);
  }

  /// Executes one line and returns its response (set-up only).
  std::string Call(const std::string& line) {
    std::mutex mutex;
    std::condition_variable done;
    std::optional<std::string> response;
    daemon_->Submit(line, [&](const std::string& r) {
      const std::lock_guard<std::mutex> lock(mutex);
      response = r;
      done.notify_one();
    });
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [&] { return response.has_value(); });
    return *response;
  }

  svc::Daemon& daemon() { return *daemon_; }

 private:
  svc::SchedulingService service_;
  std::optional<svc::Daemon> daemon_;  // declared after the service it drains into
};

enum class PhaseKind { kBurst, kLow, kHigh, kRung };

struct Phase {
  std::vector<Slot> slots;
  std::vector<std::int64_t> lateness_ns;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t submit_wait_ns = 0;
};

class Generator {
 public:
  Generator(const Options& options, Service& service, const std::vector<HotRequest>& hot,
            Tracer& tracer)
      : service_(service), hot_(hot), tracer_(tracer), mix_(options.arrival_seed),
        arrival_seed_(options.arrival_seed),
        // Protocol numbers are JSON doubles: keep topology seeds below 2^53,
        // and above the hot pool's.
        cold_seed_(1000 + options.cold_seed % (std::uint64_t{1} << 40)) {}

  /// Runs one phase to completion (every request answered).
  Phase Run(PhaseKind kind, double rate) {
    Phase phase;
    std::vector<std::int64_t> offsets;
    std::vector<std::string> lines;
    {
      Span span(tracer_, "bench.render");
      offsets = kind == PhaseKind::kBurst
                    ? std::vector<std::int64_t>(kBurst, 0)
                    : ArrivalOffsetsNs(rate, kPhaseSeconds, arrival_seed_ + phases_);
      // Exactly kColdShare of the phase is cold, spread over 16-, 20- and
      // 24-switch nets, and the hot pool is drawn evenly; only the order is
      // random. Fixed shares keep one phase's work equal to the next's.
      const std::size_t n = offsets.size();
      const auto cold = static_cast<std::size_t>(std::llround(kColdShare * static_cast<double>(n)));
      std::vector<int> pick(n);  // hot pool index, or -1 - size class for cold
      for (std::size_t i = 0; i < n; ++i) {
        pick[i] = i < cold ? -1 - static_cast<int>(i % 3) : static_cast<int>(i % hot_.size());
      }
      for (std::size_t i = n; i > 1; --i) std::swap(pick[i - 1], pick[mix_() % i]);
      phase.slots.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        phase.slots[i].hot = std::max(pick[i], -1);
        if (pick[i] >= 0) {
          lines.push_back(hot_[static_cast<std::size_t>(pick[i])].line);
        } else {
          const std::size_t switches = 16 + 4 * static_cast<std::size_t>(-1 - pick[i]);
          lines.push_back(RequestLine(std::string("c").append(std::to_string(cold_)), "schedule",
                                      TopologyJson(switches, cold_seed_ + cold_)));
          ++cold_;
        }
      }
    }
    ++phases_;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      outstanding_ = offsets.size();
    }
    phase.lateness_ns.resize(offsets.size());
    phase.start_ns = NowNs();
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      Slot& slot = phase.slots[i];
      slot.due_ns = phase.start_ns + offsets[i];
      if (NowNs() < slot.due_ns) {
        Span span(tracer_, "bench.wait");
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(slot.due_ns)));
      }
      Span span(tracer_, "service.submit");
      const std::int64_t sent = NowNs();
      phase.lateness_ns[i] = LatenessNs(slot.due_ns, sent);
      service_.daemon().Submit(std::move(lines[i]), [this, &slot](const std::string& response) {
        Answer(slot, response);
      });
      phase.submit_wait_ns += span.Stop();
    }
    Span span(tracer_, "bench.drain");
    std::unique_lock<std::mutex> lock(mutex_);
    all_answered_.wait(lock, [&] { return outstanding_ == 0; });
    phase.end_ns = NowNs();
    return phase;
  }

 private:
  /// Runs on a daemon worker: records the answer and checks it.
  void Answer(Slot& slot, const std::string& response) {
    slot.done_ns = NowNs();
    slot.ok = response.find("\"ok\":true") != std::string::npos;
    if (slot.hot >= 0) {
      slot.ok = slot.ok && Canonical(response) ==
                               hot_[static_cast<std::size_t>(slot.hot)].miss_response;
    }
    for (std::size_t s = 0; s < kStages; ++s) {
      const std::size_t at = response.rfind(kStageKeys[s]);
      if (at != std::string::npos) {
        slot.stage_ns[s] = std::atoll(response.c_str() + at + std::strlen(kStageKeys[s]));
      }
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (--outstanding_ == 0) all_answered_.notify_one();
  }

  Service& service_;
  const std::vector<HotRequest>& hot_;
  Tracer& tracer_;
  std::mt19937_64 mix_;
  std::uint64_t arrival_seed_;
  std::uint64_t cold_seed_;
  std::uint64_t cold_ = 0;
  std::uint64_t phases_ = 0;
  std::mutex mutex_;
  std::condition_variable all_answered_;
  std::size_t outstanding_ = 0;
};

/// Latencies (ms, from due time) of a set of phases, plus their failures.
struct Latencies {
  std::vector<double> ms;
  std::size_t failed = 0;
  std::int64_t worst_backlog_ns = 0;  // last answer minus last due time
};

void Collect(const Phase& phase, Latencies& into) {
  for (const Slot& slot : phase.slots) {
    into.ms.push_back(static_cast<double>(slot.done_ns - slot.due_ns) / 1e6);
    if (!slot.ok) ++into.failed;
  }
  if (!phase.slots.empty()) {
    std::int64_t last_done = 0;
    for (const Slot& slot : phase.slots) last_done = std::max(last_done, slot.done_ns);
    into.worst_backlog_ns =
        std::max(into.worst_backlog_ns, last_done - phase.slots.back().due_ns);
  }
}

}  // namespace

Outcome RunServiceMixed(const Options& options, Ledger& ledger) {
  Tracer tracer;
  // The generator thread plus the workers use at most nproc threads.
  const unsigned cores = std::thread::hardware_concurrency();
  const std::size_t workers = cores > 1 ? cores - 1 : 1;
  const std::vector<std::string> hot_lines = HotLines();
  std::vector<HotRequest> hot;  // outlives the daemon that reads it
  std::unique_ptr<Service> service;
  std::unique_ptr<Generator> generator;
  // Set-up: start the daemon, warm the hot pool (each hot request's first,
  // missing response is what its later cache hits must equal), then run one
  // burst so thread pools, allocator arenas and caches are warm before the
  // first timed phase.
  const double setup_s = MedianSetupSeconds(3, [&] {
    generator.reset();
    service.reset();
    service = std::make_unique<Service>(workers);
    hot.clear();
    for (const std::string& line : hot_lines) {
      const std::string response = service->Call(line);
      ledger.Op(response.find("\"ok\":true") != std::string::npos, "hot request " + line);
      hot.push_back({line, Canonical(response)});
    }
    generator = std::make_unique<Generator>(options, *service, hot, tracer);
    for (const Slot& slot : generator->Run(PhaseKind::kBurst, 0.0).slots) {
      ledger.Op(slot.ok, "set-up burst answer");
    }
  });

  obs::Registry& registry = obs::Registry::Global();
  const std::map<std::string, std::uint64_t> before = registry.CounterValues();
  std::vector<double> untraced_bursts, traced_bursts;
  Latencies low, high;
  std::array<Latencies, kLadder.size()> rungs;
  std::vector<double> lateness_ms;
  std::array<double, kStages> stage_sum{};
  double traced_requests = 0;
  std::size_t traced_phases = 0;
  double submit_wait_ns = 0;
  std::int64_t traced_wall_ns = 0;

  const std::int64_t end_ns = NowNs() + static_cast<std::int64_t>(options.seconds * 1e9);
  // Phases run until the time is up, but at least one whole cycle (two in
  // trace mode, which alternates untraced and traced cycles).
  const std::array<std::pair<PhaseKind, double>, 6> plan = {{{PhaseKind::kBurst, 0.0},
                                                             {PhaseKind::kLow, kLowRate},
                                                             {PhaseKind::kBurst, 0.0},
                                                             {PhaseKind::kHigh, kHighRate},
                                                             {PhaseKind::kBurst, 0.0},
                                                             {PhaseKind::kRung, 0.0}}};
  const std::size_t min_phases = plan.size() * (options.trace ? 2 : 1);
  for (std::size_t p = 0; p < min_phases || NowNs() < end_ns; ++p) {
    const std::size_t cycle = p / plan.size();
    const bool traced = options.trace && cycle % 2 == 1;
    const std::size_t rung = (cycle / (options.trace ? 2 : 1)) % kLadder.size();
    auto [kind, rate] = plan[p % plan.size()];
    if (kind == PhaseKind::kRung) rate = kLadder[rung];
    tracer.set_enabled(traced);
    const std::int64_t start = NowNs();
    const Phase phase = generator->Run(kind, rate);
    tracer.set_enabled(false);
    for (const Slot& slot : phase.slots) {
      ledger.Op(slot.ok, std::string(slot.hot >= 0 ? "hot" : "cold") + " request answer");
    }
    if (traced) {
      traced_wall_ns += NowNs() - start;
      ++traced_phases;
      traced_requests += static_cast<double>(phase.slots.size());
      submit_wait_ns += static_cast<double>(phase.submit_wait_ns);
      for (const Slot& slot : phase.slots) {
        for (std::size_t s = 0; s < kStages; ++s) {
          stage_sum[s] += static_cast<double>(slot.stage_ns[s]);
        }
      }
    }
    if (kind == PhaseKind::kBurst) {
      (traced ? traced_bursts : untraced_bursts)
          .push_back(static_cast<double>(phase.end_ns - phase.start_ns) / 1e9);
      continue;
    }
    for (const std::int64_t ns : phase.lateness_ns) {
      lateness_ms.push_back(static_cast<double>(ns) / 1e6);
    }
    if (!traced) {
      Collect(phase, kind == PhaseKind::kLow    ? low
                     : kind == PhaseKind::kHigh ? high
                                                : rungs[rung]);
    }
  }

  const std::map<std::string, std::uint64_t> after = registry.CounterValues();
  const auto delta = [&](const std::string& name) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    return static_cast<double>((a == after.end() ? 0 : a->second) -
                               (b == before.end() ? 0 : b->second));
  };
  const auto hit_ratio = [&](const std::string& cache) {
    const double hits = delta("cache." + cache + ".hit");
    return hits / (hits + delta("cache." + cache + ".miss"));
  };
  double max_rps = 0.0;
  for (std::size_t k = 0; k < kLadder.size(); ++k) {
    if (rungs[k].ms.empty()) continue;
    const double p99 = Percentile(rungs[k].ms, 0.99);
    std::cout << "ladder rung " << kLadder[k] << " req/s: p99 " << p99 << " ms over "
              << rungs[k].ms.size() << " requests, backlog "
              << static_cast<double>(rungs[k].worst_backlog_ns) / 1e6 << " ms\n";
    if (RungHolds(p99, kLimitMs, rungs[k].failed, 0, rungs[k].worst_backlog_ns)) {
      max_rps = std::max(max_rps, kLadder[k]);
    }
  }
  std::cout << "samples: low " << low.ms.size() << ", high " << high.ms.size()
            << " (p99 needs " << SamplesForPercentile(0.99) << ")\n";

  Outcome out;
  out.end_to_end["setup_s"] = {setup_s, "s"};
  out.end_to_end["pass_s"] = {Median(untraced_bursts), "s"};
  out.per_layer["p50_ms.low"] = {Percentile(low.ms, 0.5), "ms"};
  out.per_layer["p99_ms.low"] = {Percentile(low.ms, 0.99), "ms"};
  out.per_layer["p50_ms.high"] = {Percentile(high.ms, 0.5), "ms"};
  out.per_layer["p99_ms.high"] = {Percentile(high.ms, 0.99), "ms"};
  out.per_layer["max_rps"] = {max_rps, "1/s"};
  out.per_layer["bench.gen_lag_ms"] = {Percentile(lateness_ms, 0.99), "ms"};
  if (options.trace) {
    const std::map<std::string, double> self =
        ReportSelfTimes(options, tracer, traced_wall_ns, traced_phases);
    for (std::size_t s = 0; s < kStages; ++s) {
      std::string key = kStageKeys[s];
      key = "service.stage." + key.substr(1, key.size() - 3);
      out.per_layer[key] = {stage_sum[s] / traced_requests, "ns"};
    }
    out.per_layer["service.topology_hit_ratio"] = {hit_ratio("topology"), "ratio"};
    out.per_layer["service.search_hit_ratio"] = {hit_ratio("result"), "ratio"};
    out.per_layer["service.model_solves"] = {delta("svc.model.solve"), "count"};
    out.per_layer["service.submit_wait_ns"] = {submit_wait_ns / traced_requests, "ns"};
    out.per_layer["service.rejected"] = {delta("svc.rejected"), "count"};
    out.per_layer["service.deadline_expired"] = {delta("svc.deadline_expired"), "count"};
    out.per_layer["unattributed_ns"] = {Row(self, "unattributed"), "ns"};
    out.per_layer["trace_overhead"] = {Median(traced_bursts) / Median(untraced_bursts), "ratio"};
  }
  return out;
}

}  // namespace perfbench
