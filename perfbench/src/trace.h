// The benchmark's own span recorder. Spans wrap the benchmark's calls into
// each library layer; they are kept in memory and written out at exit.
// Deliberately independent of the library's obs:: timers, so changes to
// those cannot change what this benchmark measures.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";
  std::uint32_t thread = 0;  // recorder-local thread number
  std::int64_t parent = -1;  // index of the enclosing span, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Records spans from the thread that created it. Disabled recorders keep
/// nothing, so an untraced pass pays only the clock reads of Span.
class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Opens a span; returns its index, or -1 when disabled.
  std::int64_t Begin(const char* name, std::int64_t start_ns) {
    if (!enabled_) return -1;
    if (std::this_thread::get_id() != owner_) {
      throw std::logic_error("spans must be recorded on the tracer's thread");
    }
    spans_.push_back({name, 0, open_, start_ns, start_ns});
    open_ = static_cast<std::int64_t>(spans_.size()) - 1;
    return open_;
  }

  void End(std::int64_t index, std::int64_t end_ns) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
    open_ = spans_[static_cast<std::size_t>(index)].parent;
  }

  /// Chrome trace-event JSON ("X" events; parent index in args).
  void WriteChromeJson(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    out << "{\"traceEvents\":[";
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << s.thread << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
  }

 private:
  bool enabled_ = false;
  std::thread::id owner_ = std::this_thread::get_id();
  std::vector<SpanRecord> spans_;
  std::int64_t open_ = -1;
};

/// Times one call. Always measures (the benchmark's part times come from
/// it); records a span only while the tracer is enabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), start_ns_(NowNs()), index_(tracer.Begin(name, start_ns_)) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { Stop(); }

  /// Ends the span (idempotent) and returns its duration in ns.
  std::int64_t Stop() {
    if (end_ns_ < 0) {
      end_ns_ = NowNs();
      tracer_.End(index_, end_ns_);
    }
    return end_ns_ - start_ns_;
  }

 private:
  Tracer& tracer_;
  std::int64_t start_ns_;
  std::int64_t index_;
  std::int64_t end_ns_ = -1;
};

/// Per-name self time: each span's duration minus the time its direct
/// children cover. Self times over a span tree sum to the roots' durations,
/// so adding the "unattributed" remainder (wall minus the roots) makes the
/// rows sum to `wall_ns` exactly.
inline std::map<std::string, std::int64_t> SelfTimes(const std::vector<SpanRecord>& spans,
                                                     std::int64_t wall_ns) {
  std::vector<std::int64_t> self(spans.size());
  std::int64_t roots = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] += spans[i].end_ns - spans[i].start_ns;
    if (spans[i].parent < 0) {
      roots += spans[i].end_ns - spans[i].start_ns;
    } else {
      self[static_cast<std::size_t>(spans[i].parent)] -= spans[i].end_ns - spans[i].start_ns;
    }
  }
  std::map<std::string, std::int64_t> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) rows[spans[i].name] += self[i];
  rows["unattributed"] += wall_ns - roots;
  return rows;
}

}  // namespace perfbench
