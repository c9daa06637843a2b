#pragma once

// In-memory span recorder for the traced run.  Spans are recorded only in
// the benchmark's own code, around each call into a parowl layer: name
// ("<layer>.<call>"), start, end, parent span, and a request id shared by
// every span of one request.  Nothing is written until the run ends.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // 0 = not part of a request
  std::string name;
  std::int64_t start_ns = 0;  // since the tracer's epoch
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Reserve a span id (0 when tracing is off).
  [[nodiscard]] std::uint64_t next_id() {
    return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
  }

  /// Store a finished span; a no-op when tracing is off.
  void record(std::uint64_t id, std::uint64_t parent, std::uint64_t request,
              std::string name, Clock::time_point start,
              Clock::time_point end);

  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Write every span as Chrome trace-event JSON ("X" events; args carry
  /// id, parent and request).
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
};

/// RAII span: records [construction, destruction) under `parent`.
class Span {
 public:
  Span(Tracer& tracer, std::string name, std::uint64_t parent = 0,
       std::uint64_t request = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::string name_;
  std::uint64_t id_;
  std::uint64_t parent_;
  std::uint64_t request_;
  Clock::time_point start_;
};

/// Self-time table: for each layer (the span-name prefix before the first
/// '.'), the summed duration of its spans minus the part of each span that
/// its child spans cover.  Root spans belong to the "bench" layer; their
/// self time is wall time that no layer span covers.
struct SelfTimes {
  std::map<std::string, double> self_seconds;   // by layer
  std::map<std::string, double> total_seconds;  // by layer, with children
  std::map<std::string, std::size_t> spans;     // by layer
  double root_seconds = 0.0;       // summed duration of root spans
  double uncovered_seconds = 0.0;  // root time under no layer span
};

[[nodiscard]] SelfTimes self_times(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
