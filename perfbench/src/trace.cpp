#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace perfbench {

void Tracer::record(std::uint64_t id, std::uint64_t parent,
                    std::uint64_t request, std::string name,
                    Clock::time_point start, Clock::time_point end) {
  if (!enabled_) {
    return;
  }
  SpanRecord rec;
  rec.id = id;
  rec.parent = parent;
  rec.request = request;
  rec.name = std::move(name);
  rec.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     start - epoch_)
                     .count();
  rec.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
          .count();
  const std::scoped_lock lock(mutex_);
  spans_.push_back(std::move(rec));
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::scoped_lock lock(mutex_);
  return spans_;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (const SpanRecord& s : spans()) {
    out << (first ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.request
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
    first = false;
  }
  out << "\n]}\n";
  return out.good();
}

Span::Span(Tracer& tracer, std::string name, std::uint64_t parent,
           std::uint64_t request)
    : tracer_(tracer),
      name_(tracer.enabled() ? std::move(name) : std::string()),
      id_(tracer.next_id()),
      parent_(parent),
      request_(request),
      start_(tracer.enabled() ? Clock::now() : Clock::time_point()) {}

Span::~Span() {
  if (tracer_.enabled()) {
    tracer_.record(id_, parent_, request_, std::move(name_), start_,
                   Clock::now());
  }
}

namespace {

std::string layer_of(const SpanRecord& s) {
  if (s.parent == 0) {
    return "bench";
  }
  const auto dot = s.name.find('.');
  return dot == std::string::npos ? s.name : s.name.substr(0, dot);
}

/// Length of the union of [start, end) intervals.
std::int64_t union_length(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (!open || start > cur_end) {
      if (open) {
        total += cur_end - cur_start;
      }
      cur_start = start;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) {
    total += cur_end - cur_start;
  }
  return total;
}

}  // namespace

SelfTimes self_times(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) {
    by_id[s.id] = &s;
  }
  for (const SpanRecord& s : spans) {
    const auto parent = by_id.find(s.parent);
    if (parent == by_id.end()) {
      continue;
    }
    // Clip to the parent so a child outliving it is not double counted.
    const std::int64_t start = std::max(s.start_ns, parent->second->start_ns);
    const std::int64_t end = std::min(s.end_ns, parent->second->end_ns);
    if (end > start) {
      children[s.parent].emplace_back(start, end);
    }
  }
  SelfTimes out;
  for (const SpanRecord& s : spans) {
    const std::string layer = layer_of(s);
    const std::int64_t duration = s.end_ns - s.start_ns;
    const auto it = children.find(s.id);
    const std::int64_t covered =
        it == children.end() ? 0 : union_length(it->second);
    const double self = static_cast<double>(duration - covered) / 1e9;
    out.self_seconds[layer] += self;
    out.total_seconds[layer] += static_cast<double>(duration) / 1e9;
    ++out.spans[layer];
    if (s.parent == 0) {
      out.root_seconds += static_cast<double>(duration) / 1e9;
      out.uncovered_seconds += self;
    }
  }
  return out;
}

}  // namespace perfbench
