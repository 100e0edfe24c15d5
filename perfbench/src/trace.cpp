#include "trace.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/telemetry.hpp"

namespace perfbench {

Tracer::Tracer() : epoch_ns_(ccd::obs::RunTimer::now_ns()) {}

std::size_t Tracer::begin(const char* name, std::uint64_t id) {
  Span span;
  span.name = name;
  span.id = id;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.start_ns = ccd::obs::RunTimer::now_ns() - epoch_ns_;
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

std::uint64_t Tracer::end(std::size_t index) {
  Span& span = spans_[index];
  span.end_ns = ccd::obs::RunTimer::now_ns() - epoch_ns_;
  // Scopes close innermost-first, so `index` is the top of the stack.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
  return span.end_ns - span.start_ns;
}

std::map<std::string, LayerTime> Tracer::layer_times(std::size_t first) const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint64_t dur = s.end_ns - s.start_ns;
    LayerTime& t = out[s.name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - std::min(dur, child_ns[i]);
  }
  return out;
}

std::string Tracer::chrome_trace_json(std::size_t skip_from,
                                     std::size_t skip_to) const {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (i >= skip_from && i < skip_to) continue;
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"span\":%zu,\"parent\":%lld}}",
                  first ? "" : ",", s.name,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id), i,
                  static_cast<long long>(s.parent));
    out += buf;
    first = false;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string Tracer::self_time_table() const {
  const auto times = layer_times();
  std::uint64_t self_sum = 0;
  for (const auto& [name, t] : times) self_sum += t.self_ns;
  std::vector<std::pair<std::string, LayerTime>> rows(times.begin(),
                                                      times.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  std::string out =
      "layer                      spans      total_ms       self_ms  self%\n";
  char buf[160];
  for (const auto& [name, t] : rows) {
    std::snprintf(buf, sizeof buf, "%-24s %8llu %13.3f %13.3f %6.2f\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  static_cast<double>(t.total_ns) / 1e6,
                  static_cast<double>(t.self_ns) / 1e6,
                  self_sum ? 100.0 * static_cast<double>(t.self_ns) /
                                 static_cast<double>(self_sum)
                           : 0.0);
    out += buf;
  }
  return out;
}

}  // namespace perfbench
