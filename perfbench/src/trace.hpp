// In-memory span recorder for the benchmark's traced pass.
//
// The benchmark times each layer from OUTSIDE the program: a span wraps a
// call into one layer's public function (SweepGrid::spec_for_run,
// WorldFactory::make, LaneExecutor::run_block, accumulate_run, run_shard,
// run_dispatch, ...).  Spans nest by scope on the one benchmark thread, so
// a span's parent is whatever span was open when it started, and a
// layer's self time is its duration minus the time its children cover.
// Nothing is written while measuring; write_chrome_trace() and
// self_time_table() run once at exit.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";     ///< layer name, e.g. "engine.lane"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into Tracer::spans(); -1 = root
  std::uint64_t id = 0;      ///< run, block, shard or rep id
};

/// Per-name totals over a set of spans.
struct LayerTime {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  ///< inclusive
  std::uint64_t self_ns = 0;   ///< total minus child spans
};

class Tracer {
 public:
  Tracer();

  /// Open a span; close it with end().  Returns its index.
  std::size_t begin(const char* name, std::uint64_t id);
  /// Close span `index` (the innermost open one); returns its duration.
  std::uint64_t end(std::size_t index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Totals per span name over spans [first, spans().size()).
  std::map<std::string, LayerTime> layer_times(std::size_t first = 0) const;

  /// Chrome trace-event JSON (complete "X" events, microseconds) of every
  /// span outside [skip_from, skip_to).
  std::string chrome_trace_json(std::size_t skip_from = 0,
                                std::size_t skip_to = 0) const;
  /// Plain-text table: name, count, inclusive ms, self ms, self share.
  std::string self_time_table() const;

 private:
  std::uint64_t epoch_ns_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span that does nothing when the tracer is null (the untraced
/// pass shares its pipeline code with the traced one).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t id = 0)
      : tracer_(tracer), index_(tracer ? tracer->begin(name, id) : 0) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Close early; returns the span's duration (0 when untraced or closed).
  std::uint64_t close() {
    if (!tracer_) return 0;
    Tracer* t = tracer_;
    tracer_ = nullptr;
    return t->end(index_);
  }

 private:
  Tracer* tracer_;
  std::size_t index_;
};

}  // namespace perfbench
