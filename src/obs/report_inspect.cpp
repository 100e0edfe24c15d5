#include "obs/report_inspect.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "util/json.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace ccd::obs {

namespace {

namespace jsonu = ccd::jsonu;

// ---- shared parsing helpers ------------------------------------------------

bool set_error(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

/// Members of the object at `r` as raw value views, for artifacts whose
/// kind is only known once every member has been seen.  Duplicate keys are
/// errors.
using MemberViews = std::map<std::string, std::string_view, std::less<>>;

bool read_member_views(jsonu::Reader& r, MemberViews* out) {
  if (!r.begin_object()) return false;
  std::string_view key;
  while (r.next_member(&key)) {
    std::string name(key);
    std::string_view raw;
    if (out->count(name)) return r.duplicate_key();
    if (!r.raw(&raw)) return false;
    out->emplace(std::move(name), raw);
  }
  return r.ok();
}

/// Display text of a raw value: a string's contents, anything else as is.
std::string text_of(std::string_view raw) {
  jsonu::Reader r(raw);
  std::string_view s;
  if (!raw.empty() && raw[0] == '"' && r.string(&s)) return std::string(s);
  return std::string(raw);
}

const std::string_view* member(const MemberViews& members,
                               std::string_view key) {
  auto it = members.find(key);
  return it == members.end() ? nullptr : &it->second;
}

std::string fmt4(double d) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", d);
  return buf;
}

std::string fmt1(double d) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", d);
  return buf;
}

std::string pct_of(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return "0.0%";
  return fmt1(100.0 * static_cast<double>(part) /
              static_cast<double>(whole)) +
         "%";
}

// ---- the unified report model ----------------------------------------------

/// One metric of one cell: either a full distribution (a rebuilt Stats, so
/// any percentile is exact) or the five-number summary an aggregate
/// report retains.
struct MetricView {
  std::string name;
  bool full = false;
  Stats stats;  ///< valid iff full
  std::uint64_t count = 0;
  double min = 0, mean = 0, p50 = 0, p99 = 0, max = 0;
};

struct CellView {
  std::uint64_t cell = 0;
  std::string spec;  ///< raw JSON, "" when the artifact has none
  std::map<std::string, std::uint64_t> counters;
  std::vector<MetricView> metrics;
};

struct ReportView {
  std::string kind;  ///< "dist" | "shard" | "report" | "sidecar"
  std::map<std::string, std::string> header;  ///< pass-through members
  std::map<std::string, std::uint64_t> totals;
  std::vector<CellView> cells;
};

MetricView metric_from_stats(std::string name, Stats stats) {
  MetricView m;
  m.name = std::move(name);
  m.full = true;
  m.count = stats.count();
  if (m.count > 0) {
    m.min = stats.min();
    m.mean = stats.mean();
    m.p50 = stats.percentile(50);
    m.p99 = stats.percentile(99);
    m.max = stats.max();
  }
  m.stats = std::move(stats);
  return m;
}

/// Read a {"count":..,"min":..,...} summary object (aggregate reports).
bool read_summary(jsonu::Reader& r, const std::string& name, MetricView* out) {
  struct Field {
    std::string_view key;
    double MetricView::* member;
  };
  static constexpr Field kFields[] = {
      {"min", &MetricView::min}, {"mean", &MetricView::mean},
      {"p50", &MetricView::p50}, {"p99", &MetricView::p99},
      {"max", &MetricView::max}};
  out->name = name;
  out->full = false;
  unsigned seen = 0;
  std::string_view key;
  if (!r.begin_object()) return false;
  while (r.next_member(&key)) {
    bool ok = true;
    if (key == "count") {
      ok = r.u64(&out->count);
      seen |= 1u << 5;
    } else {
      unsigned k = 0;
      while (k < 5 && kFields[k].key != key) ++k;
      ok = k < 5 ? r.f64(&(out->*(kFields[k].member))) : r.skip();
      if (k < 5) seen |= 1u << k;
    }
    if (!ok) return false;
  }
  if (!r.ok()) return false;
  if (seen != 0x3f) {
    return r.fail("metric '" + name + "' lacks one of count/min/mean/p50/"
                  "p99/max" + r.where());
  }
  return true;
}

/// A counter member: an unsigned integer.
bool read_counter(jsonu::Reader& r, const std::string& name, CellView* cell) {
  return r.u64(&cell->counters[name]);
}

/// Hoist an aggregate report's nested stats block ("mh"/"sync") into
/// prefixed counters and metrics.
bool hoist_summary_block(jsonu::Reader& r, const std::string& prefix,
                         CellView* cell) {
  if (!r.begin_object()) return false;
  std::string_view key;
  while (r.next_member(&key)) {
    const std::string name = prefix + "." + std::string(key);
    if (r.null()) continue;  // empty stats
    bool ok = true;
    if (r.peek() == '{') {
      ok = read_summary(r, name, &cell->metrics.emplace_back());
    } else {
      ok = read_counter(r, name, cell);
    }
    if (!ok) return false;
  }
  return r.ok();
}

/// Deterministic metric order regardless of source member order.
void sort_metrics(CellView* cell) {
  std::sort(cell->metrics.begin(), cell->metrics.end(),
            [](const MetricView& a, const MetricView& b) {
              return a.name < b.name;
            });
}

/// A full-distribution metric: one stats_to_json object.
bool read_full_metric(jsonu::Reader& r, std::string name, CellView* cell) {
  Stats stats;
  if (!read_stats(r, &stats)) return false;
  cell->metrics.push_back(metric_from_stats(std::move(name), std::move(stats)));
  return true;
}

/// The cells array of any supported artifact; `member` reads one cell
/// member (the index and spec are handled here).
template <typename Member>
bool read_cells(jsonu::Reader& r, ReportView* view, Member&& member_fn) {
  if (!r.begin_array()) return false;
  while (r.next_element()) {
    CellView cell;
    bool have_index = false;
    std::string_view key;
    if (!r.begin_object()) return false;
    while (r.next_member(&key)) {
      bool ok = true;
      if (key == "cell") {
        ok = r.u64(&cell.cell);
        have_index = true;
      } else if (key == "spec") {
        std::string_view raw;
        ok = r.raw(&raw);
        cell.spec = std::string(raw);
      } else {
        ok = member_fn(std::string(key), &cell);
      }
      if (!ok) return false;
    }
    if (!r.ok()) return false;
    if (!have_index) return r.fail("missing key 'cell'" + r.where());
    sort_metrics(&cell);
    view->cells.push_back(std::move(cell));
  }
  return r.ok();
}

bool read_dist_cells(jsonu::Reader& r, ReportView* view) {
  return read_cells(r, view, [&r](const std::string& key, CellView* cell) {
    if (key == "runs") return read_counter(r, key, cell);
    if (key != "metrics") return r.skip();
    if (!r.begin_object()) return false;
    std::string_view name;
    while (r.next_member(&name)) {
      if (!read_full_metric(r, std::string(name), cell)) return false;
    }
    return r.ok();
  });
}

bool read_shard_cells(jsonu::Reader& r, ReportView* view) {
  // Shard cell: every member other than the index is either a counter
  // (plain integer) or a statistic ({"h":..}/{"raw":..} object).
  // Heartbeat keys ride along in checkpoints; they read as counters,
  // which is fine for display.
  if (!read_cells(r, view, [&r](const std::string& key, CellView* cell) {
        return r.peek() == '{' ? read_full_metric(r, key, cell)
                               : read_counter(r, key, cell);
      })) {
    return false;
  }
  std::sort(view->cells.begin(), view->cells.end(),
            [](const CellView& a, const CellView& b) {
              return a.cell < b.cell;
            });
  return true;
}

bool read_aggregate_cells(jsonu::Reader& r, ReportView* view) {
  return read_cells(r, view, [&r](const std::string& key, CellView* cell) {
    if (key == "mh" || key == "sync") return hoist_summary_block(r, key, cell);
    if (r.null()) return true;  // empty stats
    if (r.peek() == '{') {
      return read_summary(r, key, &cell->metrics.emplace_back());
    }
    return read_counter(r, key, cell);
  });
}

bool read_sidecar_cells(jsonu::Reader& r, ReportView* view) {
  return read_cells(r, view, [&r](const std::string& key, CellView* cell) {
    return read_counter(r, key, cell);
  });
}

/// Parse any supported report artifact into the unified view.
bool parse_report(const std::string& json, ReportView* view,
                  std::string* error) {
  jsonu::Reader r(json);
  MemberViews members;
  if (!read_member_views(r, &members) || !r.end()) {
    return set_error(error, "input is not a JSON object (report, shard "
                            "report, dist, or perf sidecar expected): " +
                                r.error());
  }
  const std::string_view* format = member(members, "format");
  const std::string kind =
      format ? text_of(*format)
             : (member(members, "grid_seed") && member(members, "cells")
                    ? std::string("aggregate")
                    : std::string());
  for (const char* key :
       {"grid_fingerprint", "grid_seed", "seeds_per_cell", "num_cells",
        "num_runs", "shard_index", "shard_count"}) {
    if (const std::string_view* v = member(members, key)) {
      view->header[key] = text_of(*v);
    }
  }
  const std::string_view* cells_raw = member(members, "cells");
  if (!cells_raw) return set_error(error, "missing 'cells'");

  jsonu::Reader cells(*cells_raw);
  bool ok = false;
  if (kind == "ccd-dist-v1") {
    view->kind = "dist";
    ok = read_dist_cells(cells, view);
  } else if (kind == "ccd-shard-report-v2") {
    view->kind = "shard";
    ok = read_shard_cells(cells, view);
  } else if (kind == "aggregate") {
    view->kind = "report";
    ok = read_aggregate_cells(cells, view);
  } else if (kind == "ccd-perf-sidecar-v1") {
    view->kind = "sidecar";
    for (const char* key : {"runs", "stats_bytes_retained"}) {
      if (const std::string_view* v = member(members, key)) {
        jsonu::Reader n(*v);
        if (n.u64(&view->totals[key]) && n.end()) continue;
        return set_error(error, std::string("bad value for '") + key + "': " +
                                    n.error());
      }
    }
    ok = read_sidecar_cells(cells, view);
  } else {
    return set_error(error,
                     "unrecognized artifact" +
                         (format ? " format '" + kind + "'"
                                 : std::string(" (no 'format' member and not "
                                               "an aggregate report)")));
  }
  if (!ok) return set_error(error, "cells: " + cells.error());
  return true;
}

// ---- rendering -------------------------------------------------------------

/// Coalesce a histogram into at most max_bins display rows of contiguous
/// key ranges.
struct DisplayBin {
  std::int64_t lo = 0, hi = 0;
  std::uint64_t count = 0;
};

std::vector<DisplayBin> display_bins(const ExactHistogram& h, int max_bins) {
  std::vector<DisplayBin> rows;
  if (h.empty()) return rows;
  const auto& bins = h.bins();
  if (bins.size() <= static_cast<std::size_t>(max_bins)) {
    for (const auto& [key, cnt] : bins) rows.push_back({key, key, cnt});
    return rows;
  }
  const std::int64_t lo = h.min_key(), hi = h.max_key();
  // ceil span/max_bins without overflow on the full int64 range.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi - lo) + 1;  // hi >= lo
  const std::uint64_t width =
      (span + static_cast<std::uint64_t>(max_bins) - 1) /
      static_cast<std::uint64_t>(max_bins);
  for (const auto& [key, cnt] : bins) {
    const std::uint64_t slot = static_cast<std::uint64_t>(key - lo) / width;
    const std::int64_t row_lo =
        lo + static_cast<std::int64_t>(slot * width);
    const std::int64_t row_hi =
        row_lo + static_cast<std::int64_t>(width) - 1;
    if (rows.empty() || rows.back().lo != row_lo) {
      rows.push_back({row_lo, row_hi, 0});
    }
    rows.back().count += cnt;
  }
  return rows;
}

std::uint64_t tail_count_over(const Stats& stats, double threshold) {
  std::uint64_t tail = 0;
  if (stats.histogram_active()) {
    for (const auto& [key, cnt] : stats.histogram().bins()) {
      if (static_cast<double>(key) > threshold) tail += cnt;
    }
  } else {
    for (double x : stats.samples()) {
      if (x > threshold) ++tail;
    }
  }
  return tail;
}

void render_metric(const MetricView& m, const InspectOptions& options,
                   std::string* out) {
  *out += "  " + m.name + "  n=" + std::to_string(m.count);
  if (m.count == 0) {
    *out += "  (empty)\n";
    return;
  }
  *out += "  min=" + fmt4(m.min);
  *out += " p50=" + fmt4(m.p50);
  if (m.full) {
    *out += " p90=" + fmt4(m.stats.percentile(90));
  }
  *out += " p99=" + fmt4(m.p99);
  if (m.full) {
    *out += " p99.9=" + fmt4(m.stats.percentile(99.9));
  }
  *out += " max=" + fmt4(m.max);
  *out += " mean=" + fmt4(m.mean);
  *out += "\n";
  if (!m.full) return;
  if (m.stats.histogram_active()) {
    const ExactHistogram& h = m.stats.histogram();
    std::uint64_t peak = 0;
    const auto rows = display_bins(h, options.max_bins);
    for (const DisplayBin& row : rows) peak = std::max(peak, row.count);
    for (const DisplayBin& row : rows) {
      std::string label = std::to_string(row.lo);
      if (row.hi != row.lo) label += ".." + std::to_string(row.hi);
      const int bar = peak == 0
                          ? 0
                          : static_cast<int>(
                                (row.count * static_cast<std::uint64_t>(
                                                 options.bar_width) +
                                 peak - 1) /
                                peak);
      *out += "    " + std::string(12 > label.size() ? 12 - label.size() : 0,
                                   ' ') +
              label + " |" + std::string(static_cast<std::size_t>(bar), '#') +
              std::string(
                  static_cast<std::size_t>(options.bar_width - bar), ' ') +
              "| " + std::to_string(row.count) + "\n";
    }
  }
  if (options.tail_over) {
    const std::uint64_t tail = tail_count_over(m.stats, *options.tail_over);
    *out += "    tail > " + jsonu::format_double(*options.tail_over) + ": " +
            std::to_string(tail) + " (" + pct_of(tail, m.count) + ")\n";
  }
}

void render_cell(const ReportView& view, const CellView& cell,
                 const InspectOptions& options, std::string* out) {
  *out += "cell " + std::to_string(cell.cell);
  if (!cell.spec.empty()) *out += "  " + cell.spec;
  *out += "\n";
  if (view.kind == "sidecar") {
    auto get = [&](const char* key) -> std::string {
      auto it = cell.counters.find(key);
      return it == cell.counters.end() ? std::string("-")
                                       : std::to_string(it->second);
    };
    *out += "  runs=" + get("runs") + " total_ns=" + get("total_ns") +
            " min_ns=" + get("min_ns") + " p50_ns=" + get("p50_ns") +
            " p95_ns=" + get("p95_ns") + " max_ns=" + get("max_ns") + "\n";
    return;
  }
  if (!cell.counters.empty()) {
    *out += " ";
    for (const auto& [key, value] : cell.counters) {
      *out += " " + key + "=" + std::to_string(value);
    }
    *out += "\n";
  }
  for (const MetricView& m : cell.metrics) {
    if (!options.only_metric.empty() && m.name != options.only_metric) {
      continue;
    }
    render_metric(m, options, out);
  }
}

// ---- diffing ---------------------------------------------------------------

const MetricView* find_metric(const CellView& cell, const std::string& name) {
  for (const MetricView& m : cell.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

/// Keyed per-metric comparison; appends mismatch lines, returns whether
/// the metric pair differs.
bool diff_metric(std::uint64_t cell, const MetricView& a, const MetricView& b,
                 std::string* out) {
  bool differs = false;
  const std::string key =
      "cell " + std::to_string(cell) + " " + a.name + ".";
  if (a.count != b.count) {
    *out += key + "count: " + std::to_string(a.count) + " -> " +
            std::to_string(b.count) + "\n";
    differs = true;
  }
  struct Field {
    const char* name;
    double MetricView::* member;
  };
  for (const Field& f : {Field{"min", &MetricView::min},
                         Field{"mean", &MetricView::mean},
                         Field{"p50", &MetricView::p50},
                         Field{"p99", &MetricView::p99},
                         Field{"max", &MetricView::max}}) {
    const double av = a.*(f.member), bv = b.*(f.member);
    if (a.count == 0 || b.count == 0) break;
    if (av != bv) {
      *out += key + f.name + ": " + fmt4(av) + " -> " + fmt4(bv) +
              " (delta " + fmt4(bv - av) + ")\n";
      differs = true;
    }
  }
  // Full distributions additionally diff per key: the part a five-number
  // summary can never see.
  if (a.full && b.full && a.stats.histogram_active() &&
      b.stats.histogram_active()) {
    std::map<std::int64_t, std::int64_t> delta;
    for (const auto& [k, c] : a.stats.histogram().bins()) {
      delta[k] -= static_cast<std::int64_t>(c);
    }
    for (const auto& [k, c] : b.stats.histogram().bins()) {
      delta[k] += static_cast<std::int64_t>(c);
    }
    int shown = 0;
    int changed = 0;
    for (const auto& [k, d] : delta) {
      if (d == 0) continue;
      ++changed;
      if (shown < 16) {
        *out += key + "bin[" + std::to_string(k) +
                "]: " + (d > 0 ? "+" : "") + std::to_string(d) + "\n";
        ++shown;
      }
      differs = true;
    }
    if (changed > shown) {
      *out += key + "... " + std::to_string(changed - shown) +
              " more changed bins\n";
    }
  }
  return differs;
}

// ---- trace model -----------------------------------------------------------

struct TraceRound {
  std::uint64_t round = 0;
  std::string broadcasters, receive_counts, cd, cm, views;
};

struct TraceRun {
  std::uint64_t run_index = 0, seed = 0;
  std::string solved;
  std::string decisions, crashes;  ///< raw array text
  std::vector<TraceRound> rounds;
  bool has_log = false;
};

struct TraceDoc {
  std::uint64_t cell = 0;
  std::vector<TraceRun> runs;
};

bool read_trace_round(jsonu::Reader& r, TraceRound* round) {
  std::string_view key, raw;
  if (!r.begin_object()) return false;
  while (r.next_member(&key)) {
    bool ok = true;
    if (key == "round") {
      ok = r.u64(&round->round);
    } else if (key == "cd" || key == "cm") {
      ok = r.string(&raw);
      (key == "cd" ? round->cd : round->cm) = std::string(raw);
    } else if (key == "broadcasters" || key == "receive_counts" ||
               key == "views") {
      ok = r.raw(&raw);
      (key == "broadcasters"     ? round->broadcasters
       : key == "receive_counts" ? round->receive_counts
                                 : round->views) = std::string(raw);
    } else {
      ok = r.skip();
    }
    if (!ok) return false;
  }
  return r.ok();
}

bool read_trace_log(jsonu::Reader& r, TraceRun* run) {
  std::string_view key, raw;
  bool have_rounds = false;
  if (!r.begin_object()) return false;
  while (r.next_member(&key)) {
    bool ok = true;
    if (key == "decisions" || key == "crashes") {
      ok = r.raw(&raw);
      (key == "decisions" ? run->decisions : run->crashes) = std::string(raw);
    } else if (key == "rounds") {
      have_rounds = true;
      ok = r.begin_array();
      while (ok && r.next_element()) {
        ok = read_trace_round(r, &run->rounds.emplace_back());
      }
      ok = ok && r.ok();
    } else {
      ok = r.skip();
    }
    if (!ok) return false;
  }
  if (!r.ok()) return false;
  return have_rounds || r.fail("missing key 'rounds'" + r.where());
}

bool read_trace_run(jsonu::Reader& r, TraceRun* run) {
  std::string_view key, raw;
  if (!r.begin_object()) return false;
  while (r.next_member(&key)) {
    bool ok = true;
    if (key == "run_index") {
      ok = r.u64(&run->run_index);
    } else if (key == "seed") {
      ok = r.u64(&run->seed);
    } else if (key == "solved") {
      ok = r.raw(&raw);
      run->solved = std::string(raw);
    } else if (key == "log") {
      run->has_log = true;
      ok = read_trace_log(r, run);
    } else {
      ok = r.skip();
    }
    if (!ok) return false;
  }
  return r.ok();
}

bool parse_trace(const std::string& json, const char* label, TraceDoc* doc,
                 std::string* error) {
  constexpr std::string_view kFormat = "ccd-cell-trace-v1";
  jsonu::Reader r(json);
  bool have_format = false, have_runs = false;
  std::string_view key;
  if (r.begin_object()) {
    while (r.next_member(&key)) {
      bool ok = true;
      if (key == "format") {
        have_format = true;
        ok = jsonu::read_format(r, kFormat);
      } else if (key == "cell") {
        ok = r.u64(&doc->cell);
      } else if (key == "runs") {
        have_runs = true;
        ok = r.begin_array();
        while (ok && r.next_element()) {
          ok = read_trace_run(r, &doc->runs.emplace_back());
        }
        ok = ok && r.ok();
      } else {
        ok = r.skip();
      }
      if (!ok) break;
    }
  }
  if (r.ok() && !have_format) jsonu::missing_format(r, kFormat);
  if (r.ok() && !have_runs) r.fail("missing key 'runs'");
  if (r.ok() && r.end()) return true;
  return set_error(error, std::string(label) + ": " + r.error() +
                              " (a ccd_sweep --rerun-cell dump expected)");
}

/// Raw texts of an array's elements; false when `raw` is not an array.
bool array_items(std::string_view raw, std::vector<std::string_view>* items) {
  jsonu::Reader r(raw);
  std::string_view item;
  if (!r.begin_array()) return false;
  while (r.next_element()) {
    if (!r.raw(&item)) return false;
    items->push_back(item);
  }
  return r.ok() && r.end();
}

/// "p2=v1@r5, p0=v1@r6" rendering of a decisions/crashes array.
std::string render_events(const std::string& raw) {
  std::vector<std::string_view> items;
  if (!array_items(raw, &items)) return raw;
  if (items.empty()) return "(none)";
  std::string out;
  for (std::string_view item : items) {
    jsonu::Reader r(item);
    MemberViews fields;
    if (!read_member_views(r, &fields)) return raw;
    if (!out.empty()) out += ", ";
    if (const std::string_view* p = member(fields, "process")) {
      out += "p" + text_of(*p);
    }
    if (const std::string_view* v = member(fields, "value")) {
      out += "=v" + text_of(*v);
    }
    if (const std::string_view* r2 = member(fields, "round")) {
      out += "@r" + text_of(*r2);
    }
  }
  return out;
}

/// First process whose per-round view differs; -1 when equal or opaque.
int first_view_divergence(const std::string& a, const std::string& b) {
  std::vector<std::string_view> av, bv;
  if (!array_items(a, &av) || !array_items(b, &bv)) return -1;
  const std::size_t n = std::min(av.size(), bv.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (av[i] != bv[i]) return static_cast<int>(i);
  }
  if (av.size() != bv.size()) return static_cast<int>(n);
  return -1;
}

}  // namespace

// ---- public API ------------------------------------------------------------

bool render_report(const std::string& json, const InspectOptions& options,
                   std::string* out, std::string* error) {
  ReportView view;
  if (!parse_report(json, &view, error)) return false;
  *out += view.kind;
  for (const char* key : {"grid_fingerprint", "grid_seed", "seeds_per_cell",
                          "num_cells", "shard_index", "shard_count"}) {
    auto it = view.header.find(key);
    if (it != view.header.end()) {
      *out += std::string("  ") + key + "=" + it->second;
    }
  }
  *out += "  cells_listed=" + std::to_string(view.cells.size());
  *out += "\n";
  for (const auto& [key, value] : view.totals) {
    *out += key + "=" + std::to_string(value) + "\n";
  }
  for (const CellView& cell : view.cells) {
    if (options.only_cell && cell.cell != *options.only_cell) continue;
    render_cell(view, cell, options, out);
  }
  return true;
}

bool diff_reports(const std::string& a_json, const std::string& b_json,
                  std::string* out, bool* differs, std::string* error) {
  ReportView a, b;
  if (!parse_report(a_json, &a, error)) return false;
  if (!parse_report(b_json, &b, error)) return false;
  *differs = false;
  if (a.kind != b.kind) {
    return set_error(error, "cannot diff a " + a.kind + " against a " +
                                b.kind + " artifact");
  }
  // Identity first: two artifacts from different grids can still have
  // coinciding cell contents, and that coincidence should not read as
  // "identical".
  std::set<std::string> header_keys;
  for (const auto& [key, value] : a.header) header_keys.insert(key);
  for (const auto& [key, value] : b.header) header_keys.insert(key);
  for (const std::string& key : header_keys) {
    auto av = a.header.find(key);
    auto bv = b.header.find(key);
    const std::string a_text =
        av == a.header.end() ? "(absent)" : av->second;
    const std::string b_text =
        bv == b.header.end() ? "(absent)" : bv->second;
    if (a_text != b_text) {
      *out += key + ": " + a_text + " -> " + b_text + "\n";
      *differs = true;
    }
  }
  std::map<std::uint64_t, const CellView*> b_cells;
  for (const CellView& cell : b.cells) b_cells[cell.cell] = &cell;
  std::set<std::uint64_t> seen;
  for (const CellView& ac : a.cells) {
    seen.insert(ac.cell);
    auto it = b_cells.find(ac.cell);
    if (it == b_cells.end()) {
      *out += "cell " + std::to_string(ac.cell) + ": only in A\n";
      *differs = true;
      continue;
    }
    const CellView& bc = *it->second;
    // Counters: union of keys, keyed mismatches.
    std::set<std::string> counter_keys;
    for (const auto& [key, value] : ac.counters) counter_keys.insert(key);
    for (const auto& [key, value] : bc.counters) counter_keys.insert(key);
    for (const std::string& key : counter_keys) {
      auto av = ac.counters.find(key);
      auto bv = bc.counters.find(key);
      const std::string a_text = av == ac.counters.end()
                                     ? "(absent)"
                                     : std::to_string(av->second);
      const std::string b_text = bv == bc.counters.end()
                                     ? "(absent)"
                                     : std::to_string(bv->second);
      if (a_text != b_text) {
        *out += "cell " + std::to_string(ac.cell) + " " + key + ": " +
                a_text + " -> " + b_text + "\n";
        *differs = true;
      }
    }
    std::set<std::string> metric_names;
    for (const MetricView& m : ac.metrics) metric_names.insert(m.name);
    for (const MetricView& m : bc.metrics) metric_names.insert(m.name);
    for (const std::string& name : metric_names) {
      const MetricView* am = find_metric(ac, name);
      const MetricView* bm = find_metric(bc, name);
      if (!am || !bm) {
        *out += "cell " + std::to_string(ac.cell) + " " + name +
                ": only in " + (am ? "A" : "B") + "\n";
        *differs = true;
        continue;
      }
      if (diff_metric(ac.cell, *am, *bm, out)) *differs = true;
    }
  }
  for (const CellView& bc : b.cells) {
    if (!seen.count(bc.cell)) {
      *out += "cell " + std::to_string(bc.cell) + ": only in B\n";
      *differs = true;
    }
  }
  if (!*differs) {
    *out += "identical: " + std::to_string(a.cells.size()) + " cells match\n";
  }
  return true;
}

bool export_dist(const std::string& json, std::string* out,
                 std::string* error) {
  ReportView view;
  if (!parse_report(json, &view, error)) return false;
  if (view.kind != "dist" && view.kind != "shard") {
    return set_error(error,
                     "export needs full distributions (a ccd-dist-v1 or "
                     "shard-report input); a " +
                         view.kind + " artifact only has summaries");
  }
  *out = "{\"format\":\"ccd-dist-v1\"";
  for (const char* key :
       {"grid_fingerprint", "grid_seed", "seeds_per_cell", "num_cells"}) {
    auto it = view.header.find(key);
    if (it == view.header.end()) continue;
    *out += ",\"" + std::string(key) + "\":";
    *out += key == std::string("grid_fingerprint")
                ? "\"" + it->second + "\""
                : it->second;
  }
  *out += ",\"cells\":[";
  for (std::size_t i = 0; i < view.cells.size(); ++i) {
    const CellView& cell = view.cells[i];
    if (i > 0) *out += ",";
    *out += "{\"cell\":" + std::to_string(cell.cell);
    if (!cell.spec.empty()) *out += ",\"spec\":" + cell.spec;
    auto runs = cell.counters.find("runs");
    if (runs != cell.counters.end()) {
      *out += ",\"runs\":" + std::to_string(runs->second);
    }
    *out += ",\"metrics\":{";
    bool first = true;
    for (const MetricView& m : cell.metrics) {
      if (m.count == 0) continue;
      if (!first) *out += ",";
      first = false;
      *out += "\"" + m.name + "\":" + stats_to_json(m.stats);
    }
    *out += "}}";
  }
  *out += "]}";
  return true;
}

bool diff_traces(const std::string& a_json, const std::string& b_json,
                 std::string* out, bool* differs, std::string* error) {
  TraceDoc a, b;
  if (!parse_trace(a_json, "A", &a, error)) return false;
  if (!parse_trace(b_json, "B", &b, error)) return false;
  *differs = false;
  *out += "A: cell " + std::to_string(a.cell) + ", " +
          std::to_string(a.runs.size()) + " runs; B: cell " +
          std::to_string(b.cell) + ", " + std::to_string(b.runs.size()) +
          " runs\n";
  const std::size_t n = std::min(a.runs.size(), b.runs.size());
  if (a.runs.size() != b.runs.size()) {
    *out += "run count differs: " + std::to_string(a.runs.size()) + " vs " +
            std::to_string(b.runs.size()) + " (comparing first " +
            std::to_string(n) + ")\n";
    *differs = true;
  }
  std::size_t identical = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceRun& ar = a.runs[i];
    const TraceRun& br = b.runs[i];
    const std::string head =
        "run " + std::to_string(i) + " (A run_index=" +
        std::to_string(ar.run_index) + " seed=" + std::to_string(ar.seed) +
        " / B run_index=" + std::to_string(br.run_index) +
        " seed=" + std::to_string(br.seed) + ")";
    // Locate the first divergent round.
    const std::size_t rounds = std::min(ar.rounds.size(), br.rounds.size());
    std::size_t div = rounds;
    for (std::size_t r = 0; r < rounds; ++r) {
      const TraceRound& x = ar.rounds[r];
      const TraceRound& y = br.rounds[r];
      if (x.broadcasters != y.broadcasters ||
          x.receive_counts != y.receive_counts || x.cd != y.cd ||
          x.cm != y.cm || x.views != y.views) {
        div = r;
        break;
      }
    }
    const bool len_differs = ar.rounds.size() != br.rounds.size();
    const bool events_differ =
        ar.decisions != br.decisions || ar.crashes != br.crashes;
    if (div == rounds && !len_differs && !events_differ) {
      ++identical;
      continue;
    }
    *differs = true;
    *out += head + ":\n";
    if (div < rounds) {
      const TraceRound& x = ar.rounds[div];
      const TraceRound& y = br.rounds[div];
      *out += "  first divergent round: " + std::to_string(x.round) + "\n";
      if (x.broadcasters != y.broadcasters) {
        *out += "    broadcasters: " + x.broadcasters + " vs " +
                y.broadcasters + "\n";
      }
      if (x.receive_counts != y.receive_counts) {
        *out += "    receive_counts: " + x.receive_counts + " vs " +
                y.receive_counts + "\n";
      }
      if (x.cd != y.cd) {
        *out += "    cd advice: " + x.cd + " vs " + y.cd + "\n";
      }
      if (x.cm != y.cm) {
        *out += "    cm advice: " + x.cm + " vs " + y.cm + "\n";
      }
      if (x.views != y.views) {
        const int p = first_view_divergence(x.views, y.views);
        *out += "    views diverge";
        if (p >= 0) *out += " first at p" + std::to_string(p);
        *out += "\n";
      }
    } else if (len_differs) {
      *out += "  aligned rounds identical; length differs: " +
              std::to_string(ar.rounds.size()) + " vs " +
              std::to_string(br.rounds.size()) + " rounds\n";
    }
    if (ar.decisions != br.decisions) {
      *out += "  decisions: " + render_events(ar.decisions) + "  vs  " +
              render_events(br.decisions) + "\n";
    }
    if (ar.crashes != br.crashes) {
      *out += "  crashes: " + render_events(ar.crashes) + "  vs  " +
              render_events(br.crashes) + "\n";
    }
    if (ar.solved != br.solved) {
      *out += "  solved: " + ar.solved + " vs " + br.solved + "\n";
    }
  }
  *out += std::to_string(identical) + "/" + std::to_string(n) +
          " aligned runs identical\n";
  return true;
}

// ---- bench diff ------------------------------------------------------------

namespace {

struct BenchEntry {
  std::map<std::string, double> metrics;
  std::set<std::string> gated;  ///< metrics the regression gate applies to
};

/// Numeric member `key` of `fields` into *out; keyed error otherwise.
bool bench_number(const MemberViews& fields, const char* what,
                  const char* key, double* out, std::string* error) {
  const std::string_view* raw = member(fields, key);
  if (raw) {
    jsonu::Reader r(*raw);
    if (r.f64(out) && r.end()) return true;
  }
  return set_error(error, std::string(what) + " missing '" + key + "'");
}

bool parse_bench_object(jsonu::Reader& r,
                        std::map<std::string, BenchEntry>* entries,
                        std::string* error) {
  MemberViews fields;
  if (!read_member_views(r, &fields)) {
    return set_error(error, "bench artifact is not a JSON object: " +
                                r.error());
  }
  const std::string_view* format = member(fields, "format");
  if (!format || text_of(*format) != "ccd-bench-v1") {
    return set_error(error, "expected format ccd-bench-v1");
  }
  const std::string_view* bench_raw = member(fields, "bench");
  if (!bench_raw) return set_error(error, "missing 'bench'");
  const std::string bench = text_of(*bench_raw);
  if (bench == "sweep_throughput") {
    const std::string_view* grid = member(fields, "grid");
    if (!grid) return set_error(error, "sweep_throughput missing 'grid'");
    BenchEntry entry;
    for (const char* key : {"runs_per_sec", "rounds_per_sec"}) {
      if (!bench_number(fields, "sweep_throughput", key, &entry.metrics[key],
                        error)) {
        return false;
      }
      entry.gated.insert(key);
    }
    (*entries)["sweep:" + text_of(*grid)] = std::move(entry);
    return true;
  }
  if (bench == "engine_lanes") {
    const std::string_view* items_raw = member(fields, "entries");
    if (!items_raw) return set_error(error, "engine_lanes missing 'entries'");
    std::vector<std::string_view> items;
    if (!array_items(*items_raw, &items)) {
      return set_error(error, "'entries' is not a JSON array");
    }
    for (std::string_view item : items) {
      jsonu::Reader er(item);
      MemberViews ef;
      if (!read_member_views(er, &ef)) {
        return set_error(error, "engine_lanes entry is not a JSON object");
      }
      const std::string_view* config = member(ef, "config");
      const std::string_view* n = member(ef, "n");
      if (!config || !n) {
        return set_error(error, "engine_lanes entry missing config/n");
      }
      BenchEntry entry;
      for (const char* key :
           {"scalar_rounds_per_sec", "lane_rounds_per_sec", "speedup"}) {
        if (!bench_number(ef, "engine_lanes entry", key, &entry.metrics[key],
                          error)) {
          return false;
        }
      }
      // Absolute rates are machine physics; the scalar-vs-lane speedup is
      // machine-relative and is what the gate watches.
      entry.gated.insert("speedup");
      (*entries)["lanes:" + text_of(*config) + "/n" + text_of(*n)] =
          std::move(entry);
    }
    return true;
  }
  if (bench == "dispatch_steal") {
    const std::string_view* grid = member(fields, "grid");
    const std::string_view* workers = member(fields, "workers");
    if (!grid || !workers) {
      return set_error(error, "dispatch_steal missing 'grid'/'workers'");
    }
    BenchEntry entry;
    for (const char* key :
         {"static_wall_ns", "dynamic_wall_ns", "speedup", "steals"}) {
      if (!bench_number(fields, "dispatch_steal", key, &entry.metrics[key],
                        error)) {
        return false;
      }
    }
    // Absolute walls are machine physics; the dynamic-vs-static speedup is
    // machine-relative and is what the gate watches.
    entry.gated.insert("speedup");
    (*entries)["dispatch:" + text_of(*grid) + "/w" + text_of(*workers)] =
        std::move(entry);
    return true;
  }
  return set_error(error, "unknown bench kind '" + bench + "'");
}

/// A bench artifact is a single ccd-bench-v1 object or a JSON array of
/// them (the CI's BENCH_sweep_throughput.json).
bool parse_bench_file(const std::string& json,
                      std::map<std::string, BenchEntry>* entries,
                      std::string* error) {
  jsonu::Reader r(json);
  const char first = r.peek();
  if (first == '\0') return set_error(error, "empty bench artifact");
  if (first == '[') {
    if (!r.begin_array()) return set_error(error, r.error());
    while (r.next_element()) {
      if (!parse_bench_object(r, entries, error)) return false;
    }
    if (!r.ok() || !r.end()) {
      return set_error(error, "bench artifact array is malformed: " +
                                  r.error());
    }
    return true;
  }
  if (!parse_bench_object(r, entries, error)) return false;
  if (!r.end()) return set_error(error, r.error());
  return true;
}

}  // namespace

bool diff_bench(const std::string& old_json, const std::string& new_json,
                double max_regress_pct, std::string* out, bool* regressed,
                std::string* error) {
  std::map<std::string, BenchEntry> old_entries, new_entries;
  if (!parse_bench_file(old_json, &old_entries, error)) {
    if (error) *error = "old: " + *error;
    return false;
  }
  if (!parse_bench_file(new_json, &new_entries, error)) {
    if (error) *error = "new: " + *error;
    return false;
  }
  *regressed = false;
  for (const auto& [key, old_entry] : old_entries) {
    auto it = new_entries.find(key);
    if (it == new_entries.end()) {
      *out += key + ": missing from new artifact (REGRESSION: benchmark "
              "disappeared)\n";
      *regressed = true;
      continue;
    }
    for (const auto& [metric, old_value] : old_entry.metrics) {
      auto mv = it->second.metrics.find(metric);
      if (mv == it->second.metrics.end()) continue;
      const double new_value = mv->second;
      const double change_pct =
          old_value != 0.0
              ? (new_value - old_value) / old_value * 100.0
              : 0.0;
      const bool gate = old_entry.gated.count(metric) > 0;
      const bool regression = gate && change_pct < -max_regress_pct;
      *out += key + " " + metric + ": " + fmt1(old_value) + " -> " +
              fmt1(new_value) + " (" + (change_pct >= 0 ? "+" : "") +
              fmt1(change_pct) + "%)";
      if (!gate) *out += " [not gated]";
      if (regression) {
        *out += "  REGRESSION (worse than -" + fmt1(max_regress_pct) + "%)";
        *regressed = true;
      }
      *out += "\n";
    }
  }
  for (const auto& [key, entry] : new_entries) {
    if (!old_entries.count(key)) *out += key + ": new benchmark\n";
  }
  return true;
}

}  // namespace ccd::obs
