// ccd_perfbench: the repo benchmark's measuring program.
//
//   ccd_perfbench --workload consensus|multihop|report|fleet --seed N
//                 --seconds S --trace 0|1 --out-dir DIR
//                 [--worker-bin PATH] [--expect JSON,CSV,DIST]
//                 [--tiny] [--corrupt-report]
//
// Set-up is timed in 50 ms samples of repeated set-ups, one untimed
// warm-up rep follows, then reps repeat until --seconds have passed, each
// after more set-up samples.  --trace 0
// reports the end-to-end metrics from untraced reps; --trace 1 alternates
// untraced and traced reps and reports the per-layer metrics.  Every rep's
// report bytes are checked; the last stdout line is one JSON object
// {"correct","attempted","failed","metrics"}.  Exit 0 when every check
// held, 1 when one failed, 2 on bad usage or set-up.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/flat_json.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Config;
using perfbench::Hashes;
using perfbench::Layers;
using perfbench::Rep;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"runs_per_sec", "1/s"}, {"cell_p50_ms", "ms"}, {"cell_tail_ms", "ms"},
    {"setup_s", "s"},        {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"grid.spec_us_per_run", "us"},
    {"world.topology_us_per_run", "us"},
    {"world.diameter_us_per_call", "us"},
    {"world.make_us_per_run", "us"},
    {"engine.lane_us_per_run", "us"},
    {"engine.scalar_us_per_run", "us"},
    {"engine.lane_run_share", "ratio"},
    {"engine.lane_fill", "ratio"},
    {"engine.ns_per_round", "ns"},
    {"engine.rounds", "count"},
    {"engine.messages_sent", "count"},
    {"engine.messages_delivered", "count"},
    {"engine.collisions", "count"},
    {"engine.crashes", "count"},
    {"engine.cm_advice_calls", "count"},
    {"engine.cd_advice_calls", "count"},
    {"aggregate.fold_us_per_run", "us"},
    {"aggregate.stats_bytes", "bytes"},
    {"render.json_ms", "ms"},
    {"render.csv_ms", "ms"},
    {"render.dist_ms", "ms"},
    {"render.bytes", "bytes"},
    {"shard.run_ms", "ms"},
    {"shard.resume_ms", "ms"},
    {"shard.report_write_ms", "ms"},
    {"shard.report_parse_ms", "ms"},
    {"shard.merge_ms", "ms"},
    {"shard.report_bytes", "bytes"},
    {"shard.checkpoint_bytes", "bytes"},
    {"dispatch.batches", "count"},
    {"dispatch.steals", "count"},
    {"dispatch.requeues", "count"},
    {"dispatch.duplicate_cells", "count"},
    {"dispatch.busy_permille", "permille"},
    {"dispatch.overhead_ms", "ms"},
    {"obs.trace_overhead_pct", "%"},
};

// One set-up takes about a millisecond or less, so a set-up sample repeats
// it until 50 ms have passed and divides by the count.  Samples run at the
// host's floor or its boost pace, like the reps, and are summarized by the
// same 95th percentile.  Before each untraced rep come two samples per
// second of the last rep's time, at least two: set-up sampling takes about
// a tenth of the run on every workload, and the 3 s fleet reps get as many
// samples per run as the 1 s sweep reps (45 or more).  The percentile is
// then the third-slowest or later, so one stalled sample does not count.
constexpr std::uint64_t kSetupSampleNs = 50'000'000;
constexpr int kSetupSamples = 9;               // up front
constexpr double kSetupSamplesPerRepS = 2.0;   // before each untraced rep
constexpr int kMinSetupSamplesPerRep = 2;
constexpr std::size_t kMinReps = 3;
// Rep times are summarized near their slowest: the 95th percentile, which
// over the usual 20-30 reps is the second-slowest rep, so one stalled rep
// does not count.  The host's speed moves in phases of seconds, from its
// guaranteed pace up to about twice that when its neighbours are idle
// (perfbench/README.md, "Noise").  A median or 75th percentile wanders
// with how much of that boost a run happened to catch; the slow end is the
// floor every run reaches, and spreads least across runs.
constexpr double kRepPercentile = 95.0;

int usage(const std::string& why) {
  std::fprintf(stderr,
               "ccd_perfbench: %s\nusage: ccd_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 --out-dir DIR\n"
               "       [--worker-bin PATH] [--expect JSON,CSV,DIST] [--tiny] "
               "[--corrupt-report]\n",
               why.c_str());
  return 2;
}

std::optional<Hashes> parse_hashes(const std::string& text) {
  Hashes h;
  unsigned long long a = 0, b = 0, c = 0;
  char tail = 0;
  if (std::sscanf(text.c_str(), "%llx,%llx,%llx%c", &a, &b, &c, &tail) != 3) {
    return std::nullopt;
  }
  h.json = a;
  h.csv = b;
  h.dist = c;
  return h;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile (pct in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, v.size()) - 1;
  return v[idx];
}

/// The highest percentile (one decimal) with at least 10 samples above it.
double tail_percentile(std::size_t n) {
  if (n <= 20) return 50.0;
  return std::floor(1000.0 * static_cast<double>(n - 10) /
                    static_cast<double>(n)) / 10.0;
}

double peak_rss_mb() {
  struct rusage self {}, children {};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);  // largest reaped fleet worker
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

/// Every digit: integral values (counts, bytes) print as integers, the
/// rest in the shortest form that parses back to the same double.
std::string number_json(double v) {
  if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  return ccd::jsonu::format_double(v);
}

std::string metrics_json(const std::vector<std::pair<MetricDef, double>>& m) {
  std::string out = "{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i) out += ", ";
    out += "\"";
    out += m[i].first.name;
    out += "\": {\"value\": " + number_json(m[i].second) +
           ", \"unit\": \"" + m[i].first.unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Config c;
  std::optional<Hashes> expect;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto need = [&]() -> bool {
      if (!value) return false;
      ++i;
      return true;
    };
    char* end = nullptr;
    if (flag == "--workload" && need()) {
      c.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && need()) {
      if (value[0] == '-') return usage("--seed must be a non-negative integer");
      c.seed = std::strtoull(value, &end, 10);
      if (*end || end == value) return usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds" && need()) {
      c.seconds = std::strtod(value, &end);
      if (*end || end == value || !(c.seconds > 0) || c.seconds > 600) {
        return usage("bad --seconds");
      }
      have_seconds = true;
    } else if (flag == "--trace" && need()) {
      const std::string v = value;
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      c.trace = v == "1";
      have_trace = true;
    } else if (flag == "--out-dir" && need()) {
      c.out_dir = value;
    } else if (flag == "--worker-bin" && need()) {
      c.worker_bin = value;
    } else if (flag == "--expect" && need()) {
      expect = parse_hashes(value);
      if (!expect) return usage("--expect takes three hex hashes JSON,CSV,DIST");
    } else if (flag == "--tiny") {
      c.tiny = true;
    } else if (flag == "--corrupt-report") {
      c.corrupt = true;
    } else {
      return usage("unknown or incomplete flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      c.out_dir.empty()) {
    return usage("--workload, --seed, --seconds, --trace and --out-dir are "
                 "required");
  }

  // Set-up samples, several up front and more before every untraced rep,
  // so they span the run's host phases; setup_s is their 95th percentile.
  std::vector<double> setup_s;
  std::optional<perfbench::Setup> setup;
  std::string setup_error;
  std::size_t setup_count = 0;
  auto time_setup = [&](int samples) {
    for (int k = 0; k < samples; ++k) {
      ccd::obs::RunTimer timer;
      std::size_t count = 0;
      do {
        setup = perfbench::make_setup(c, &setup_error);
        if (!setup) return false;
        ++count;
      } while (timer.elapsed_ns() < kSetupSampleNs);
      setup_s.push_back(static_cast<double>(timer.elapsed_ns()) / 1e9 /
                        static_cast<double>(count));
      setup_count += count;
    }
    return true;
  };
  // One untimed set-up first: it validates the arguments and warms up.
  setup = perfbench::make_setup(c, &setup_error);
  if (!setup) return usage(setup_error);
  if (!time_setup(kSetupSamples)) return usage(setup_error);
  std::filesystem::create_directories(c.out_dir);

  perfbench::Tracer tracer;
  perfbench::Tracer* tr = c.trace ? &tracer : nullptr;
  std::vector<std::string> failures;
  std::optional<perfbench::Reference> reference;
  if (setup->kind != perfbench::Kind::kSweep) {
    reference = perfbench::make_reference(*setup, tr);
  }
  const perfbench::Reference* ref = reference ? &*reference : nullptr;

  // Warm-up.  For the sweep workloads its hashes are what every later rep,
  // traced or not, must reproduce.
  const Rep warm = perfbench::run_rep(*setup, c, ref, nullptr, 0);
  if (!warm.failure.empty()) failures.push_back("warm-up: " + warm.failure);
  const Hashes want = ref ? ref->hashes : warm.hashes;
  bool all_failed = !failures.empty();
  if (expect && want != *expect) {
    failures.push_back("report hashes " + perfbench::to_hex(want) +
                       " differ from the pinned " + perfbench::to_hex(*expect));
    all_failed = true;
  }

  std::vector<Rep> untraced, traced;
  std::size_t attempted = 0, failed = 0;
  auto check = [&](Rep rep, const char* pass, std::vector<Rep>& into) {
    attempted += rep.runs;
    if (rep.failure.empty() && rep.hashes != want) {
      rep.failure = std::string(pass) + " report hashes " +
                    perfbench::to_hex(rep.hashes) + " differ from " +
                    perfbench::to_hex(want);
    }
    if (!rep.failure.empty()) {
      failures.push_back(rep.failure);
      failed += rep.runs;
    } else {
      failed += rep.error_runs;
    }
    into.push_back(std::move(rep));
  };
  ccd::obs::RunTimer clock;
  std::size_t rep_id = 1;
  // The Chrome trace keeps the reference sweep and the last traced rep;
  // the self-time table covers every span.
  std::size_t first_rep_span = 0, last_rep_span = 0;
  while (static_cast<double>(clock.elapsed_ns()) / 1e9 < c.seconds ||
         untraced.size() < kMinReps || (tr && traced.size() < kMinReps)) {
    const double last_wall_s = untraced.empty() ? warm.wall_s
                                                : untraced.back().wall_s;
    const int samples = std::max(
        kMinSetupSamplesPerRep,
        static_cast<int>(kSetupSamplesPerRepS * last_wall_s));
    if (!time_setup(samples)) return usage(setup_error);
    check(perfbench::run_rep(*setup, c, ref, nullptr, rep_id++), "untraced",
          untraced);
    if (tr) {
      last_rep_span = tracer.spans().size();
      if (traced.empty()) first_rep_span = last_rep_span;
      check(perfbench::run_rep(*setup, c, ref, tr, rep_id++), "traced",
            traced);
    }
  }
  if (all_failed) failed = attempted;
  std::size_t error_runs = 0;
  for (const auto* reps : {&untraced, &traced}) {
    for (const Rep& r : *reps) error_runs += r.error_runs;
  }
  if (error_runs > 0) {
    failures.push_back(std::to_string(error_runs) +
                       " runs returned a keyed error");
  }

  std::vector<double> walls;
  for (const Rep& r : untraced) walls.push_back(r.wall_s);
  std::vector<std::pair<MetricDef, double>> metrics;
  std::string notes;
  if (!tr) {
    // Per-cell time at the run's slow-end pace, then percentiles over
    // cells.  A cell's own time swings 2-3x between reps with the host's
    // speed phases, which are often shorter than a rep, so its 95th
    // percentile over 8-30 reps is mostly the luck of its slowest reps.
    // Its share of its rep's summed cell time does not move with the host,
    // so each cell gets the median of its shares, times the 95th
    // percentile of the summed cell time: the rep-time rule above.
    const std::size_t n_cells = untraced.front().cell_ns.size();
    std::vector<const Rep*> full;
    std::vector<double> sums_ms;
    for (const Rep& r : untraced) {
      if (r.cell_ns.size() != n_cells) continue;
      double sum = 0.0;
      for (const std::uint64_t ns : r.cell_ns) sum += static_cast<double>(ns);
      full.push_back(&r);
      sums_ms.push_back(sum / 1e6);
    }
    const double pace_ms = percentile(sums_ms, kRepPercentile);
    std::vector<double> cell_ms;
    for (std::size_t i = 0; i < n_cells; ++i) {
      std::vector<double> shares;
      for (std::size_t k = 0; k < full.size(); ++k) {
        shares.push_back(static_cast<double>(full[k]->cell_ns[i]) / 1e6 /
                         sums_ms[k]);
      }
      cell_ms.push_back(median(shares) * pace_ms);
    }
    const double tail_pct = tail_percentile(cell_ms.size());
    metrics = {{kEndToEnd[0], static_cast<double>(setup->runs) /
                                  percentile(walls, kRepPercentile)},
               {kEndToEnd[1], percentile(cell_ms, 50.0)},
               {kEndToEnd[2], percentile(cell_ms, tail_pct)},
               {kEndToEnd[3], percentile(setup_s, kRepPercentile)},
               {kEndToEnd[4], peak_rss_mb()}};
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "  cell_tail_ms is p%.1f over %zu cells (median shares of "
                  "%zu reps, at the p95 rep pace)\n",
                  tail_pct, cell_ms.size(), full.size());
    notes = buf;
  } else {
    Layers merged;
    std::map<std::string, std::vector<double>> samples;
    for (const Rep& r : traced) {
      for (const auto& [name, value] : r.layers) samples[name].push_back(value);
    }
    for (const auto& [name, values] : samples) merged[name] = median(values);
    if (ref) {
      for (const auto& [name, value] : ref->layers) merged[name] = value;
    }
    std::vector<double> traced_walls;
    for (const Rep& r : traced) traced_walls.push_back(r.wall_s);
    const double base = percentile(walls, kRepPercentile);
    merged["obs.trace_overhead_pct"] =
        100.0 * (percentile(traced_walls, kRepPercentile) - base) / base;
    for (const MetricDef& def : kPerLayer) {
      const auto it = merged.find(def.name);
      metrics.push_back({def, it == merged.end() ? 0.0 : it->second});
    }
    const std::string stem = std::string(c.out_dir) + "/trace-" + c.workload +
                             "-seed" + std::to_string(c.seed);
    std::ofstream(stem + ".json")
        << tracer.chrome_trace_json(first_rep_span, last_rep_span);
    const std::string table = tracer.self_time_table();
    std::ofstream(stem + ".layers.txt") << table;
    notes = "  self time by layer (" + stem + ".json):\n" + table;
  }

  std::printf("workload %s  seed %llu  %s  %zu untraced + %zu traced reps "
              "(+1 warm-up), %zu runs and %zu cells per rep\n",
              c.workload.c_str(), static_cast<unsigned long long>(c.seed),
              c.tiny ? "tiny" : "full", untraced.size(), traced.size(),
              setup->runs, setup->cells);
  for (const auto& [def, value] : metrics) {
    std::printf("  %-28s %16.6f %s\n", def.name, value, def.unit);
  }
  std::printf("%s", notes.c_str());
  std::printf("  failed_share %.6g (%zu of %zu runs)\n",
              attempted ? static_cast<double>(failed) /
                              static_cast<double>(attempted)
                        : 0.0,
              failed, attempted);
  std::printf("  untraced rep wall s: min %.4f median %.4f p95 %.4f max %.4f\n",
              *std::min_element(walls.begin(), walls.end()), median(walls),
              percentile(walls, kRepPercentile),
              *std::max_element(walls.begin(), walls.end()));
  std::printf("  set-up s (%zu set-ups in %zu samples): min %.6f median %.6f "
              "p95 %.6f max %.6f\n",
              setup_count, setup_s.size(),
              *std::min_element(setup_s.begin(), setup_s.end()),
              median(setup_s), percentile(setup_s, kRepPercentile),
              *std::max_element(setup_s.begin(), setup_s.end()));
  std::printf("  report hashes %s%s\n", perfbench::to_hex(want).c_str(),
              expect ? (want == *expect ? " (pinned: match)" : " (pinned: MISMATCH)")
                     : " (not pinned at this seed)");
  for (const std::string& f : failures) std::printf("  CHECK FAILED: %s\n", f.c_str());
  const bool correct = failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
