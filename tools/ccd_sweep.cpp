// ccd_sweep: batch experiment driver for the exp/ orchestration engine.
//
// Runs a named grid (see SweepGrid::named) or an ad-hoc grid assembled
// from axis flags, executes every cell x seed across a thread pool, and
// emits per-cell aggregate statistics as an ASCII summary, JSON and/or
// CSV.  Aggregates are a pure function of (grid, grid seed): the JSON
// report is byte-identical at --threads 1 and --threads 8.
//
// Examples:
//   ccd_sweep --grid default --threads 8 --json report.json
//   ccd_sweep --algs alg1,alg2 --detectors maj-oac,zero-oac --csts 5,20
//             --n 4,16 --seeds 10 --csv sweep.csv
//   ccd_sweep --grid multihop --threads 8 --json mh.json
//   ccd_sweep --workloads flood --topologies rgg --densities 2,3,4
//             --n 16,32,64 --seeds 5
//   ccd_sweep --grid multihop --faults scheduled
//             --crash-schedules leaf-then-die,source-dies
//
// Sharded execution (recombine with ccd_merge):
//   ccd_sweep --grid multihop --emit-shards 4 --shard-out shards/mh
//   ccd_sweep --shard-file shards/mh-0-of-4.json --json part-0.json
//   ccd_sweep --grid multihop --shard 1/4 --json part-1.json
//             --checkpoint part-1.ckpt          # resumable with --resume
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/shard/shard_plan.hpp"
#include "exp/shard/shard_runner.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"
#include "exp/trace_capture.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/perf_sidecar.hpp"
#include "obs/telemetry.hpp"
#include "util/parse_uint.hpp"

namespace {

using namespace ccd;
using namespace ccd::exp;

void usage(std::FILE* out) {
  std::fprintf(out, R"(usage: ccd_sweep [options]

grid selection:
  --grid NAME          named grid (--list-grids); default "default"
  --list-grids         print the named grids and exit

axis overrides (comma-separated; replace the named grid's axis):
  --algs LIST          alg1,alg2,alg3,alg4,naive
  --detectors LIST     ac,maj-ac,half-ac,zero-ac,oac,maj-oac,half-oac,
                       zero-oac,nocd,noacc
  --policies LIST      truthful,prefer-null,prefer-collision,spurious,
                       flaky-majority,random-legal
  --cms LIST           nocm,wakeup,leader,backoff
  --losses LIST        noloss,ecf,prob,unrestricted
  --faults LIST        none,random-crash,scheduled
  --crash-schedules L  named crash-schedule generators for fault=scheduled
                       cells: leaf-then-die,source-dies,articulation-point
  --n LIST             process counts, e.g. 4,8,16
  --values LIST        |V| per cell, e.g. 16,256
  --csts LIST          CST targets, e.g. 5,20
  --topologies LIST    singlehop,line,ring,grid,rgg
  --workloads LIST     consensus,flood,mis,mis-then-consensus
  --densities LIST     rgg density factors (1.0 = connectivity threshold;
                       floor 2.0), e.g. 2,3; inert for other topologies

scalar knobs:
  --seeds N            seeds per cell (default: grid's)
  --grid-seed S        master seed (default: grid's)
  --chaos calm|chaotic pre-CST environment flavour
  --init random|split|same
  --p-deliver P        delivery probability knob (round-sync: beacon
                       delivery, loss = 1 - P)
  --max-rounds N       per-run round cap (0 = auto)
  --sync-rho R         round-sync: max clock rate deviation (default 1e-4)
  --sync-round-length L  round-sync: round length in seconds (default 0.05)

trace capture:
  --rerun-cell N       re-execute every run of report cell N of the
                       assembled grid, single-threaded, with full
                       ExecutionLogs (every round and view), and dump the
                       traces as JSON (--json PATH, else stdout)

execution and output:
  --threads N          worker threads (0 = hardware concurrency; default 0)
  --json PATH          write aggregate JSON report
  --csv PATH           write per-cell CSV
  --dist-out PATH      write full per-cell distributions (ccd-dist-v1);
                       inspect with ccd_report show/diff
  --quiet              suppress the ASCII summary and the live progress line
  --stale-after SECS   live progress flags workers that have not completed
                       a run for SECS seconds (default 300; 0 disables)

observability (never changes report bytes; reports are byte-identical
with or without these):
  --perf-out PATH      write a perf sidecar JSON: per-cell run-time
                       percentiles, engine counter totals, sampled
                       engine phase times, per-worker utilization and
                       queue-drain time
  --trace-out PATH     write a Chrome trace-event JSON of per-run worker
                       spans (open in chrome://tracing or ui.perfetto.dev)
  --bench-out PATH     write a sweep-throughput benchmark JSON (runs/sec,
                       rounds/sec); full-run mode only

sharded execution (recombine the partial reports with ccd_merge):
  --emit-shards K      write K self-contained shard spec files and exit
  --shard-out PREFIX   spec file prefix for --emit-shards (default "shard");
                       files are PREFIX-<i>-of-<K>.json
  --shard-mode M       contiguous|strided cell partition (default contiguous)
  --shard i/K          run only shard i (0-based) of a K-way split of the
                       assembled grid; --json writes a PARTIAL shard report
  --shard-file PATH    run the shard described by a spec file; the file is
                       self-contained, so grid/axis flags conflict with it
  --checkpoint PATH    (worker mode) append a per-cell completion marker to
                       PATH as each cell finishes
  --resume             (worker mode) skip cells already recorded in the
                       --checkpoint file from a previous, interrupted run
)");
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

template <typename T, typename ParseFn>
bool parse_list(const std::string& arg, const char* what, ParseFn parse,
                std::vector<T>& out) {
  out.clear();
  for (const std::string& tok : split_csv(arg)) {
    auto v = parse(tok);
    if (!v) {
      std::fprintf(stderr, "ccd_sweep: bad %s value '%s'\n", what,
                   tok.c_str());
      return false;
    }
    out.push_back(*v);
  }
  return true;
}

/// One integer flag value, parsed exactly into T (see util/parse_uint.hpp);
/// a bad value prints a keyed error naming the flag and the reason.
template <typename T>
bool parse_uint_flag(std::string_view arg, const char* what, T& out) {
  std::string why;
  const std::optional<T> v = parse_uint<T>(arg, &why);
  if (!v) {
    std::fprintf(stderr, "ccd_sweep: bad %s value '%.*s': %s\n", what,
                 static_cast<int>(arg.size()), arg.data(), why.c_str());
    return false;
  }
  out = *v;
  return true;
}

template <typename T>
bool parse_uint_list(const std::string& arg, const char* what,
                     std::vector<T>& out) {
  out.clear();
  for (const std::string& tok : split_csv(arg)) {
    if (!parse_uint_flag(tok, what, out.emplace_back())) return false;
  }
  return true;
}

bool parse_double_list(const std::string& arg, const char* what,
                       std::vector<double>& out) {
  out.clear();
  for (const std::string& tok : split_csv(arg)) {
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (!end || *end != '\0' || tok.empty()) {
      std::fprintf(stderr, "ccd_sweep: bad %s value '%s'\n", what,
                   tok.c_str());
      return false;
    }
    out.push_back(v);
  }
  return true;
}

bool parse_u64_flag(const char* arg, const char* what, std::uint64_t& out) {
  return arg && parse_uint_flag<std::uint64_t>(arg, what, out);
}

bool parse_double_flag(const char* arg, const char* what, double& out) {
  if (!arg || *arg == '\0') return false;
  char* end = nullptr;
  const double v = std::strtod(arg, &end);
  if (!end || *end != '\0') {
    std::fprintf(stderr, "ccd_sweep: bad %s value '%s'\n", what, arg);
    return false;
  }
  out = v;
  return true;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "ccd_sweep: cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// Throttled live progress line on stderr.  Workers call operator() after
/// every run; a lock-free time gate (CAS on the last-print stamp) lets at
/// most one thread through per window, so the hot path costs one relaxed
/// load per run and there is no convoy on a mutex or on stderr.  On a tty
/// the line redraws in place at <= 5 Hz; piped stderr gets a plain line
/// every ~2 s instead.
class ProgressPrinter {
 public:
  ProgressPrinter() : tty_(isatty(fileno(stderr)) != 0) {}

  void operator()(std::size_t done, std::size_t total) {
    total_.store(total, std::memory_order_relaxed);
    const std::uint64_t now = timer_.elapsed_ns();
    const std::uint64_t interval =
        tty_ ? 200'000'000ull : 2'000'000'000ull;  // 5 Hz / 0.5 Hz
    std::uint64_t last = last_print_ns_.load(std::memory_order_relaxed);
    if (now - last < interval) return;
    if (!last_print_ns_.compare_exchange_strong(last, now,
                                                std::memory_order_relaxed)) {
      return;  // another worker owns this window
    }
    print(done, total, now);
  }

  /// Final 100% line from the main thread once the pool has joined (the
  /// throttle may have swallowed the last per-run update).  No-op if the
  /// pool never reported (e.g. a fully resumed shard with nothing to run).
  void finish() {
    const std::size_t total = total_.load(std::memory_order_relaxed);
    if (total == 0) return;
    print(total, total, timer_.elapsed_ns());
    if (tty_) std::fputc('\n', stderr);
  }

  /// Extra text appended to each progress line (e.g. stale-worker flags).
  /// Set before the pool starts; called under the print window, so at most
  /// one thread at a time.
  void set_extra(std::function<std::string()> extra) {
    extra_ = std::move(extra);
  }

 private:
  void print(std::size_t done, std::size_t total, std::uint64_t now_ns) {
    const double secs = static_cast<double>(now_ns) * 1e-9;
    const double rate = secs > 0 ? static_cast<double>(done) / secs : 0.0;
    const double eta =
        (rate > 0 && done < total)
            ? static_cast<double>(total - done) / rate
            : 0.0;
    const std::string extra = extra_ ? extra_() : std::string();
    std::fprintf(stderr,
                 "%sccd_sweep: %zu/%zu runs  %.1f runs/s  eta %.0fs%s%s",
                 tty_ ? "\r" : "", done, total, rate, eta, extra.c_str(),
                 tty_ ? "" : "\n");
    if (tty_) std::fflush(stderr);
  }

  ccd::obs::RunTimer timer_;
  std::atomic<std::uint64_t> last_print_ns_{0};
  std::atomic<std::size_t> total_{0};
  bool tty_;
  std::function<std::string()> extra_;
};

/// Per-worker last-completion tracking behind the live progress line.  A
/// worker that has not completed a run for --stale-after seconds while the
/// sweep is still moving gets flagged: on a shared box that usually means
/// the thread is starved or wedged on one pathological cell.
class StaleWatch {
 public:
  explicit StaleWatch(std::uint64_t stale_after_secs)
      : stale_after_ns_(stale_after_secs * 1'000'000'000ull) {}

  void note(std::uint32_t worker) {
    std::lock_guard<std::mutex> lock(mu_);
    last_ns_[worker] = timer_.elapsed_ns();
  }

  /// "  stale-workers:3,7" when any worker is overdue, else "".
  std::string summary() {
    const std::uint64_t now = timer_.elapsed_ns();
    std::lock_guard<std::mutex> lock(mu_);
    std::string stale;
    for (const auto& [worker, last] : last_ns_) {
      if (now - last <= stale_after_ns_) continue;
      if (!stale.empty()) stale += ",";
      stale += std::to_string(worker);
    }
    return stale.empty() ? stale : "  stale-workers:" + stale;
  }

 private:
  const std::uint64_t stale_after_ns_;
  ccd::obs::RunTimer timer_;
  std::mutex mu_;
  std::map<std::uint32_t, std::uint64_t> last_ns_;
};

/// ccd-bench-v1: sweep throughput measured on real sweep runs, derived
/// from the perf sidecar's counters (rounds) and wall clock.
std::string bench_throughput_json(const std::string& grid_name,
                                  const obs::SweepPerf& perf) {
  const double secs = static_cast<double>(perf.wall_ns) * 1e-9;
  auto per_sec = [&](std::uint64_t count) {
    return secs > 0 ? static_cast<double>(count) / secs : 0.0;
  };
  char buffer[160];
  std::string out = "{\"format\":\"ccd-bench-v1\"";
  out += ",\"bench\":\"sweep_throughput\"";
  out += ",\"grid\":\"" + grid_name + "\"";
  out += ",\"threads\":" + std::to_string(perf.threads);
  out += ",\"runs\":" + std::to_string(perf.runs);
  out += ",\"wall_ns\":" + std::to_string(perf.wall_ns);
  std::snprintf(buffer, sizeof buffer, ",\"runs_per_sec\":%.3f",
                per_sec(perf.runs));
  out += buffer;
  out += ",\"rounds\":" + std::to_string(perf.counters.rounds);
  std::snprintf(buffer, sizeof buffer, ",\"rounds_per_sec\":%.3f",
                per_sec(perf.counters.rounds));
  out += buffer;
  out += "}\n";
  return out;
}

/// "i/K" with 0 <= i < K.
bool parse_shard_of(const std::string& arg, std::size_t& index,
                    std::size_t& count) {
  const std::size_t slash = arg.find('/');
  if (slash == std::string::npos) return false;
  std::uint64_t i = 0, k = 0;
  if (!parse_u64_flag(arg.substr(0, slash).c_str(), "shard", i)) return false;
  if (!parse_u64_flag(arg.substr(slash + 1).c_str(), "shard", k)) {
    return false;
  }
  if (k == 0 || i >= k) {
    std::fprintf(stderr,
                 "ccd_sweep: --shard wants i/K with 0 <= i < K, got '%s'\n",
                 arg.c_str());
    return false;
  }
  index = static_cast<std::size_t>(i);
  count = static_cast<std::size_t>(k);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string grid_name = "default";
  std::string json_path, csv_path, dist_path;
  std::string perf_path, trace_path, bench_path;
  std::uint64_t stale_after_secs = 300;
  unsigned threads = 0;
  bool quiet = false;

  // Sharded-execution state.  `grid_flags_used` guards --shard-file: the
  // spec file fully determines the grid, so grid-shaping flags alongside it
  // would be silently ignored -- reject them instead.
  std::size_t emit_shards = 0;
  std::string shard_out = "shard";
  ShardMode shard_mode = ShardMode::kContiguous;
  bool have_shard = false;
  std::size_t shard_index = 0, shard_count = 1;
  std::string shard_file, checkpoint_path;
  bool resume = false;
  bool grid_flags_used = false;

  // Trace capture (--rerun-cell).
  bool have_rerun_cell = false;
  std::size_t rerun_cell_index = 0;

  // First pass: find the grid so axis flags can override it.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list-grids") == 0) {
      for (const std::string& name : SweepGrid::grid_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    }
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      usage(stdout);
      return 0;
    }
    if (std::strcmp(argv[i], "--grid") == 0 && i + 1 < argc) {
      grid_name = argv[i + 1];
    }
  }

  auto maybe_grid = SweepGrid::named(grid_name);
  if (!maybe_grid) {
    std::fprintf(stderr, "ccd_sweep: unknown grid '%s' (--list-grids)\n",
                 grid_name.c_str());
    return 2;
  }
  SweepGrid grid = *maybe_grid;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ccd_sweep: %s needs a value\n", flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    static const char* const kGridFlags[] = {
        "--grid",      "--algs",      "--detectors",       "--policies",
        "--cms",       "--losses",    "--faults",          "--crash-schedules",
        "--n",         "--values",    "--csts",            "--topologies",
        "--workloads", "--densities", "--seeds",           "--grid-seed",
        "--chaos",     "--init",      "--p-deliver",       "--max-rounds",
        "--sync-rho",  "--sync-round-length"};
    for (const char* g : kGridFlags) {
      if (flag == g) grid_flags_used = true;
    }
    bool ok = true;
    if (flag == "--grid") {
      ok = next() != nullptr;  // consumed in the first pass
    } else if (flag == "--algs") {
      const char* v = next();
      ok = v && parse_list(v, "alg", parse_alg, grid.algs);
    } else if (flag == "--detectors") {
      const char* v = next();
      ok = v && parse_list(v, "detector", parse_detector, grid.detectors);
    } else if (flag == "--policies") {
      const char* v = next();
      ok = v && parse_list(v, "policy", parse_policy, grid.policies);
    } else if (flag == "--cms") {
      const char* v = next();
      ok = v && parse_list(v, "cm", parse_cm, grid.cms);
    } else if (flag == "--losses") {
      const char* v = next();
      ok = v && parse_list(v, "loss", parse_loss, grid.losses);
    } else if (flag == "--faults") {
      const char* v = next();
      ok = v && parse_list(v, "fault", parse_fault, grid.faults);
    } else if (flag == "--crash-schedules") {
      const char* v = next();
      ok = v != nullptr;
      // Names are validated by grid.validate() below, which knows the
      // generator registry.
      if (ok) grid.crash_schedules = split_csv(v);
    } else if (flag == "--n") {
      const char* v = next();
      ok = v && parse_uint_list(v, "n", grid.ns);
    } else if (flag == "--values") {
      const char* v = next();
      ok = v && parse_uint_list(v, "num_values", grid.value_spaces);
    } else if (flag == "--csts") {
      const char* v = next();
      ok = v && parse_uint_list(v, "cst", grid.csts);
    } else if (flag == "--topologies") {
      const char* v = next();
      ok = v && parse_list(v, "topology", parse_topology, grid.topologies);
    } else if (flag == "--workloads") {
      const char* v = next();
      ok = v && parse_list(v, "workload", parse_workload, grid.workloads);
    } else if (flag == "--densities") {
      const char* v = next();
      ok = v && parse_double_list(v, "density", grid.densities);
    } else if (flag == "--seeds") {
      const char* v = next();
      ok = v && parse_uint_flag(v, "seeds", grid.seeds_per_cell);
    } else if (flag == "--grid-seed") {
      const char* v = next();
      ok = v && parse_u64_flag(v, "grid-seed", grid.grid_seed);
    } else if (flag == "--chaos") {
      const char* v = next();
      auto c = v ? parse_chaos(v) : std::nullopt;
      ok = c.has_value();
      if (ok) grid.base.chaos = *c;
    } else if (flag == "--init") {
      const char* v = next();
      auto c = v ? parse_init(v) : std::nullopt;
      ok = c.has_value();
      if (ok) grid.base.init = *c;
    } else if (flag == "--p-deliver") {
      const char* v = next();
      ok = v && parse_double_flag(v, "p-deliver", grid.base.p_deliver);
    } else if (flag == "--max-rounds") {
      const char* v = next();
      ok = v && parse_uint_flag(v, "max-rounds", grid.base.max_rounds);
    } else if (flag == "--sync-rho") {
      const char* v = next();
      ok = v && parse_double_flag(v, "sync-rho", grid.base.sync_rho);
    } else if (flag == "--sync-round-length") {
      const char* v = next();
      ok = v && parse_double_flag(v, "sync-round-length",
                                  grid.base.sync_round_length);
    } else if (flag == "--rerun-cell") {
      const char* v = next();
      std::uint64_t cell = 0;
      ok = v && parse_u64_flag(v, "rerun-cell", cell);
      if (ok) {
        have_rerun_cell = true;
        rerun_cell_index = static_cast<std::size_t>(cell);
      }
    } else if (flag == "--threads") {
      const char* v = next();
      std::uint64_t t = 0;
      ok = v && parse_u64_flag(v, "threads", t) && t <= 4096;
      if (ok) threads = static_cast<unsigned>(t);
    } else if (flag == "--json") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) json_path = v;
    } else if (flag == "--csv") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) csv_path = v;
    } else if (flag == "--dist-out") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) dist_path = v;
    } else if (flag == "--stale-after") {
      const char* v = next();
      ok = v && parse_u64_flag(v, "stale-after", stale_after_secs);
    } else if (flag == "--perf-out") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) perf_path = v;
    } else if (flag == "--trace-out") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) trace_path = v;
    } else if (flag == "--bench-out") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) bench_path = v;
    } else if (flag == "--quiet") {
      quiet = true;
    } else if (flag == "--emit-shards") {
      const char* v = next();
      std::uint64_t k = 0;
      ok = v && parse_u64_flag(v, "emit-shards", k) && k >= 1 && k <= 65536;
      if (ok) emit_shards = static_cast<std::size_t>(k);
    } else if (flag == "--shard-out") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) shard_out = v;
    } else if (flag == "--shard-mode") {
      const char* v = next();
      auto m = v ? parse_shard_mode(v) : std::nullopt;
      ok = m.has_value() && *m != ShardMode::kExplicit;
      if (!ok) {
        std::fprintf(stderr,
                     "ccd_sweep: bad shard-mode value '%s' (expected "
                     "contiguous or strided; explicit specs are written by "
                     "ccd_dispatch, not planned here)\n",
                     v ? v : "");
      }
      if (ok) shard_mode = *m;
    } else if (flag == "--shard") {
      const char* v = next();
      ok = v && parse_shard_of(v, shard_index, shard_count);
      if (ok) have_shard = true;
    } else if (flag == "--shard-file") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) shard_file = v;
    } else if (flag == "--checkpoint") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) checkpoint_path = v;
    } else if (flag == "--resume") {
      resume = true;
    } else {
      std::fprintf(stderr, "ccd_sweep: unknown flag '%s'\n", flag.c_str());
      usage(stderr);
      return 2;
    }
    if (!ok) return 2;
  }

  // Mode exclusivity: emit / worker / full-run are distinct modes, and the
  // spec-file worker must own the grid alone.
  if (!shard_file.empty() && grid_flags_used) {
    std::fprintf(stderr,
                 "ccd_sweep: --shard-file is self-contained; grid and axis "
                 "flags conflict with it\n");
    return 2;
  }
  if (!shard_file.empty() && (have_shard || emit_shards > 0)) {
    std::fprintf(stderr,
                 "ccd_sweep: --shard-file conflicts with --shard and "
                 "--emit-shards\n");
    return 2;
  }
  if (emit_shards > 0 && have_shard) {
    std::fprintf(stderr, "ccd_sweep: --emit-shards conflicts with --shard\n");
    return 2;
  }
  if (have_rerun_cell &&
      (have_shard || !shard_file.empty() || emit_shards > 0)) {
    std::fprintf(stderr,
                 "ccd_sweep: --rerun-cell conflicts with sharded execution "
                 "(it re-runs one cell of the assembled grid)\n");
    return 2;
  }
  const bool worker_mode = have_shard || !shard_file.empty();
  if (!worker_mode && (!checkpoint_path.empty() || resume)) {
    std::fprintf(stderr,
                 "ccd_sweep: --checkpoint/--resume only apply to worker "
                 "mode (--shard or --shard-file)\n");
    return 2;
  }
  if (resume && checkpoint_path.empty()) {
    std::fprintf(stderr, "ccd_sweep: --resume needs --checkpoint PATH\n");
    return 2;
  }
  // Telemetry outputs measure pool executions; --rerun-cell and
  // --emit-shards never run a pool.
  if ((!perf_path.empty() || !trace_path.empty() || !bench_path.empty()) &&
      (have_rerun_cell || emit_shards > 0)) {
    std::fprintf(stderr,
                 "ccd_sweep: --perf-out/--trace-out/--bench-out measure a "
                 "sweep execution; they conflict with --rerun-cell and "
                 "--emit-shards\n");
    return 2;
  }
  if (!bench_path.empty() && worker_mode) {
    std::fprintf(stderr,
                 "ccd_sweep: --bench-out measures a full-grid run; a shard "
                 "worker's throughput is not the grid's\n");
    return 2;
  }
  if (!dist_path.empty() && (have_rerun_cell || emit_shards > 0)) {
    std::fprintf(stderr,
                 "ccd_sweep: --dist-out writes aggregated distributions; it "
                 "conflicts with --rerun-cell and --emit-shards\n");
    return 2;
  }

  if (shard_file.empty()) {
    if (grid.seeds_per_cell == 0 || grid.num_cells() == 0) {
      std::fprintf(stderr, "ccd_sweep: empty grid\n");
      return 2;
    }
    if (auto problem = grid.validate()) {
      std::fprintf(stderr, "ccd_sweep: %s\n", problem->c_str());
      return 2;
    }
  }

  if (have_rerun_cell) {
    if (rerun_cell_index >= grid.num_cells()) {
      std::fprintf(stderr,
                   "ccd_sweep: --rerun-cell %zu out of range (grid has %zu "
                   "cells)\n",
                   rerun_cell_index, grid.num_cells());
      return 2;
    }
    if (!csv_path.empty()) {
      std::fprintf(stderr,
                   "ccd_sweep: --rerun-cell emits a JSON trace dump, not a "
                   "CSV report\n");
      return 2;
    }
    const std::vector<TracedRun> runs = rerun_cell(grid, rerun_cell_index);
    const std::string dump =
        traced_runs_to_json(grid, rerun_cell_index, runs) + "\n";
    if (!json_path.empty()) {
      if (!write_file(json_path, dump)) return 1;
    } else {
      std::fwrite(dump.data(), 1, dump.size(), stdout);
    }
    if (!quiet) {
      std::fprintf(stderr,
                   "ccd_sweep: traced cell %zu (%u runs, full views)%s%s\n",
                   rerun_cell_index, grid.seeds_per_cell,
                   json_path.empty() ? "" : " -> ",
                   json_path.empty() ? "" : json_path.c_str());
    }
    return 0;
  }

  if (emit_shards > 0) {
    const std::vector<ShardSpec> shards =
        ShardPlanner::plan(grid, emit_shards, shard_mode);
    for (const ShardSpec& spec : shards) {
      const std::string path = shard_out + "-" +
                               std::to_string(spec.shard_index) + "-of-" +
                               std::to_string(spec.shard_count) + ".json";
      if (!write_file(path, spec.to_json() + "\n")) return 1;
      if (!quiet) {
        std::fprintf(stderr, "ccd_sweep: wrote %s (%zu cells)\n",
                     path.c_str(), spec.cell_indices().size());
      }
    }
    return 0;
  }

  if (worker_mode) {
    ShardSpec spec;
    if (!shard_file.empty()) {
      std::string text;
      if (!read_file(shard_file, text)) {
        std::fprintf(stderr, "ccd_sweep: cannot read %s\n",
                     shard_file.c_str());
        return 2;
      }
      std::string error;
      auto parsed = ShardSpec::from_json(text, &error);
      if (!parsed) {
        std::fprintf(stderr, "ccd_sweep: %s: %s\n", shard_file.c_str(),
                     error.c_str());
        return 2;
      }
      spec = std::move(*parsed);
      if (auto problem = spec.grid.validate()) {
        std::fprintf(stderr, "ccd_sweep: %s: %s\n", shard_file.c_str(),
                     problem->c_str());
        return 2;
      }
    } else {
      spec = ShardPlanner::plan(grid, shard_count, shard_mode)[shard_index];
    }
    if (json_path.empty()) {
      std::fprintf(stderr,
                   "ccd_sweep: worker mode emits a partial shard report; "
                   "--json PATH is required\n");
      return 2;
    }
    if (!csv_path.empty()) {
      std::fprintf(stderr,
                   "ccd_sweep: --csv is a full-grid output; merge the shard "
                   "reports with ccd_merge --csv instead\n");
      return 2;
    }
    ShardRunOptions shard_options;
    shard_options.sweep.threads = threads;
    shard_options.checkpoint_path = checkpoint_path;
    shard_options.resume = resume;
    obs::SweepPerf perf;
    if (!perf_path.empty() || !trace_path.empty()) {
      shard_options.sweep.perf = &perf;
    }
    shard_options.sweep.time_engine_phases = !perf_path.empty();
    ProgressPrinter progress;
    StaleWatch stale_watch(stale_after_secs);
    if (!quiet && stale_after_secs > 0) {
      shard_options.sweep.on_record = [&stale_watch](const RunRecord& r) {
        stale_watch.note(r.perf.worker);
      };
      progress.set_extra([&stale_watch] { return stale_watch.summary(); });
    }
    if (!quiet) {
      shard_options.sweep.progress = [&progress](std::size_t done,
                                                 std::size_t total) {
        progress(done, total);
      };
      std::fprintf(stderr,
                   "ccd_sweep: shard %zu/%zu (%s): %zu of %zu cells x %u "
                   "seeds\n",
                   spec.shard_index, spec.shard_count, to_string(spec.mode),
                   spec.cell_indices().size(), spec.grid.num_cells(),
                   spec.grid.seeds_per_cell);
    }
    // Test/bench-only throttle: CCD_SWEEP_TEST_RUN_DELAY_MS sleeps after
    // every completed run, simulating slow hardware without touching a
    // byte of the report (on_record is pure observation).  ccd_dispatch's
    // tests and ccd_dispatch_bench use it to fabricate slow/stalling
    // workers deterministically.
    if (const char* delay_env = std::getenv("CCD_SWEEP_TEST_RUN_DELAY_MS")) {
      std::uint64_t delay_ms = 0;
      if (parse_u64_flag(delay_env, "CCD_SWEEP_TEST_RUN_DELAY_MS",
                         delay_ms) &&
          delay_ms > 0) {
        auto inner = shard_options.sweep.on_record;
        shard_options.sweep.on_record = [inner,
                                         delay_ms](const RunRecord& r) {
          if (inner) inner(r);
          std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        };
      }
    }
    std::string error;
    auto report = run_shard(spec, shard_options, &error);
    if (!quiet) progress.finish();
    if (!report) {
      std::fprintf(stderr, "ccd_sweep: %s\n", error.c_str());
      return 2;
    }
    if (!write_file(json_path, report->to_json())) return 1;
    if (!dist_path.empty() &&
        !write_file(dist_path,
                    cells_to_dist_json(spec.grid, report->cells) + "\n")) {
      return 1;
    }
    if (!perf_path.empty()) {
      const obs::PerfSidecar sidecar = obs::build_perf_sidecar(
          spec.grid_fingerprint, spec.shard_index, spec.shard_count, perf);
      if (!write_file(perf_path, sidecar.to_json() + "\n")) return 1;
    }
    if (!trace_path.empty() &&
        !write_file(trace_path,
                    obs::sweep_trace_json(perf, spec.shard_index,
                                          spec.grid.seeds_per_cell) +
                        "\n")) {
      return 1;
    }
    if (!quiet) {
      std::fprintf(stderr, "ccd_sweep: wrote shard report %s (%zu cells)\n",
                   json_path.c_str(), report->cells.size());
    }
    return 0;
  }

  SweepOptions options;
  options.threads = threads;
  obs::SweepPerf perf;
  if (!perf_path.empty() || !trace_path.empty() || !bench_path.empty()) {
    options.perf = &perf;
  }
  options.time_engine_phases = !perf_path.empty();
  ProgressPrinter progress;
  StaleWatch stale_watch(stale_after_secs);
  if (!quiet && stale_after_secs > 0) {
    options.on_record = [&stale_watch](const RunRecord& r) {
      stale_watch.note(r.perf.worker);
    };
    progress.set_extra([&stale_watch] { return stale_watch.summary(); });
  }
  if (!quiet) {
    options.progress = [&progress](std::size_t done, std::size_t total) {
      progress(done, total);
    };
    std::fprintf(stderr, "ccd_sweep: %zu cells x %u seeds = %zu runs\n",
                 grid.num_cells(), grid.seeds_per_cell, grid.num_runs());
  }

  const std::vector<RunRecord> records = run_sweep(grid, options);
  if (!quiet) progress.finish();
  const std::vector<CellAggregate> cells = aggregate(grid, records);
  // Memory-wall metric for the sidecar: what the aggregator's Stats
  // actually retain for this grid (histogram bins, not raw samples).
  perf.stats_bytes_retained = exp::stats_bytes_retained(cells);

  if (!quiet) print_summary(std::cout, grid, cells);
  if (!json_path.empty() &&
      !write_file(json_path, aggregates_to_json(grid, cells))) {
    return 1;
  }
  if (!csv_path.empty() && !write_file(csv_path, aggregates_to_csv(cells))) {
    return 1;
  }
  if (!dist_path.empty() &&
      !write_file(dist_path, cells_to_dist_json(grid, cells) + "\n")) {
    return 1;
  }
  // Observation artifacts last: the report writes above are bytewise
  // independent of everything below.
  if (!perf_path.empty()) {
    const obs::PerfSidecar sidecar =
        obs::build_perf_sidecar(grid.fingerprint(), 0, 1, perf);
    if (!write_file(perf_path, sidecar.to_json() + "\n")) return 1;
  }
  if (!trace_path.empty() &&
      !write_file(trace_path,
                  obs::sweep_trace_json(perf, 0, grid.seeds_per_cell) +
                      "\n")) {
    return 1;
  }
  if (!bench_path.empty() &&
      !write_file(bench_path, bench_throughput_json(grid_name, perf))) {
    return 1;
  }
  return 0;
}
