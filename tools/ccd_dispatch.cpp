// ccd_dispatch: work-stealing fleet dispatcher for sweep grids.
//
// Where `ccd_sweep --shard i/K` carves the grid statically -- so the fleet
// finishes when the WORST shard does -- ccd_dispatch owns the cell list as
// a dynamic queue: N local `ccd_sweep` worker processes pull decaying cell
// batches, the dispatcher tails their checkpoint heartbeats, and cells
// whose owner goes stale (or exits nonzero) are re-queued to idle workers.
// First completed copy wins; a cell -> winning-assignment ledger prunes
// duplicates before the merge, whose exactly-once validation then holds.
//
// The merged JSON / CSV / dist outputs are BYTE-IDENTICAL to a
// single-process `ccd_sweep` run of the same grid: per-run seeding is
// hash(grid_seed, run_index), independent of which worker executes a cell.
// A ctest target and a CI smoke step (with an injected worker kill) both
// diff exactly that.
//
// Examples:
//   ccd_dispatch --grid multihop --workers 8 --json report.json
//   ccd_dispatch --grid multihop --workers 4 --stale-after 5
//                --work-dir /tmp/mh --csv report.csv --perf-out perf.json
#include <unistd.h>

#include <sys/stat.h>
#include <sys/types.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/dispatch/dispatcher.hpp"
#include "exp/sweep_grid.hpp"
#include "obs/telemetry.hpp"
#include "util/parse_uint.hpp"

namespace {

using namespace ccd;
using namespace ccd::exp;

void usage(std::FILE* out) {
  std::fprintf(out, R"(usage: ccd_dispatch [options]

Run a sweep grid across N worker processes with dynamic work stealing.
Workers are plain `ccd_sweep --shard-file` invocations fed explicit-cell
shard specs; liveness is read from their checkpoint heartbeats, stale or
crashed batches are re-queued, and the first completed copy of a cell
wins.  The merged report is byte-identical to a single-process run.

grid selection:
  --grid NAME          named grid (ccd_sweep --list-grids); default "default"
  --seeds N            seeds per cell (default: grid's)
  --grid-seed S        master seed (default: grid's)
  --n LIST             process-count axis override, e.g. 4,8,16

dispatch:
  --workers N          worker process slots (default 4)
  --stale-after SECS   heartbeat age before a batch's unfinished cells are
                       stolen (default 30; fractions ok)
  --poll-ms MS         heartbeat and steal check interval (default 50);
                       worker exits are reaped immediately
  --max-requeues N     abort if any cell is assigned N times without
                       completing (default 10)
  --work-dir PATH      directory for per-batch spec/report/checkpoint
                       files (default ccd-dispatch-work; created if
                       missing; batch files are removed on success)
  --keep-work          keep the per-batch files for debugging
  --worker-bin PATH    ccd_sweep binary (default: next to ccd_dispatch)
  --worker-threads N   threads per worker (default: the workers' default)

output:
  --json PATH          write the merged aggregate JSON report
  --csv PATH           write the merged per-cell CSV
  --dist-out PATH      write merged full distributions (ccd-dist-v1)
  --perf-out PATH      collect per-worker perf sidecars, merge them (cells
                       pruned to ledger winners) and stamp the dispatcher's
                       "dispatch" section (steals, requeues, restarts,
                       per-slot busy fraction) into the result
  --ledger-out PATH    write the cell -> winning-assignment ledger
                       (ccd-dispatch-ledger-v1)
  --quiet              suppress the ASCII summary and live progress table
)");
}

/// One integer flag value, parsed exactly into T (see util/parse_uint.hpp);
/// a bad value prints a keyed error naming the flag and the reason.
template <typename T>
bool parse_uint_flag(std::string_view arg, const char* what, T& out) {
  std::string why;
  const std::optional<T> v = parse_uint<T>(arg, &why);
  if (!v) {
    std::fprintf(stderr, "ccd_dispatch: bad %s value '%.*s': %s\n", what,
                 static_cast<int>(arg.size()), arg.data(), why.c_str());
    return false;
  }
  out = *v;
  return true;
}

bool parse_u64_flag(const char* arg, const char* what, std::uint64_t& out) {
  return arg && parse_uint_flag<std::uint64_t>(arg, what, out);
}

bool parse_double_flag(const char* arg, const char* what, double& out) {
  if (!arg || *arg == '\0') return false;
  char* end = nullptr;
  const double v = std::strtod(arg, &end);
  if (!end || *end != '\0' || v < 0) {
    std::fprintf(stderr, "ccd_dispatch: bad %s value '%s'\n", what, arg);
    return false;
  }
  out = v;
  return true;
}

bool parse_uint_list(const std::string& arg, const char* what,
                     std::vector<std::uint32_t>& out) {
  out.clear();
  std::size_t start = 0;
  while (start <= arg.size()) {
    std::size_t comma = arg.find(',', start);
    if (comma == std::string::npos) comma = arg.size();
    const std::string tok = arg.substr(start, comma - start);
    if (!parse_uint_flag(tok, what, out.emplace_back())) return false;
    start = comma + 1;
  }
  return true;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "ccd_dispatch: cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

/// ccd_sweep lives next to ccd_dispatch in every build and install layout
/// this repo produces, so the default worker binary is derived from our
/// own executable path rather than trusting PATH.
std::string default_worker_bin() {
  char buffer[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (len <= 0) return "ccd_sweep";
  buffer[len] = '\0';
  std::string self(buffer);
  const std::size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "ccd_sweep";
  return self.substr(0, slash) + "/ccd_sweep";
}

/// Throttled live progress table on stderr: one line per window with the
/// fleet totals and a per-worker busy/done/stale readout.  The scheduler
/// is single-threaded, so unlike ccd_sweep's ProgressPrinter this needs no
/// atomic gate -- same redraw cadence, simpler machinery.
class DispatchProgressPrinter {
 public:
  DispatchProgressPrinter() : tty_(isatty(fileno(stderr)) != 0) {}

  void operator()(const DispatchProgress& p) {
    last_ = p;
    have_ = true;
    const std::uint64_t now = timer_.elapsed_ns();
    const std::uint64_t interval =
        tty_ ? 200'000'000ull : 2'000'000'000ull;  // 5 Hz / 0.5 Hz
    if (now - last_print_ns_ < interval) return;
    last_print_ns_ = now;
    print(p);
  }

  /// Final 100% line once the dispatch returns (the throttle may have
  /// swallowed the last update).
  void finish() {
    if (!have_) return;
    last_.completed_cells = last_.total_cells;
    last_.queued_cells = 0;
    last_.inflight_cells = 0;
    for (auto& slot : last_.slots) slot.state = DispatchSlotView::State::kIdle;
    print(last_);
    if (tty_) std::fputc('\n', stderr);
  }

 private:
  void print(const DispatchProgress& p) {
    const double secs = static_cast<double>(p.elapsed_ns) * 1e-9;
    const double rate =
        secs > 0 ? static_cast<double>(p.completed_cells) / secs : 0.0;
    const double eta =
        (rate > 0 && p.completed_cells < p.total_cells)
            ? static_cast<double>(p.total_cells - p.completed_cells) / rate
            : 0.0;
    std::string line = "ccd_dispatch: ";
    line += std::to_string(p.completed_cells);
    line += "/";
    line += std::to_string(p.total_cells);
    line += " cells  q=";
    line += std::to_string(p.queued_cells);
    line += " infl=";
    line += std::to_string(p.inflight_cells);
    line += "  [";
    for (std::size_t i = 0; i < p.slots.size(); ++i) {
      const DispatchSlotView& slot = p.slots[i];
      if (i > 0) line += " | ";
      line += "w";
      line += std::to_string(i);
      line += " ";
      switch (slot.state) {
        case DispatchSlotView::State::kIdle:
          line += "idle";
          break;
        case DispatchSlotView::State::kBusy:
        case DispatchSlotView::State::kStale:
          line += slot.state == DispatchSlotView::State::kStale ? "STALE "
                                                                : "busy ";
          line += std::to_string(slot.batch_done);
          line += "/";
          line += std::to_string(slot.batch_cells);
          break;
      }
    }
    line += "]  steals ";
    line += std::to_string(p.steals);
    if (p.worker_restarts > 0) {
      line += " restarts ";
      line += std::to_string(p.worker_restarts);
    }
    char eta_text[32];
    std::snprintf(eta_text, sizeof eta_text, "  eta %.0fs", eta);
    line += eta_text;
    if (tty_) {
      // Redraw in place; pad with spaces so a shrinking line leaves no
      // droppings from the previous frame.
      const std::size_t pad =
          last_len_ > line.size() ? last_len_ - line.size() : 0;
      last_len_ = line.size();
      line.append(pad, ' ');
      std::fprintf(stderr, "\r%s", line.c_str());
      std::fflush(stderr);
    } else {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }

  ccd::obs::RunTimer timer_;
  std::uint64_t last_print_ns_ = 0;
  bool tty_;
  std::size_t last_len_ = 0;
  DispatchProgress last_;
  bool have_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  std::string grid_name = "default";
  std::string json_path, csv_path, dist_path, perf_path, ledger_path;
  DispatchOptions options;
  options.work_dir = "ccd-dispatch-work";
  bool keep_work = false;
  bool quiet = false;
  std::uint64_t worker_threads = 0;
  bool have_worker_threads = false;

  // First pass: the grid name, so overrides below start from it.
  for (int i = 1; i < argc; ++i) {
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
    std::fprintf(stderr,
                 "ccd_dispatch: unknown grid '%s' (ccd_sweep --list-grids)\n",
                 grid_name.c_str());
    return 2;
  }
  SweepGrid grid = *maybe_grid;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ccd_dispatch: %s needs a value\n",
                     flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    bool ok = true;
    if (flag == "--grid") {
      ok = next() != nullptr;  // consumed in the first pass
    } else if (flag == "--seeds") {
      const char* v = next();
      ok = v && parse_uint_flag(v, "seeds", grid.seeds_per_cell);
    } else if (flag == "--grid-seed") {
      const char* v = next();
      ok = v && parse_u64_flag(v, "grid-seed", grid.grid_seed);
    } else if (flag == "--n") {
      const char* v = next();
      ok = v && parse_uint_list(v, "n", grid.ns);
    } else if (flag == "--workers") {
      const char* v = next();
      std::uint64_t w = 0;
      ok = v && parse_u64_flag(v, "workers", w) && w >= 1 && w <= 1024;
      if (ok) options.workers = static_cast<std::size_t>(w);
    } else if (flag == "--stale-after") {
      const char* v = next();
      ok = v && parse_double_flag(v, "stale-after", options.stale_after_secs);
    } else if (flag == "--poll-ms") {
      const char* v = next();
      ok = v && parse_u64_flag(v, "poll-ms", options.poll_ms);
    } else if (flag == "--max-requeues") {
      const char* v = next();
      std::uint64_t m = 0;
      ok = v && parse_u64_flag(v, "max-requeues", m) && m >= 1;
      if (ok) options.max_assignments_per_cell = static_cast<std::size_t>(m);
    } else if (flag == "--work-dir") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) options.work_dir = v;
    } else if (flag == "--keep-work") {
      keep_work = true;
    } else if (flag == "--worker-bin") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) options.worker_bin = v;
    } else if (flag == "--worker-threads") {
      const char* v = next();
      ok = v && parse_u64_flag(v, "worker-threads", worker_threads) &&
           worker_threads <= 4096;
      if (ok) have_worker_threads = true;
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
    } else if (flag == "--perf-out") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) perf_path = v;
    } else if (flag == "--ledger-out") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) ledger_path = v;
    } else if (flag == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "ccd_dispatch: unknown flag '%s'\n", flag.c_str());
      usage(stderr);
      return 2;
    }
    if (!ok) return 2;
  }

  if (grid.seeds_per_cell == 0 || grid.num_cells() == 0) {
    std::fprintf(stderr, "ccd_dispatch: empty grid\n");
    return 2;
  }
  if (auto problem = grid.validate()) {
    std::fprintf(stderr, "ccd_dispatch: %s\n", problem->c_str());
    return 2;
  }
  if (options.worker_bin.empty()) options.worker_bin = default_worker_bin();
  if (::mkdir(options.work_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "ccd_dispatch: cannot create work dir %s\n",
                 options.work_dir.c_str());
    return 2;
  }
  if (have_worker_threads) {
    options.worker_args.push_back("--threads");
    options.worker_args.push_back(std::to_string(worker_threads));
  }
  options.worker_perf = !perf_path.empty();

  DispatchProgressPrinter progress;
  if (!quiet) {
    options.on_progress = [&progress](const DispatchProgress& p) {
      progress(p);
    };
    std::fprintf(stderr,
                 "ccd_dispatch: %zu cells x %u seeds across %zu workers "
                 "(steal after %.1fs stale)\n",
                 grid.num_cells(), grid.seeds_per_cell, options.workers,
                 options.stale_after_secs);
  }

  std::string error;
  auto result = run_dispatch(grid, options, &error);
  if (!quiet) progress.finish();
  if (!result) {
    std::fprintf(stderr, "ccd_dispatch: %s\n", error.c_str());
    return 2;
  }
  const obs::PerfDispatch& stats = result->stats;

  if (!quiet) {
    std::fprintf(stderr,
                 "ccd_dispatch: %zu cells in %llu batches  steals=%llu "
                 "requeues=%llu restarts=%llu duplicates=%llu  wall %.1fs\n",
                 result->merged.cells.size(),
                 static_cast<unsigned long long>(stats.batches),
                 static_cast<unsigned long long>(stats.steals),
                 static_cast<unsigned long long>(stats.requeues),
                 static_cast<unsigned long long>(stats.worker_restarts),
                 static_cast<unsigned long long>(stats.duplicate_cells),
                 static_cast<double>(stats.wall_ns) * 1e-9);
    print_summary(std::cout, result->merged.grid, result->merged.cells);
  }
  if (!json_path.empty() &&
      !write_file(json_path, aggregates_to_json(result->merged.grid,
                                                result->merged.cells))) {
    return 1;
  }
  if (!csv_path.empty() &&
      !write_file(csv_path, aggregates_to_csv(result->merged.cells))) {
    return 1;
  }
  if (!dist_path.empty() &&
      !write_file(dist_path, cells_to_dist_json(result->merged.grid,
                                                result->merged.cells) +
                                 "\n")) {
    return 1;
  }
  if (!ledger_path.empty() &&
      !write_file(ledger_path, ledger_to_json(result->ledger) + "\n")) {
    return 1;
  }
  if (!perf_path.empty()) {
    if (result->perf) {
      if (!write_file(perf_path, result->perf->to_json() + "\n")) return 1;
    } else {
      // Observation only: every worker that won cells crashed before
      // writing a sidecar.  The report outputs above are still exact.
      std::fprintf(stderr,
                   "ccd_dispatch: no worker perf sidecars survived; "
                   "skipping %s\n",
                   perf_path.c_str());
    }
  }

  if (!keep_work) {
    // Only our own per-batch files -- the work dir may be shared.
    for (std::uint64_t id = 0; id < stats.batches; ++id) {
      const std::string base =
          options.work_dir + "/batch-" + std::to_string(id);
      std::remove((base + ".spec.json").c_str());
      std::remove((base + ".report.json").c_str());
      std::remove((base + ".ckpt.jsonl").c_str());
      std::remove((base + ".perf.json").c_str());
    }
  }
  return 0;
}
