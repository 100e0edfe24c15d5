// ccd_merge: recombine shard reports (ccd_sweep --shard / --shard-file)
// into the full-grid report.
//
// Validation is strict and every failure is keyed: shard reports from
// different grids (fingerprint mismatch), overlapping or duplicate cell
// coverage, and missing cells are all named precisely.  On success the
// JSON / CSV / summary outputs are BYTE-IDENTICAL to what a single-process
// `ccd_sweep` run of the same grid writes -- a ctest target and a CI smoke
// step both diff exactly that.
//
// Examples:
//   ccd_sweep --grid multihop --emit-shards 4 --shard-out shards/mh
//   for i in 0 1 2 3; do
//     ccd_sweep --shard-file shards/mh-$i-of-4.json --json part-$i.json
//   done
//   ccd_merge --json merged.json --csv merged.csv part-*.json
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/shard/checkpoint.hpp"
#include "exp/shard/shard_report.hpp"
#include "obs/perf_sidecar.hpp"
#include "util/parse_uint.hpp"

namespace {

using namespace ccd;
using namespace ccd::exp;

void usage(std::FILE* out) {
  std::fprintf(out, R"(usage: ccd_merge [options] SHARD_REPORT.json...

Merge partial shard reports written by `ccd_sweep --shard i/K --json ...`
(or --shard-file) into one full-grid report, byte-identical to a
single-process run of the same grid.

options:
  --json PATH          write the merged aggregate JSON report
  --csv PATH           write the merged per-cell CSV
  --dist-out PATH      write the merged full distributions (ccd-dist-v1)
  --perf FILE          perf sidecar from one shard (repeatable); counter
                       totals SUM exactly, cell timings union disjointly
  --perf-out PATH      write the merged perf sidecar (needs --perf)
  --checkpoint FILE    shard checkpoint to heartbeat-check (repeatable)
  --stale-after SECS   flag checkpoints whose last heartbeat is SECS+
                       older than the newest one seen (default 300)
  --quiet              suppress the ASCII summary

Report merging and perf-sidecar merging are independent: either may run
alone, and neither changes a byte of the other's output.  --checkpoint
files are only heartbeat-inspected, never merged: a stale one means its
worker likely died and its shard report will be missing or short.
)");
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "ccd_merge: cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

/// Last heartbeat in a checkpoint file: the max ts_ms over the header and
/// every cell marker (markers may land out of ts order under concurrent
/// completion, and resume rewrites replayed cells with fresh stamps), and
/// the last completing worker for the stale report.
struct Heartbeat {
  std::uint64_t ts_ms = 0;
  std::optional<std::uint32_t> worker;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, csv_path, perf_out_path, dist_out_path;
  std::uint64_t stale_after_secs = 300;
  bool quiet = false;
  std::vector<std::string> inputs;
  std::vector<std::string> perf_inputs;
  std::vector<std::string> checkpoint_inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      usage(stdout);
      return 0;
    }
    if (flag == "--json" || flag == "--csv" || flag == "--perf" ||
        flag == "--perf-out" || flag == "--dist-out" ||
        flag == "--checkpoint" || flag == "--stale-after") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ccd_merge: %s needs a value\n", flag.c_str());
        return 2;
      }
      const char* value = argv[++i];
      if (flag == "--json") {
        json_path = value;
      } else if (flag == "--csv") {
        csv_path = value;
      } else if (flag == "--perf") {
        perf_inputs.push_back(value);
      } else if (flag == "--dist-out") {
        dist_out_path = value;
      } else if (flag == "--checkpoint") {
        checkpoint_inputs.push_back(value);
      } else if (flag == "--stale-after") {
        std::string why;
        const auto secs = parse_uint<std::uint64_t>(value, &why);
        if (!secs) {
          std::fprintf(stderr, "ccd_merge: bad --stale-after '%s': %s\n",
                       value, why.c_str());
          return 2;
        }
        stale_after_secs = *secs;
      } else {
        perf_out_path = value;
      }
    } else if (flag == "--quiet") {
      quiet = true;
    } else if (!flag.empty() && flag[0] == '-') {
      std::fprintf(stderr, "ccd_merge: unknown flag '%s'\n", flag.c_str());
      usage(stderr);
      return 2;
    } else {
      inputs.push_back(flag);
    }
  }
  if (inputs.empty() && perf_inputs.empty() && checkpoint_inputs.empty()) {
    std::fprintf(stderr,
                 "ccd_merge: no shard report, --perf sidecar, or "
                 "--checkpoint files given\n");
    usage(stderr);
    return 2;
  }
  if (!perf_out_path.empty() && perf_inputs.empty()) {
    std::fprintf(stderr, "ccd_merge: --perf-out needs --perf FILE inputs\n");
    return 2;
  }
  if (inputs.empty() &&
      (!json_path.empty() || !csv_path.empty() || !dist_out_path.empty())) {
    std::fprintf(stderr,
                 "ccd_merge: --json/--csv/--dist-out merge shard REPORTS; "
                 "none were given\n");
    return 2;
  }

  // Heartbeat check: a shard whose checkpoint stopped advancing SECS
  // before the most recent heartbeat across all checkpoints is flagged as
  // stale -- its worker probably died and that shard's report is suspect.
  if (!checkpoint_inputs.empty()) {
    std::vector<Heartbeat> beats(checkpoint_inputs.size());
    std::uint64_t newest_ms = 0;
    for (std::size_t i = 0; i < checkpoint_inputs.size(); ++i) {
      if (!tail_checkpoint(checkpoint_inputs[i], nullptr, &beats[i].ts_ms,
                           &beats[i].worker)) {
        std::fprintf(stderr, "ccd_merge: cannot read checkpoint %s\n",
                     checkpoint_inputs[i].c_str());
        return 2;
      }
      newest_ms = std::max(newest_ms, beats[i].ts_ms);
    }
    for (std::size_t i = 0; i < checkpoint_inputs.size(); ++i) {
      const std::uint64_t age_ms = newest_ms - beats[i].ts_ms;
      const bool stale = age_ms > stale_after_secs * 1000;
      if (stale || !quiet) {
        std::string who = beats[i].worker
                              ? " (last worker " +
                                    std::to_string(*beats[i].worker) + ")"
                              : "";
        std::fprintf(stderr,
                     "ccd_merge: checkpoint %s: last heartbeat %llu ms "
                     "behind newest%s%s\n",
                     checkpoint_inputs[i].c_str(),
                     static_cast<unsigned long long>(age_ms), who.c_str(),
                     stale ? " -- STALE" : "");
      }
    }
  }

  // Perf sidecars first: they are pure observation, so a failure here
  // never blocks the report merge -- but a malformed sidecar is still a
  // hard error, not a shrug.
  std::optional<obs::PerfSidecar> merged_perf;
  if (!perf_inputs.empty()) {
    std::vector<obs::PerfSidecar> sidecars;
    sidecars.reserve(perf_inputs.size());
    for (const std::string& path : perf_inputs) {
      std::string text;
      if (!read_file(path, text)) {
        std::fprintf(stderr, "ccd_merge: cannot read %s\n", path.c_str());
        return 2;
      }
      std::string error;
      auto sidecar = obs::PerfSidecar::from_json(text, &error);
      if (!sidecar) {
        std::fprintf(stderr, "ccd_merge: %s: %s\n", path.c_str(),
                     error.c_str());
        return 2;
      }
      sidecars.push_back(std::move(*sidecar));
    }
    std::string error;
    merged_perf = obs::merge_perf_sidecars(sidecars, &error);
    if (!merged_perf) {
      std::fprintf(stderr, "ccd_merge: %s\n", error.c_str());
      return 2;
    }
  }

  if (inputs.empty()) {
    if (merged_perf) {
      if (!quiet) {
        std::fprintf(stderr, "ccd_merge: %zu perf sidecars -> %zu cells\n",
                     perf_inputs.size(), merged_perf->cells.size());
      }
      if (!perf_out_path.empty() &&
          !write_file(perf_out_path, merged_perf->to_json() + "\n")) {
        return 1;
      }
    }
    return 0;
  }

  std::vector<ShardReport> reports;
  reports.reserve(inputs.size());
  for (const std::string& path : inputs) {
    std::string text;
    if (!read_file(path, text)) {
      std::fprintf(stderr, "ccd_merge: cannot read %s\n", path.c_str());
      return 2;
    }
    std::string error;
    auto report = ShardReport::from_json(text, &error);
    if (!report) {
      std::fprintf(stderr, "ccd_merge: %s: %s\n", path.c_str(),
                   error.c_str());
      return 2;
    }
    reports.push_back(std::move(*report));
  }

  std::string error;
  auto merged = merge_shard_reports(reports, &error);
  if (!merged) {
    std::fprintf(stderr, "ccd_merge: %s\n", error.c_str());
    return 2;
  }

  // When both report shards and perf sidecars are on the table, they must
  // describe the same grid.
  if (merged_perf &&
      merged_perf->grid_fingerprint != merged->grid.fingerprint()) {
    std::fprintf(stderr,
                 "ccd_merge: perf sidecars describe a different grid than "
                 "the shard reports (fingerprint mismatch)\n");
    return 2;
  }

  if (!quiet) {
    std::fprintf(stderr, "ccd_merge: %zu shard reports -> %zu cells\n",
                 reports.size(), merged->cells.size());
    print_summary(std::cout, merged->grid, merged->cells);
  }
  if (!json_path.empty() &&
      !write_file(json_path, aggregates_to_json(merged->grid,
                                                merged->cells))) {
    return 1;
  }
  if (!csv_path.empty() &&
      !write_file(csv_path, aggregates_to_csv(merged->cells))) {
    return 1;
  }
  if (!dist_out_path.empty() &&
      !write_file(dist_out_path,
                  cells_to_dist_json(merged->grid, merged->cells) + "\n")) {
    return 1;
  }
  if (merged_perf && !perf_out_path.empty() &&
      !write_file(perf_out_path, merged_perf->to_json() + "\n")) {
    return 1;
  }
  return 0;
}
