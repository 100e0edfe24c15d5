// Hostile input for the artifact readers: a shard report, a checkpoint, a
// stats object and a perf sidecar, each cut at every byte and hit with a
// seeded set of single-byte flips.  Every mutant must either parse and
// re-serialize to exactly its own bytes (JSON whitespace aside), or fail
// with an error; nesting past the reader's limit fails the same way, and
// a torn last checkpoint line keeps its amnesty.  Also the keyed errors
// for inputs the old readers accepted: counter overflow, a minus sign on
// an unsigned field, and duplicate keys.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/shard/checkpoint.hpp"
#include "exp/shard/shard_plan.hpp"
#include "exp/shard/shard_report.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"
#include "obs/perf_sidecar.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ccd::exp {
namespace {

/// Flood and MIS-then-consensus cells on a line and a random geometric
/// graph, with and without crashes: every statistic kind shows up, raw
/// sample buffers with 17-digit doubles included.
SweepGrid fixture_grid() {
  SweepGrid grid;
  grid.workloads = {WorkloadKind::kFlood, WorkloadKind::kMisThenConsensus};
  grid.topologies = {TopologyKind::kLine, TopologyKind::kRandomGeometric};
  grid.faults = {FaultKind::kNone, FaultKind::kRandomCrash};
  grid.densities = {2.5};
  grid.ns = {6};
  grid.seeds_per_cell = 3;
  grid.grid_seed = 17;
  return grid;
}

std::vector<CellAggregate> fixture_cells(const SweepGrid& grid) {
  SweepOptions options;
  options.threads = 1;
  return aggregate(grid, run_sweep(grid, options));
}

/// An explicit-mode report over cells {1, 2, 5, 6} (its header carries a
/// cell_list).
ShardReport fixture_report() {
  const SweepGrid grid = fixture_grid();
  const std::vector<CellAggregate> all = fixture_cells(grid);
  ShardReport report;
  report.shard = ShardPlanner::plan_cells(grid, {1, 2, 5, 6}, 7);
  for (std::size_t c : report.shard.cells) report.cells.push_back(all[c]);
  return report;
}

/// `text` without JSON's insignificant whitespace: what a re-serialization
/// of an accepted mutant must equal.
std::string strip_ws(const std::string& text) {
  std::string out;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      out += c;
      if (c == '\\' && i + 1 < text.size()) {
        out += text[++i];
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
      out += c;
    } else if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
      out += c;
    }
  }
  return out;
}

/// A seeded set of single-byte flips: (position, replacement byte).  Half
/// the replacements are bytes JSON cares about, half arbitrary.
std::vector<std::pair<std::size_t, char>> flips(std::size_t size,
                                                std::uint64_t seed,
                                                std::size_t count) {
  static const char kStructural[] = "{}[],:\"\\-+.eE0123456789 \ntfn";
  Rng rng(seed);
  std::vector<std::pair<std::size_t, char>> out;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t pos = static_cast<std::size_t>(rng.below(size));
    const char c =
        rng.below(2) == 0
            ? kStructural[rng.below(sizeof(kStructural) - 1)]
            : static_cast<char>(rng.below(256));
    out.emplace_back(pos, c);
  }
  return out;
}

/// Runs `check` on every prefix and on the seeded flips of `text`; check
/// returns "" when the mutant behaved, else a description.
template <typename Check>
void hammer(const std::string& text, std::uint64_t seed, std::size_t count,
            Check&& check) {
  std::size_t failures = 0;
  for (std::size_t len = 0; len < text.size() && failures < 5; ++len) {
    const std::string why = check(text.substr(0, len), true);
    if (!why.empty()) {
      ADD_FAILURE() << "prefix " << len << ": " << why;
      ++failures;
    }
  }
  for (const auto& [pos, c] : flips(text.size(), seed, count)) {
    if (failures >= 5) break;
    std::string mutant = text;
    if (mutant[pos] == c) continue;
    mutant[pos] = c;
    const std::string why = check(mutant, false);
    if (!why.empty()) {
      ADD_FAILURE() << "flip byte " << pos << " to "
                    << static_cast<int>(static_cast<unsigned char>(c)) << ": "
                    << why;
      ++failures;
    }
  }
}

TEST(ArtifactReaderHostile, ShardReportRoundTripsOrFails) {
  const std::string text = fixture_report().to_json();
  ASSERT_NE(text.find("6666666666666666"), std::string::npos);  // 17 digits
  ASSERT_NE(text.find("\"cell_list\":[1,2,5,6]"), std::string::npos);
  hammer(text, 1, 3000, [](const std::string& m, bool prefix) -> std::string {
    std::string error;
    auto parsed = ShardReport::from_json(m, &error);
    if (!parsed) return error.empty() ? "rejected without an error" : "";
    if (prefix) return "a strict prefix parsed";
    const std::string again = parsed->to_json();
    return again == strip_ws(m) ? "" : "accepted but re-serialized differently";
  });
}

TEST(ArtifactReaderHostile, StatsObjectRoundTripsOrFails) {
  Stats raw{Stats::Mode::kRawSamples};
  for (double x : {1.0 / 3.0, 7.0 / 3.0, 0.1, 7.0, 1e-7, 12345.678, -2.5}) {
    raw.add(x);
  }
  Stats hist;
  for (double x : {-3.0, 0.0, 0.0, 5.0, 1000000.0, 5.0, 42.0}) hist.add(x);
  for (const Stats* s : {&raw, &hist}) {
    hammer(stats_to_json(*s), 2, 3000,
           [](const std::string& m, bool prefix) -> std::string {
             Stats back;
             std::string error;
             if (!stats_from_json(m, &back, &error)) {
               return error.empty() ? "rejected without an error" : "";
             }
             if (prefix) return "a strict prefix parsed";
             return stats_to_json(back) == strip_ws(m)
                        ? ""
                        : "accepted but re-serialized differently";
           });
  }
}

obs::PerfSidecar fixture_sidecar() {
  obs::SweepPerf perf;
  perf.threads = 2;
  perf.runs = 5;
  perf.wall_ns = 123456789;
  perf.drain_ns = 4567;
  perf.stats_bytes_retained = 4096;
  perf.counters.rounds = 77;
  perf.counters.messages_sent = 1234;
  for (std::uint64_t i = 0; i < 5; ++i) {
    perf.spans.push_back({i, i % 3, static_cast<std::uint32_t>(i % 2),
                          100 * i, 100 * i + 50 + 7 * i});
  }
  obs::PerfSidecar sidecar =
      obs::build_perf_sidecar(0x0123456789abcdefull, 1, 4, perf);
  obs::PerfDispatch dispatch;
  dispatch.workers = 2;
  dispatch.batches = 9;
  dispatch.steals = 1;
  dispatch.wall_ns = 99999;
  dispatch.slots.push_back({0, 5, 20, 8000, 812, 0});
  dispatch.slots.push_back({1, 4, 18, 7000, 701, 1});
  sidecar.dispatch = dispatch;
  return sidecar;
}

TEST(ArtifactReaderHostile, PerfSidecarRoundTripsOrFails) {
  hammer(fixture_sidecar().to_json(), 3, 3000,
         [](const std::string& m, bool prefix) -> std::string {
           std::string error;
           auto parsed = obs::PerfSidecar::from_json(m, &error);
           if (!parsed) return error.empty() ? "rejected without an error" : "";
           if (prefix) return "a strict prefix parsed";
           return parsed->to_json() == strip_ws(m)
                      ? ""
                      : "accepted but re-serialized differently";
         });
}

struct TempFile {
  explicit TempFile(const char* name) : path(name) {}
  ~TempFile() { std::remove(path.c_str()); }
  void write(const std::string& content) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }
  std::string path;
};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      if (start < text.size()) lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

TEST(ArtifactReaderHostile, CheckpointLoadsExactlyOrFails) {
  const ShardReport report = fixture_report();
  const ShardSpec& shard = report.shard;
  std::string text = checkpoint_header(shard) + "\n";
  const std::uint32_t worker = 3;
  for (const CellAggregate& cell : report.cells) {
    text += checkpoint_cell_marker(cell, &worker) + "\n";
  }
  TempFile file("artifact_reader_hostile.ckpt");
  hammer(text, 4, 1500,
         [&](const std::string& m, bool prefix) -> std::string {
           file.write(m);
           CheckpointContents contents;
           std::string error;
           if (!load_checkpoint(shard, file.path, &contents, &error)) {
             if (prefix) return "a prefix lost its torn-tail amnesty: " + error;
             return error.empty() ? "rejected without an error" : "";
           }
           // Accepted: the loaded cells are exactly the marker lines (minus
           // their heartbeat fields), less a torn last line.
           std::vector<std::string> markers;
           const std::vector<std::string> lines = split_lines(m);
           for (std::size_t i = 1; i < lines.size(); ++i) {
             if (!lines[i].empty()) markers.push_back(lines[i]);
           }
           if (contents.torn_tail && !markers.empty()) markers.pop_back();
           if (lines.empty() || (contents.torn_tail && lines.size() == 1)) {
             markers.clear();
           }
           if (markers.size() != contents.cells.size()) {
             return "loaded " + std::to_string(contents.cells.size()) +
                    " cells from " + std::to_string(markers.size()) +
                    " whole markers";
           }
           std::map<std::size_t, std::string> expected;
           for (const std::string& line : markers) {
             const std::string stripped = strip_ws(line);
             const std::size_t hb = stripped.rfind(",\"ts_ms\":");
             if (hb == std::string::npos) return "marker without ts_ms loaded";
             const std::string body = stripped.substr(0, hb) + "}";
             const std::size_t colon = body.find(':');
             const std::size_t comma = body.find(',');
             expected[std::stoull(body.substr(colon + 1, comma - colon - 1))] =
                 body;
           }
           for (const auto& [index, cell] : contents.cells) {
             auto it = expected.find(index);
             if (it == expected.end() ||
                 it->second != cell_aggregate_to_json(cell)) {
               return "cell " + std::to_string(index) +
                      " loaded differently from its marker";
             }
           }
           return "";
         });
}

// ---- keyed errors for input the old readers accepted ----------------------

std::string replace_once(std::string text, const std::string& from,
                         const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(ArtifactReaderKeyed, CounterOverflowAndSignsNameTheKey) {
  const std::string text = fixture_report().to_json();
  const std::string cell0 = "{\"cell\":1,\"runs\":3,";
  ASSERT_NE(text.find(cell0), std::string::npos);
  struct Case {
    std::string replacement;
    const char* expect_in_error;
  };
  const Case cases[] = {
      {"{\"cell\":1,\"runs\":99999999999999999999999,",
       "bad value '99999999999999999999999' for key 'runs' in cells[0]"},
      {"{\"cell\":1,\"runs\":-3,",
       "bad value '-3' for key 'runs' in cells[0]"},
      {"{\"cell\":-1,\"runs\":3,",
       "bad value '-1' for key 'cell' in cells[0]"},
      {"{\"cell\":1,\"runs\":3,\"runs\":3,",
       "duplicate key 'runs' in cells[0]"},
      {"{\"cell\":1,\"runz\":3,", "unknown key 'runz' in cells[0]"},
      {"{\"cell\":1,\"runs\":3,\"ts_ms\":5,",
       "unknown key 'ts_ms' in cells[0]"},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_FALSE(
        ShardReport::from_json(replace_once(text, cell0, c.replacement), &error)
            .has_value())
        << c.replacement;
    EXPECT_NE(error.find(c.expect_in_error), std::string::npos)
        << c.replacement << " -> " << error;
  }
  // A duplicated statistic inside a cell.
  std::string error;
  const std::string dup_stats = replace_once(
      text, "\"decision_round\":{\"h\":[",
      "\"decision_round\":{\"h\":[],\"h\":[");
  EXPECT_FALSE(ShardReport::from_json(dup_stats, &error).has_value());
  EXPECT_NE(error.find("duplicate key 'h' in cells[0].decision_round"),
            std::string::npos)
      << error;
  // A cell the shard does not own.
  EXPECT_FALSE(ShardReport::from_json(replace_once(text, cell0,
                                                   "{\"cell\":3,\"runs\":3,"),
                                      &error)
                   .has_value());
  EXPECT_NE(error.find("not owned"), std::string::npos) << error;
}

TEST(ArtifactReaderKeyed, CheckpointLinesNameTheKeyAndLine) {
  const ShardReport report = fixture_report();
  const std::string header = checkpoint_header(report.shard) + "\n";
  const std::uint32_t worker = 0;
  const std::string marker = checkpoint_cell_marker(report.cells[0], &worker);
  const std::string tail =
      checkpoint_cell_marker(report.cells[1], &worker) + "\n";
  struct Case {
    std::string line;
    const char* expect_in_error;
    const char* line_no;
  };
  const Case cases[] = {
      {replace_once(marker, "\"runs\":3", "\"runs\":18446744073709551616"),
       "bad value '18446744073709551616' for key 'runs'", "line 2"},
      {replace_once(marker, "\"runs\":3", "\"runs\":-3"),
       "bad value '-3' for key 'runs'", "line 2"},
      {replace_once(marker, "\"runs\":3", "\"runs\":3,\"runs\":3"),
       "duplicate key 'runs'", "line 2"},
      {replace_once(marker, "\"worker\":0", "\"worker\":0,\"ts_ms\":1"),
       "duplicate key 'ts_ms'", "line 2"},
      {replace_once(marker, "\"worker\":0", "\"worker\":4294967296"),
       "for key 'worker'", "line 2"},
      // Line 2 claims cell 2, which line 3 then completes again.
      {replace_once(marker, "\"cell\":1", "\"cell\":2"),
       "second marker for cell 2", "line 3"},
  };
  TempFile file("artifact_reader_keyed.ckpt");
  for (const Case& c : cases) {
    // The bad line is never the last, so no torn-tail amnesty applies.
    file.write(header + c.line + "\n" + tail);
    CheckpointContents contents;
    std::string error;
    EXPECT_FALSE(load_checkpoint(report.shard, file.path, &contents, &error))
        << c.line;
    EXPECT_NE(error.find(c.expect_in_error), std::string::npos)
        << c.line << " -> " << error;
    EXPECT_NE(error.find(c.line_no), std::string::npos) << error;
  }
  // A header naming another shard of the same grid.
  file.write(replace_once(header, "\"shard_index\":7", "\"shard_index\":8") +
             marker + "\n");
  CheckpointContents contents;
  std::string error;
  EXPECT_FALSE(load_checkpoint(report.shard, file.path, &contents, &error));
  EXPECT_NE(error.find("not shard 7/1"), std::string::npos) << error;
}

TEST(ArtifactReaderKeyed, NestingPastTheLimitIsAKeyedErrorEverywhere) {
  const std::string deep = std::string(100000, '[') + std::string(100000, ']');
  auto nesting = [](const std::string& error) {
    return error.find("nesting deeper than") != std::string::npos;
  };
  std::string error;
  EXPECT_FALSE(ShardReport::from_json(
                   "{\"format\":\"ccd-shard-report-v2\",\"grid\":" + deep + "}",
                   &error)
                   .has_value());
  EXPECT_TRUE(nesting(error)) << error.substr(0, 200);
  EXPECT_NE(error.find("key 'grid'"), std::string::npos)
      << error.substr(0, 200);

  Stats s;
  EXPECT_FALSE(stats_from_json("{\"h\":" + deep + "}", &s, &error));
  EXPECT_TRUE(nesting(error)) << error.substr(0, 200);

  EXPECT_FALSE(obs::PerfSidecar::from_json(
                   "{\"format\":\"ccd-perf-sidecar-v1\",\"counters\":" +
                       deep + "}",
                   &error)
                   .has_value());
  EXPECT_TRUE(nesting(error)) << error.substr(0, 200);

  // The lenient tailer skips members it does not read; a deep one makes
  // the line unreadable, not the process crash.
  const ShardReport report = fixture_report();
  TempFile file("artifact_reader_deep.ckpt");
  file.write(checkpoint_header(report.shard) + "\n{\"cell\":1,\"x\":" + deep +
             ",\"ts_ms\":5}\n");
  std::vector<std::size_t> done;
  std::uint64_t ts = 0;
  ASSERT_TRUE(tail_checkpoint(file.path, &done, &ts));
  EXPECT_TRUE(done.empty());
  CheckpointContents contents;
  EXPECT_TRUE(load_checkpoint(report.shard, file.path, &contents, &error))
      << error;  // the deep line is the last one: torn-tail amnesty
  EXPECT_TRUE(contents.torn_tail);
}

}  // namespace
}  // namespace ccd::exp
