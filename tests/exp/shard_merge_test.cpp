// Sharded-execution subsystem tests: planner partition laws, shard
// spec/report JSON round-trips, fingerprint-based stale-shard rejection,
// checkpoint resume, exact Stats/aggregate merging, and the headline
// guarantee -- ccd_merge over any K-way split of the named `multihop` grid
// (432 cells) reproduces the single-process JSON and CSV BYTE-identically.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "exp/aggregator.hpp"
#include "exp/shard/shard_plan.hpp"
#include "exp/shard/shard_report.hpp"
#include "exp/shard/shard_runner.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"
#include "obs/perf_sidecar.hpp"
#include "util/stats.hpp"

namespace ccd::exp {
namespace {

SweepGrid small_grid() {
  SweepGrid grid;
  grid.algs = {AlgKind::kAlg1, AlgKind::kAlg2};
  grid.ns = {2, 4, 5};
  grid.value_spaces = {4, 16};  // 12 cells
  grid.base.cst_target = 3;
  grid.seeds_per_cell = 2;
  grid.grid_seed = 99;
  return grid;
}

/// Render the full report the way ccd_sweep does.
std::pair<std::string, std::string> full_report(const SweepGrid& grid,
                                                unsigned threads = 1) {
  SweepOptions options;
  options.threads = threads;
  const auto cells = aggregate(grid, run_sweep(grid, options));
  return {aggregates_to_json(grid, cells), aggregates_to_csv(cells)};
}

/// Shard the grid K ways, run every shard (through the JSON round trip, as
/// separate processes would), merge, and render.
std::pair<std::string, std::string> sharded_report(const SweepGrid& grid,
                                                   std::size_t k,
                                                   ShardMode mode) {
  std::vector<ShardReport> reports;
  for (const ShardSpec& spec : ShardPlanner::plan(grid, k, mode)) {
    // Spec and report both cross a serialization boundary.
    std::string error;
    auto parsed_spec = ShardSpec::from_json(spec.to_json(), &error);
    EXPECT_TRUE(parsed_spec.has_value()) << error;
    auto report = run_shard(*parsed_spec, {}, &error);
    EXPECT_TRUE(report.has_value()) << error;
    auto parsed_report = ShardReport::from_json(report->to_json(), &error);
    EXPECT_TRUE(parsed_report.has_value()) << error;
    reports.push_back(std::move(*parsed_report));
  }
  std::string error;
  auto merged = merge_shard_reports(reports, &error);
  EXPECT_TRUE(merged.has_value()) << error;
  return {aggregates_to_json(merged->grid, merged->cells),
          aggregates_to_csv(merged->cells)};
}

// ---- Stats merging --------------------------------------------------------

TEST(StatsMerge, MergeFromEqualsSinglePassFold) {
  Stats whole, left, right;
  const double xs[] = {3.5, -1.25, 0.1, 7.0, 0.1, 1e-9, 42.0};
  int i = 0;
  for (double x : xs) {
    whole.add(x);
    (i++ < 3 ? left : right).add(x);
  }
  left.merge_from(right);
  ASSERT_EQ(left.count(), whole.count());
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
  EXPECT_EQ(left.mean(), whole.mean());  // exact, not near: same fold order
  EXPECT_EQ(left.stddev(), whole.stddev());
  EXPECT_EQ(left.percentile(50), whole.percentile(50));
  EXPECT_EQ(left.percentile(99), whole.percentile(99));
  EXPECT_EQ(left.samples(), whole.samples());
}

TEST(StatsMerge, EmptySidesAndSelfMerge) {
  Stats empty, s;
  s.add(1.0);
  s.add(2.0);
  s.merge_from(empty);  // no-op
  EXPECT_EQ(s.count(), 2u);
  empty.merge_from(s);
  ASSERT_TRUE(empty.histogram_active());
  EXPECT_EQ(empty.histogram().bins(), s.histogram().bins());
  s.merge_from(s);  // self-merge must not read stale or reallocated state
  ASSERT_EQ(s.count(), 4u);
  EXPECT_EQ(s.histogram().bins(),
            (std::vector<ExactHistogram::Bin>{{1, 2}, {2, 2}}));
}

TEST(StatsMerge, RawModeSelfMergeKeepsInsertionOrder) {
  Stats s{Stats::Mode::kRawSamples};
  s.add(1.0);
  s.add(2.0);
  s.merge_from(s);  // self-merge must not read reallocated memory
  ASSERT_EQ(s.count(), 4u);
  EXPECT_EQ(s.samples(), (std::vector<double>{1.0, 2.0, 1.0, 2.0}));
}

// ---- planner laws ---------------------------------------------------------

TEST(ShardPlanner, EveryCellOwnedExactlyOnce) {
  const SweepGrid grid = small_grid();
  for (ShardMode mode : {ShardMode::kContiguous, ShardMode::kStrided}) {
    for (std::size_t k : {1u, 2u, 3u, 5u, 12u}) {
      const auto shards = ShardPlanner::plan(grid, k, mode);
      ASSERT_EQ(shards.size(), k);
      std::set<std::size_t> seen;
      for (const ShardSpec& spec : shards) {
        for (std::size_t c : spec.cell_indices()) {
          EXPECT_TRUE(spec.owns_cell(c));
          EXPECT_TRUE(seen.insert(c).second)
              << "cell " << c << " owned twice (k=" << k << ")";
        }
      }
      EXPECT_EQ(seen.size(), grid.num_cells());
    }
  }
}

TEST(ShardPlanner, MoreShardsThanCellsYieldsEmptyShards) {
  SweepGrid grid = small_grid();  // 12 cells
  const auto shards = ShardPlanner::plan(grid, 20, ShardMode::kContiguous);
  std::size_t empty = 0, covered = 0;
  for (const ShardSpec& spec : shards) {
    const auto cells = spec.cell_indices();
    if (cells.empty()) ++empty;
    covered += cells.size();
  }
  EXPECT_EQ(covered, grid.num_cells());
  EXPECT_EQ(empty, 8u);  // 20 shards over 12 cells

  // Empty shards still run and merge exactly.
  const auto [json, csv] = sharded_report(grid, 20, ShardMode::kContiguous);
  const auto [full_json, full_csv] = full_report(grid);
  EXPECT_EQ(json, full_json);
  EXPECT_EQ(csv, full_csv);
}

TEST(ShardPlanner, SingleShardReportEqualsFullReport) {
  const SweepGrid grid = small_grid();
  const auto [json, csv] = sharded_report(grid, 1, ShardMode::kContiguous);
  const auto [full_json, full_csv] = full_report(grid);
  EXPECT_EQ(json, full_json);
  EXPECT_EQ(csv, full_csv);
}

// ---- grid / spec JSON -----------------------------------------------------

TEST(SweepGridJson, NamedGridsRoundTripExactly) {
  for (const std::string& name : SweepGrid::grid_names()) {
    const SweepGrid grid = *SweepGrid::named(name);
    std::string error;
    auto parsed = SweepGrid::from_json(grid.to_json(), &error);
    ASSERT_TRUE(parsed.has_value()) << name << ": " << error;
    EXPECT_EQ(*parsed, grid) << name;
    EXPECT_EQ(parsed->fingerprint(), grid.fingerprint()) << name;
    EXPECT_EQ(parsed->to_json(), grid.to_json()) << name;
  }
}

TEST(SweepGridJson, RejectsTyposWithKeyedErrors) {
  std::string error;
  EXPECT_FALSE(SweepGrid::from_json("{\"algz\":[\"alg1\"]}", &error));
  EXPECT_NE(error.find("unknown key 'algz'"), std::string::npos) << error;
  EXPECT_FALSE(SweepGrid::from_json("{\"algs\":[\"alg9\"]}", &error));
  EXPECT_NE(error.find("bad value 'alg9' for axis 'algs'"),
            std::string::npos)
      << error;
  EXPECT_FALSE(SweepGrid::from_json("{\"ns\":[4,-1]}", &error));
  EXPECT_NE(error.find("'ns'"), std::string::npos) << error;
  EXPECT_FALSE(
      SweepGrid::from_json("{\"base\":{\"alg\":\"alg9\"}}", &error));
  EXPECT_NE(error.find("for key 'alg' in base"), std::string::npos) << error;
}

TEST(ShardSpecJson, RoundTripsAndRejectsTamperedGrids) {
  const SweepGrid grid = *SweepGrid::named("smoke");
  const auto shards = ShardPlanner::plan(grid, 3, ShardMode::kStrided);
  const ShardSpec& spec = shards[1];
  std::string error;
  auto parsed = ShardSpec::from_json(spec.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->shard_index, 1u);
  EXPECT_EQ(parsed->shard_count, 3u);
  EXPECT_EQ(parsed->mode, ShardMode::kStrided);
  EXPECT_EQ(parsed->grid, grid);
  EXPECT_EQ(parsed->cell_indices(), spec.cell_indices());

  // Fingerprint pinning: editing the embedded grid (here: the grid seed)
  // without re-planning must be rejected, keyed to the mismatch.
  std::string tampered = spec.to_json();
  const std::string needle = "\"grid_seed\":1";
  const std::size_t at = tampered.find(needle);
  ASSERT_NE(at, std::string::npos);
  tampered.replace(at, needle.size(), "\"grid_seed\":2");
  EXPECT_FALSE(ShardSpec::from_json(tampered, &error).has_value());
  EXPECT_NE(error.find("fingerprint mismatch"), std::string::npos) << error;
}

// ---- merge validation -----------------------------------------------------

TEST(MergeShardReports, KeyedErrorsForMissingDuplicateAndForeignShards) {
  const SweepGrid grid = small_grid();
  std::vector<ShardReport> reports;
  for (const ShardSpec& spec : ShardPlanner::plan(grid, 3,
                                                  ShardMode::kContiguous)) {
    std::string error;
    auto report = run_shard(spec, {}, &error);
    ASSERT_TRUE(report.has_value()) << error;
    reports.push_back(std::move(*report));
  }

  std::string error;
  // Missing: drop the middle shard.
  {
    std::vector<ShardReport> partial = {reports[0], reports[2]};
    EXPECT_FALSE(merge_shard_reports(partial, &error).has_value());
    EXPECT_NE(error.find("missing cells: 4..7"), std::string::npos) << error;
  }
  // Duplicate: the same shard twice.
  {
    std::vector<ShardReport> doubled = {reports[0], reports[0], reports[1],
                                        reports[2]};
    EXPECT_FALSE(merge_shard_reports(doubled, &error).has_value());
    EXPECT_NE(error.find("duplicate cell 0"), std::string::npos) << error;
  }
  // Foreign: a shard of a DIFFERENT grid (stale artifact from an older
  // sweep) must be refused by fingerprint, not silently mixed in.
  {
    SweepGrid other = grid;
    other.grid_seed += 1;
    auto foreign =
        run_shard(ShardPlanner::plan(other, 3, ShardMode::kContiguous)[1]);
    ASSERT_TRUE(foreign.has_value());
    std::vector<ShardReport> mixed = {reports[0], *foreign, reports[2]};
    EXPECT_FALSE(merge_shard_reports(mixed, &error).has_value());
    EXPECT_NE(error.find("fingerprint mismatch"), std::string::npos) << error;
  }
  // Order independence: shards merge in any arrival order.
  {
    std::vector<ShardReport> shuffled = {reports[2], reports[0], reports[1]};
    auto merged = merge_shard_reports(shuffled, &error);
    ASSERT_TRUE(merged.has_value()) << error;
    const auto [full_json, full_csv] = full_report(grid);
    EXPECT_EQ(aggregates_to_json(merged->grid, merged->cells), full_json);
    EXPECT_EQ(aggregates_to_csv(merged->cells), full_csv);
  }
}

// ---- checkpoint / resume --------------------------------------------------

TEST(ShardCheckpoint, ResumeAfterTruncationReproducesTheReport) {
  const SweepGrid grid = small_grid();
  const ShardSpec spec = ShardPlanner::plan(grid, 2,
                                            ShardMode::kContiguous)[0];
  const std::string path = "shard_merge_test_resume.ckpt";

  ShardRunOptions options;
  options.checkpoint_path = path;
  std::string error;
  auto clean = run_shard(spec, options, &error);
  ASSERT_TRUE(clean.has_value()) << error;

  // Simulate a crash: keep the header, the first two complete markers, and
  // one torn half-written line.
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 4u);  // header + >= 3 cells
  {
    std::ofstream out(path, std::ios::trunc);
    out << lines[0] << "\n" << lines[1] << "\n" << lines[2] << "\n";
    out << lines[3].substr(0, lines[3].size() / 2);  // torn write
  }

  options.resume = true;
  auto resumed = run_shard(spec, options, &error);
  ASSERT_TRUE(resumed.has_value()) << error;
  EXPECT_EQ(resumed->to_json(), clean->to_json());

  // Second crash cycle: the resume above must have REWRITTEN the file
  // clean (torn line healed), so tearing it again and resuming again still
  // works -- append-after-torn-line would glue markers together here.
  {
    std::ifstream in(path, std::ios::binary);
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << all.substr(0, all.size() - 7);  // tear the last marker again
  }
  auto resumed_twice = run_shard(spec, options, &error);
  ASSERT_TRUE(resumed_twice.has_value()) << error;
  EXPECT_EQ(resumed_twice->to_json(), clean->to_json());

  // A checkpoint from another grid must be refused, not resumed past.
  SweepGrid other = grid;
  other.grid_seed += 7;
  auto foreign = run_shard(
      ShardPlanner::plan(other, 2, ShardMode::kContiguous)[0], options,
      &error);
  EXPECT_FALSE(foreign.has_value());
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
  std::remove(path.c_str());
}

// Strip a heartbeat field (",\"key\":<digits>") everywhere -- fabricates a
// checkpoint written by the pre-telemetry format.
std::string strip_field(std::string text, const std::string& key) {
  const std::string needle = ",\"" + key + "\":";
  std::size_t at;
  while ((at = text.find(needle)) != std::string::npos) {
    std::size_t end = at + needle.size();
    while (end < text.size() && std::isdigit(text[end])) ++end;
    text.erase(at, end - at);
  }
  return text;
}

TEST(ShardCheckpoint, HeartbeatFieldsStampedAndIgnoredOnResume) {
  const SweepGrid grid = small_grid();
  const ShardSpec spec = ShardPlanner::plan(grid, 2,
                                            ShardMode::kContiguous)[0];
  const std::string path = "shard_merge_test_heartbeat.ckpt";
  ShardRunOptions options;
  options.checkpoint_path = path;
  std::string error;
  auto clean = run_shard(spec, options, &error);
  ASSERT_TRUE(clean.has_value()) << error;

  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 2u);
  // Header and every cell marker carry a wall-clock heartbeat; executed
  // cell markers also name the worker that completed them.
  EXPECT_NE(lines[0].find("\"ts_ms\":"), std::string::npos) << lines[0];
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("\"ts_ms\":"), std::string::npos) << lines[i];
    EXPECT_NE(lines[i].find("\"worker\":"), std::string::npos) << lines[i];
  }

  // Resume reads PAST the heartbeat fields: everything already complete,
  // so the resumed report is byte-identical and nothing re-executes.
  options.resume = true;
  auto resumed = run_shard(spec, options, &error);
  ASSERT_TRUE(resumed.has_value()) << error;
  EXPECT_EQ(resumed->to_json(), clean->to_json());

  // Rewritten (replayed) markers still carry ts_ms; worker is absent
  // because no worker executed them this time.
  {
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      EXPECT_NE(line.find("\"ts_ms\":"), std::string::npos) << line;
      EXPECT_EQ(line.find("\"worker\":"), std::string::npos) << line;
    }
  }
  std::remove(path.c_str());
}

TEST(ShardCheckpoint, OldFormatCheckpointWithoutHeartbeatResumesCleanly) {
  // Forward compatibility satellite: a checkpoint written BEFORE the
  // heartbeat fields existed (no ts_ms, no worker anywhere) must resume
  // exactly as a fresh one does -- the fields are optional on read.
  const SweepGrid grid = small_grid();
  const ShardSpec spec = ShardPlanner::plan(grid, 2,
                                            ShardMode::kContiguous)[0];
  const std::string path = "shard_merge_test_oldformat.ckpt";
  ShardRunOptions options;
  options.checkpoint_path = path;
  std::string error;
  auto clean = run_shard(spec, options, &error);
  ASSERT_TRUE(clean.has_value()) << error;

  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    text.assign((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  }
  const std::string old_format =
      strip_field(strip_field(text, "ts_ms"), "worker");
  ASSERT_NE(old_format, text);  // the strip actually removed fields
  ASSERT_EQ(old_format.find("ts_ms"), std::string::npos);
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << old_format;
  }

  options.resume = true;
  auto resumed = run_shard(spec, options, &error);
  ASSERT_TRUE(resumed.has_value()) << error;
  EXPECT_EQ(resumed->to_json(), clean->to_json());
  std::remove(path.c_str());
}

// ---- perf sidecar sharding ------------------------------------------------

TEST(PerfSidecarShards, FourShardMergeSumsToSingleProcessCounters) {
  // The sidecar acceptance criterion: a 4-shard split's merged sidecar has
  // counter totals EQUAL to the single-process sidecar's (determinism makes
  // the sum exact), covers every cell exactly once, and round-trips its
  // merge through JSON the way ccd_merge --perf does.
  const SweepGrid grid = small_grid();

  obs::SweepPerf full_perf;
  SweepOptions full_options;
  full_options.threads = 2;
  full_options.perf = &full_perf;
  run_sweep(grid, full_options);
  const obs::PerfSidecar full_sidecar =
      obs::build_perf_sidecar(grid.fingerprint(), 0, 1, full_perf);
  EXPECT_EQ(full_sidecar.cells.size(), grid.num_cells());

  std::vector<obs::PerfSidecar> sidecars;
  for (const ShardSpec& spec : ShardPlanner::plan(grid, 4,
                                                  ShardMode::kStrided)) {
    obs::SweepPerf perf;
    ShardRunOptions options;
    options.sweep.threads = 2;
    options.sweep.perf = &perf;
    std::string error;
    ASSERT_TRUE(run_shard(spec, options, &error).has_value()) << error;
    const obs::PerfSidecar sidecar = obs::build_perf_sidecar(
        spec.grid_fingerprint, spec.shard_index, spec.shard_count, perf);
    std::string parse_error;
    auto round_tripped =
        obs::PerfSidecar::from_json(sidecar.to_json(), &parse_error);
    ASSERT_TRUE(round_tripped.has_value()) << parse_error;
    sidecars.push_back(std::move(*round_tripped));
  }

  std::string error;
  auto merged = obs::merge_perf_sidecars(sidecars, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(merged->grid_fingerprint, grid.fingerprint());
  EXPECT_EQ(merged->runs, full_sidecar.runs);
  EXPECT_EQ(merged->counters, full_sidecar.counters);  // exact, not near
  EXPECT_GT(merged->counters.rounds, 0u);
  ASSERT_EQ(merged->shards.size(), 4u);
  ASSERT_EQ(merged->cells.size(), grid.num_cells());
  for (std::size_t c = 0; c < merged->cells.size(); ++c) {
    EXPECT_EQ(merged->cells[c].cell_index, c);
    EXPECT_EQ(merged->cells[c].runs, grid.seeds_per_cell);
  }
}

// ---- the headline guarantee ----------------------------------------------

TEST(ShardMerge, MultihopGridMergesByteIdenticallyAtSeveralK) {
  // The acceptance criterion, in-process: K-way shard splits of the named
  // multihop grid (432 cells, crash axis included) merge into JSON and CSV
  // byte-identical to the single-process full-grid run.  K values cover an
  // uneven contiguous split, a strided split, and K > 1 thread per shard.
  const SweepGrid grid = *SweepGrid::named("multihop");
  ASSERT_EQ(grid.num_cells(), 432u);
  const auto [full_json, full_csv] = full_report(grid, /*threads=*/2);

  {
    const auto [json, csv] = sharded_report(grid, 5, ShardMode::kContiguous);
    EXPECT_EQ(json, full_json);
    EXPECT_EQ(csv, full_csv);
  }
  {
    const auto [json, csv] = sharded_report(grid, 4, ShardMode::kStrided);
    EXPECT_EQ(json, full_json);
    EXPECT_EQ(csv, full_csv);
  }
}

}  // namespace
}  // namespace ccd::exp
