// Trace capture (--rerun-cell): a report cell re-executes into fully
// instrumented runs -- same results as the sweep (determinism), now with
// complete ExecutionLogs.
#include "exp/trace_capture.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/sweep_runner.hpp"

namespace ccd::exp {
namespace {

TEST(TraceCapture, RerunReproducesTheSweepRunsWithFullLogs) {
  auto grid = SweepGrid::named("smoke");
  ASSERT_TRUE(grid.has_value());
  const std::size_t cell = 2;

  const std::vector<TracedRun> traced = rerun_cell(*grid, cell);
  ASSERT_EQ(traced.size(), grid->seeds_per_cell);

  for (std::uint32_t s = 0; s < grid->seeds_per_cell; ++s) {
    const std::size_t run_index = cell * grid->seeds_per_cell + s;
    // The sweep's record for the same run index (no recording, like a
    // real sweep)...
    const RunRecord record = run_one(*grid, run_index);
    const TracedRun& t = traced[s];
    EXPECT_EQ(t.run_index, run_index);
    EXPECT_EQ(t.spec, record.spec);
    // ...decides identically: trace capture re-executes THE run, it does
    // not perturb it.
    EXPECT_EQ(t.summary.result.rounds_executed,
              record.summary.result.rounds_executed);
    EXPECT_EQ(t.summary.verdict.solved(), record.summary.verdict.solved());
    EXPECT_EQ(t.summary.verdict.last_decision_round,
              record.summary.verdict.last_decision_round);
    // And carries the full instrumentation.
    ASSERT_TRUE(t.log.has_value());
    EXPECT_TRUE(t.log->views_recorded());
    EXPECT_EQ(t.log->num_rounds(), t.summary.result.rounds_executed);
  }
}

TEST(TraceCapture, MultihopCellsCaptureTheEngineLog) {
  auto grid = SweepGrid::named("multihop");
  ASSERT_TRUE(grid.has_value());
  // Cell 0: flood on a line, failure-free (the innermost digits of the
  // multihop grid enumeration).
  const std::vector<TracedRun> traced = rerun_cell(*grid, 0);
  ASSERT_FALSE(traced.empty());
  const TracedRun& t = traced.front();
  EXPECT_EQ(t.spec.workload, WorkloadKind::kFlood);
  EXPECT_TRUE(t.mh.ran);
  ASSERT_TRUE(t.log.has_value());
  EXPECT_TRUE(t.log->views_recorded());
  EXPECT_EQ(t.log->num_rounds(), t.mh.rounds_executed);
  EXPECT_EQ(t.log->num_processes(), t.spec.n);
}

TEST(TraceCapture, DumpIsSelfDescribing) {
  auto grid = SweepGrid::named("smoke");
  ASSERT_TRUE(grid.has_value());
  const auto traced = rerun_cell(*grid, 0);
  const std::string json = traced_runs_to_json(*grid, 0, traced);
  EXPECT_NE(json.find("\"format\":\"ccd-cell-trace-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"cell\":0"), std::string::npos);
  EXPECT_NE(json.find("\"rounds\":["), std::string::npos);
  EXPECT_NE(json.find("\"views\":["), std::string::npos);
  EXPECT_NE(json.find("\"decisions\":["), std::string::npos);
  // One run object per seed.
  std::size_t runs = 0, pos = 0;
  while ((pos = json.find("\"run_index\":", pos)) != std::string::npos) {
    ++runs;
    pos += 1;
  }
  EXPECT_EQ(runs, grid->seeds_per_cell);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(TraceCapture, TraceBytesArePinned) {
  // FNV-1a of the full --rerun-cell dump (every round, view, decision and
  // crash of every run in the cell), captured from the retired per-run
  // RoundEngine (ccd at commit 1c47934).  One cell per recording shape:
  // single-hop consensus (kGlobal), consensus after scheduled and random
  // crashes, flood over the capture channel with random crashes (kLocal:
  // dead radios read null advice), mis-then-consensus with a phase-2 log,
  // and consensus over a lossy ring (kMatrix x kLocal).
  struct Pin {
    const char* grid;
    std::size_t cell;
    std::uint64_t hash;
  };
  constexpr Pin kPins[] = {
      {"smoke", 0, 0x9966c86bcfe2c26aull},
      {"crash", 8, 0x4956c59001ed29eaull},
      {"crash", 4, 0xc6e12c05fd1da4d2ull},
      {"multihop", 84, 0xa51a38fdb24d7287ull},
      {"multihop", 327, 0xa1c35c3bd68a2230ull},
      {"mhloss", 20, 0x028e94649ea7923eull},
  };
  for (const Pin& pin : kPins) {
    auto grid = SweepGrid::named(pin.grid);
    ASSERT_TRUE(grid.has_value()) << pin.grid;
    const std::vector<TracedRun> traced = rerun_cell(*grid, pin.cell);
    EXPECT_EQ(fnv1a(traced_runs_to_json(*grid, pin.cell, traced)), pin.hash)
        << pin.grid << " cell " << pin.cell << " trace bytes drifted";
  }
  // The mis-then-consensus pin really covers a phase-2 log.
  auto multihop = SweepGrid::named("multihop");
  bool phase2 = false;
  for (const TracedRun& t : rerun_cell(*multihop, 327)) {
    phase2 = phase2 || t.phase2_log.has_value();
  }
  EXPECT_TRUE(phase2);
}

}  // namespace
}  // namespace ccd::exp
