// Tail and degenerate-shape coverage for the run paths: cell sizes that
// land exactly on, just under, and just over the 64-lane block width; the
// n = 0 world; schedules that crash EVERY process; and cells where a
// single survivor must still decide.  Each case runs the sweep on the
// 64-wide path and on width-1 blocks and demands the frozen reference
// digest (fixtures/tail.inc): byte-identical reports plus exactly equal
// per-run EngineCounters -- the same contract as the differential test,
// aimed at the boundaries where block partitioning and lane retirement
// logic could plausibly diverge.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"
#include "sweep_digest.hpp"

namespace ccd::exp {
namespace {

using digest::SweepDigest;

struct CaseDigest {
  const char* what;
  SweepDigest digest;
};
constexpr CaseDigest kReference[] = {
#include "fixtures/tail.inc"
};

struct StridedReference {
  std::uint64_t counters;
  std::uint64_t agreement;
};
constexpr StridedReference kStrided =
#include "fixtures/strided_subset.inc"
    ;

void expect_reference(const SweepGrid& grid, unsigned threads,
                      const std::string& what) {
  const CaseDigest* ref = nullptr;
  for (const CaseDigest& c : kReference) {
    if (what == c.what) ref = &c;
  }
  ASSERT_NE(ref, nullptr) << "no reference digest for " << what;
  SweepOptions options;
  options.threads = threads;
  EXPECT_EQ(digest::digest_of(grid, run_sweep(grid, options)), ref->digest)
      << what << ": 64-wide path diverged";
  EXPECT_EQ(digest::digest_of(grid, digest::run_width1(grid)), ref->digest)
      << what << ": width-1 path diverged";
}

SweepGrid base_grid(std::uint32_t seeds_per_cell) {
  SweepGrid grid;
  grid.base.n = 6;
  grid.base.fault = FaultKind::kRandomCrash;
  grid.base.crash_p = 0.05;
  grid.base.max_rounds = 40;
  grid.seeds_per_cell = seeds_per_cell;
  grid.grid_seed = 0x7a11u;
  return grid;
}

TEST(LaneTail, BlockBoundaryCellSizes) {
  // 1 (single-lane block), 63/64 (just under / exactly one full block),
  // 65 (full block + 1-lane tail), 130 (two full blocks + 2-lane tail).
  for (std::uint32_t seeds : {1u, 63u, 64u, 65u, 130u}) {
    SweepGrid grid = base_grid(seeds);
    ASSERT_FALSE(grid.validate().has_value());
    expect_reference(grid, /*threads=*/2,
                     "seeds_per_cell=" + std::to_string(seeds));
  }
}

TEST(LaneTail, TailStraddlesCellsAndAxes) {
  // Two axes x 65 seeds: every cell contributes a full block plus a
  // 1-lane tail, and blocks must never bridge a cell boundary.
  SweepGrid grid = base_grid(65);
  grid.detectors = {DetectorKind::kAC, DetectorKind::kNoCd};
  grid.topologies = {TopologyKind::kSingleHop, TopologyKind::kRing};
  ASSERT_FALSE(grid.validate().has_value());
  expect_reference(grid, /*threads=*/3, "two axes x 65 seeds");
}

TEST(LaneTail, EmptyWorldRunsNoRounds) {
  SweepGrid grid = base_grid(8);
  grid.base.n = 0;
  grid.base.fault = FaultKind::kNone;
  ASSERT_FALSE(grid.validate().has_value());
  expect_reference(grid, /*threads=*/2, "n=0");
}

TEST(LaneTail, AllProcessesCrash) {
  // Every process is scheduled to die -- a mix of both crash points --
  // so lanes reach zero survivors and must retire with the reference's
  // exact counters and (empty) decision set.
  SweepGrid grid = base_grid(65);
  grid.base.fault = FaultKind::kScheduled;
  for (ProcessId p = 0; p < grid.base.n; ++p) {
    grid.base.crash_schedule.push_back(
        {static_cast<Round>(1 + p % 3), p,
         p % 2 == 0 ? CrashPoint::kBeforeSend : CrashPoint::kAfterSend});
  }
  ASSERT_FALSE(grid.validate().has_value());
  expect_reference(grid, /*threads=*/2, "all-crash schedule");
}

TEST(LaneTail, SingleSurvivorDecides) {
  // All but process 0 crash in the first rounds; the lone survivor must
  // still run the full protocol to its decision on both paths.
  SweepGrid grid = base_grid(65);
  grid.base.fault = FaultKind::kScheduled;
  for (ProcessId p = 1; p < grid.base.n; ++p) {
    grid.base.crash_schedule.push_back(
        {static_cast<Round>(p), p, CrashPoint::kBeforeSend});
  }
  ASSERT_FALSE(grid.validate().has_value());
  expect_reference(grid, /*threads=*/2, "single survivor");

  // Same shape on a multihop workload: the survivor's flood trivially
  // covers the surviving subgraph.
  SweepGrid flood = grid;
  flood.base.workload = WorkloadKind::kFlood;
  flood.base.topology = TopologyKind::kLine;
  ASSERT_FALSE(flood.validate().has_value());
  expect_reference(flood, /*threads=*/2, "single survivor flood");
}

TEST(LaneTail, StridedSubsetRunsAsWidthOneBlocks) {
  // run_subset with a stride breaks global-index consecutiveness, so the
  // pool must fall back to 1-run blocks -- and still match the reference
  // run for run.
  SweepGrid grid = base_grid(64);
  std::vector<std::size_t> indices;
  for (std::size_t j = 0; j < grid.num_runs(); j += 2) indices.push_back(j);
  const auto records = run_subset(grid, indices, SweepOptions{});
  ASSERT_EQ(records.size(), indices.size());
  std::string agreement;
  for (std::size_t k = 0; k < records.size(); ++k) {
    EXPECT_EQ(records[k].run_index, indices[k]);
    agreement += records[k].summary.verdict.agreement ? '1' : '0';
  }
  EXPECT_EQ(digest::counters_hash(records), kStrided.counters);
  EXPECT_EQ(digest::fnv1a(agreement), kStrided.agreement);
}

}  // namespace
}  // namespace ccd::exp
