// Lanes on vs lanes off across process-word boundaries.  The random-spec
// differential corpus draws n <= 64, so every process mask it exercises
// fits one word; here n = 65 (one bit into the second word) and n = 129
// (one bit into the third) run through every kMatrix loss adversary (ECF
// calm and chaotic, probabilistic, unrestricted, plus the loss-free
// channel), on the single-hop clique (kGlobal scope) and on a grid
// (kLocal scope), with no faults, random crashes, and a crash schedule
// whose victims sit on both sides of the first word boundary.  The lane
// and scalar sweeps must produce byte-identical JSON, CSV and dist
// reports and exactly equal per-run EngineCounters.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/lane_executor.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"

namespace ccd::exp {
namespace {

struct SweepResult {
  std::string json;
  std::string csv;
  std::string dist;
  std::vector<obs::EngineCounters> counters;
};

SweepResult run(const SweepGrid& grid, bool lanes) {
  SweepOptions options;
  options.threads = 2;
  options.lanes = lanes;
  const std::vector<RunRecord> records = run_sweep(grid, options);
  SweepResult result;
  const auto cells = aggregate(grid, records);
  result.json = aggregates_to_json(grid, cells);
  result.csv = aggregates_to_csv(cells);
  result.dist = cells_to_dist_json(grid, cells);
  for (const RunRecord& record : records) {
    result.counters.push_back(record.perf.engine);
  }
  return result;
}

SweepGrid multiword_grid(ChaosKind chaos) {
  SweepGrid grid;
  grid.base.chaos = chaos;
  grid.base.crash_p = 0.05;
  grid.base.max_rounds = 40;
  grid.base.crash_schedule = {
      {2, 63, CrashPoint::kAfterSend},
      {3, 64, CrashPoint::kBeforeSend},
      {4, 0, CrashPoint::kAfterSend},
      {5, 1, CrashPoint::kBeforeSend},
  };
  grid.ns = {65, 129};
  grid.losses = {LossKind::kNoLoss, LossKind::kEcf, LossKind::kProbabilistic,
                 LossKind::kUnrestricted};
  grid.faults = {FaultKind::kNone, FaultKind::kRandomCrash,
                 FaultKind::kScheduled};
  grid.topologies = {TopologyKind::kSingleHop, TopologyKind::kGrid};
  grid.cms = {CmKind::kWakeup, CmKind::kBackoff};
  grid.seeds_per_cell = 3;
  grid.grid_seed = 0x3a5d0u;
  return grid;
}

TEST(LaneMultiword, LanesOnAndOffAgreePastOneProcessWord) {
  for (ChaosKind chaos : {ChaosKind::kCalm, ChaosKind::kChaotic}) {
    const SweepGrid grid = multiword_grid(chaos);
    ASSERT_FALSE(grid.validate().has_value()) << *grid.validate();
    const char* what = chaos == ChaosKind::kCalm ? "calm" : "chaotic";

    // Every cell of this grid takes the lane path when lanes are on.
    for (std::size_t c = 0; c < grid.num_cells(); ++c) {
      ASSERT_TRUE(LaneExecutor::eligible(grid.spec_for_cell(c), {}))
          << what << " cell " << c << ": " << grid.spec_for_cell(c).to_json();
    }

    const SweepResult lane = run(grid, /*lanes=*/true);
    const SweepResult scalar = run(grid, /*lanes=*/false);
    EXPECT_EQ(lane.json, scalar.json) << what << ": JSON diverged";
    EXPECT_EQ(lane.csv, scalar.csv) << what << ": CSV diverged";
    EXPECT_EQ(lane.dist, scalar.dist) << what << ": dist diverged";
    ASSERT_EQ(lane.counters.size(), scalar.counters.size()) << what;
    for (std::size_t r = 0; r < lane.counters.size(); ++r) {
      ASSERT_EQ(lane.counters[r], scalar.counters[r])
          << what << ": counters diverged at run " << r << " ("
          << grid.spec_for_run(r).to_json() << ")";
    }
  }
}

}  // namespace
}  // namespace ccd::exp
