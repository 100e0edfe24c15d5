// The engine across process-word boundaries.  The random-spec
// differential corpus draws n <= 64, so every process mask it exercises
// fits one word; here n = 65 (one bit into the second word) and n = 129
// (one bit into the third) run through every kMatrix loss adversary (ECF
// calm and chaotic, probabilistic, unrestricted, plus the loss-free
// channel), on the single-hop clique (kGlobal scope) and on a grid
// (kLocal scope), with no faults, random crashes, and a crash schedule
// whose victims sit on both sides of the first word boundary.  The
// 64-wide and the width-1 path must both reproduce the frozen reference
// digest (fixtures/multiword.inc): byte-identical JSON, CSV and dist
// reports and exactly equal per-run EngineCounters.
#include <gtest/gtest.h>

#include <string>

#include "exp/lane_executor.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"
#include "sweep_digest.hpp"

namespace ccd::exp {
namespace {

using digest::SweepDigest;

struct ChaosDigest {
  const char* chaos;
  SweepDigest digest;
};
constexpr ChaosDigest kReference[] = {
#include "fixtures/multiword.inc"
};

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

TEST(LaneMultiword, BothPathsMatchTheReferencePastOneProcessWord) {
  for (const ChaosDigest& ref : kReference) {
    const ChaosKind chaos = std::string(ref.chaos) == "calm"
                                ? ChaosKind::kCalm
                                : ChaosKind::kChaotic;
    const SweepGrid grid = multiword_grid(chaos);
    ASSERT_FALSE(grid.validate().has_value()) << *grid.validate();

    // Every cell of this grid forms full lane blocks.
    for (std::size_t c = 0; c < grid.num_cells(); ++c) {
      ASSERT_TRUE(LaneExecutor::eligible(grid.spec_for_cell(c), {}))
          << ref.chaos << " cell " << c << ": "
          << grid.spec_for_cell(c).to_json();
    }

    SweepOptions options;
    options.threads = 2;
    EXPECT_EQ(digest::digest_of(grid, run_sweep(grid, options)), ref.digest)
        << ref.chaos << ": 64-wide path diverged";
    EXPECT_EQ(digest::digest_of(grid, digest::run_width1(grid)), ref.digest)
        << ref.chaos << ": width-1 path diverged";
  }
}

}  // namespace
}  // namespace ccd::exp
