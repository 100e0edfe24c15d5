// Engine differential property test: the LaneEngine's acceptance gate.
// A seeded random-ScenarioSpec generator draws specs across every axis the
// engine executes (topology x workload x channel x scope x fault x CM/CD x
// loss x policy x chaos), builds a single-cell sweep around each, and runs
// it on both run paths -- 64-wide lane blocks (run_sweep) and width-1
// blocks (run_one per index).  Each must reproduce, exactly, the digest the
// retired per-run RoundEngine produced for the same sweep
// (fixtures/differential_corpus.inc, see sweep_digest.hpp):
//
//   * the JSON, CSV and dist reports are byte-identical, and
//   * every run's EngineCounters are exactly equal
//
// -- i.e. the engine is not "statistically equivalent" to the reference,
// it is the SAME execution.  Any divergence in RNG stream discipline,
// component call order, crash-point semantics, delivery multiset order,
// termination accounting or counter increment sites shows up here as a
// spec JSON the failure message prints verbatim for replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

#include "exp/lane_executor.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"
#include "sweep_digest.hpp"
#include "util/rng.hpp"

namespace ccd::exp {
namespace {

template <typename E>
E pick(Rng& rng, std::initializer_list<E> choices) {
  return *(choices.begin() + rng.below(choices.size()));
}

/// Draw a random but valid spec.  Axis weights keep the sweep broad while
/// bounding runtime: small n dominates, the occasional 33/64 exercises
/// multi-word process masks.
ScenarioSpec random_spec(Rng& rng) {
  ScenarioSpec spec;
  spec.workload =
      pick(rng, {WorkloadKind::kConsensus, WorkloadKind::kConsensus,
                 WorkloadKind::kConsensus, WorkloadKind::kFlood,
                 WorkloadKind::kMis, WorkloadKind::kMisThenConsensus});
  if (spec.workload == WorkloadKind::kConsensus) {
    spec.topology =
        pick(rng, {TopologyKind::kSingleHop, TopologyKind::kSingleHop,
                   TopologyKind::kSingleHop, TopologyKind::kLine,
                   TopologyKind::kRing, TopologyKind::kGrid,
                   TopologyKind::kRandomGeometric});
  } else {
    spec.topology = pick(rng, {TopologyKind::kLine, TopologyKind::kRing,
                               TopologyKind::kGrid, TopologyKind::kGrid,
                               TopologyKind::kRandomGeometric});
  }
  spec.n = pick(rng, {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 12u, 16u, 33u,
                      64u});
  spec.alg = pick(rng, {AlgKind::kAlg1, AlgKind::kAlg2, AlgKind::kAlg3,
                        AlgKind::kAlg4, AlgKind::kNaive});
  spec.detector =
      pick(rng, {DetectorKind::kAC, DetectorKind::kMajAC,
                 DetectorKind::kHalfAC, DetectorKind::kZeroAC,
                 DetectorKind::kOAC, DetectorKind::kMajOAC,
                 DetectorKind::kHalfOAC, DetectorKind::kZeroOAC,
                 DetectorKind::kNoCd, DetectorKind::kNoAcc});
  spec.policy =
      pick(rng, {PolicyKind::kTruthful, PolicyKind::kPreferNull,
                 PolicyKind::kPreferCollision, PolicyKind::kSpurious,
                 PolicyKind::kFlakyMajority, PolicyKind::kRandomLegal});
  spec.cm = pick(rng, {CmKind::kNoCm, CmKind::kWakeup, CmKind::kLeader,
                       CmKind::kBackoff});
  spec.loss = pick(rng, {LossKind::kNoLoss, LossKind::kEcf,
                         LossKind::kProbabilistic, LossKind::kUnrestricted});
  spec.fault = pick(rng, {FaultKind::kNone, FaultKind::kRandomCrash,
                          FaultKind::kRandomCrash, FaultKind::kScheduled});
  if (spec.fault == FaultKind::kScheduled) {
    // Both crash points in one deterministic schedule; process ids are
    // reduced mod n at factory time by the named generators, but an
    // explicit list must stay in range itself.
    spec.crash_schedule = {
        {2, static_cast<ProcessId>(rng.below(spec.n)),
         CrashPoint::kAfterSend},
        {4, static_cast<ProcessId>(rng.below(spec.n)),
         CrashPoint::kBeforeSend},
    };
  }
  spec.init = pick(rng, {InitKind::kRandom, InitKind::kSplit,
                         InitKind::kAllSame});
  spec.chaos = pick(rng, {ChaosKind::kCalm, ChaosKind::kChaotic});
  spec.num_values = pick(rng, {2ull, 4ull, 16ull, 32ull});
  spec.cst_target = static_cast<Round>(1 + rng.below(10));
  spec.p_deliver = 0.3 + 0.1 * static_cast<double>(rng.below(8));
  spec.spurious_p = 0.1 * static_cast<double>(rng.below(9));
  spec.crash_p = 0.02 + 0.02 * static_cast<double>(rng.below(5));
  // Cap never-deciding cells (NoCD / naive / unrestricted) well below the
  // derived default budget; equivalence is just as observable at 60 rounds.
  spec.max_rounds = static_cast<Round>(30 + rng.below(31));
  return spec;
}

using digest::SweepDigest;

constexpr SweepDigest kCorpus[] = {
#include "fixtures/differential_corpus.inc"
};

struct NamedDigest {
  const char* grid;
  SweepDigest digest;
};
constexpr NamedDigest kNamedGrids[] = {
#include "fixtures/named_grids.inc"
};

SweepDigest run_wide(const SweepGrid& grid, unsigned threads) {
  SweepOptions options;
  options.threads = threads;
  return digest::digest_of(grid, run_sweep(grid, options));
}

SweepDigest run_width1(const SweepGrid& grid) {
  return digest::digest_of(grid, digest::run_width1(grid));
}

TEST(LaneDifferential, RandomSpecsMatchTheFrozenReference) {
  constexpr int kSpecs = 220;
  static_assert(std::size(kCorpus) == kSpecs);
  Rng rng(0x1a9e5u);
  for (int i = 0; i < kSpecs; ++i) {
    SweepGrid grid;
    grid.base = random_spec(rng);
    // Mostly small cells; occasionally straddle the 64-lane block boundary.
    const std::uint32_t seeds =
        pick(rng, {1u, 2u, 3u, 4u, 5u, 6u, 8u, 8u, 13u, 65u});
    grid.seeds_per_cell = seeds;
    grid.grid_seed = rng();
    ASSERT_FALSE(grid.validate().has_value())
        << *grid.validate() << "\nspec: " << grid.base.to_json();
    // Alternate single- and multi-threaded pools: lane blocks must be
    // byte-stable under work stealing.
    const unsigned threads = (i % 3 == 0) ? 3 : 1;
    const SweepDigest& want = kCorpus[i];
    ASSERT_EQ(run_wide(grid, threads), want)
        << "64-wide path diverged from the reference for spec " << i
        << ":\n" << grid.base.to_json() << "\nseeds_per_cell=" << seeds
        << " grid_seed=" << grid.grid_seed
        << "\nwant " << digest::to_string(want);
    ASSERT_EQ(run_width1(grid), want)
        << "width-1 path diverged from the reference for spec " << i
        << ":\n" << grid.base.to_json() << "\nseeds_per_cell=" << seeds
        << " grid_seed=" << grid.grid_seed;
  }
}

TEST(LaneDifferential, NamedGridsMatchTheFrozenReference) {
  // The shipped grids end to end -- including the 432-cell multihop grid
  // and the loss-on-topology composition -- through a real multi-threaded
  // pool and through width-1 blocks.
  for (const NamedDigest& named : kNamedGrids) {
    auto grid = SweepGrid::named(named.grid);
    ASSERT_TRUE(grid.has_value()) << named.grid;
    EXPECT_EQ(run_wide(*grid, 4), named.digest) << named.grid << " 64-wide";
    EXPECT_EQ(run_width1(*grid), named.digest) << named.grid << " width-1";
  }
}

TEST(LaneDifferential, EligibilityKeepsDivergentShapesAtWidthOne) {
  RunScenarioOptions plain;
  ScenarioSpec spec;  // defaults: consensus / singlehop / n=8
  EXPECT_TRUE(LaneExecutor::eligible(spec, plain));

  ScenarioSpec rgg = spec;
  rgg.topology = TopologyKind::kRandomGeometric;
  rgg.workload = WorkloadKind::kFlood;
  EXPECT_FALSE(LaneExecutor::eligible(rgg, plain));

  ScenarioSpec empty = spec;
  empty.n = 0;
  EXPECT_FALSE(LaneExecutor::eligible(empty, plain));

  ScenarioSpec sync = spec;
  sync.workload = WorkloadKind::kRoundSync;
  EXPECT_FALSE(LaneExecutor::eligible(sync, plain));

  RunScenarioOptions capture;
  capture.capture_log = true;
  EXPECT_FALSE(LaneExecutor::eligible(spec, capture));
}

}  // namespace
}  // namespace ccd::exp
