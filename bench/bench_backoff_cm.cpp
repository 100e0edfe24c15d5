// E11 -- Section 1.3's contention manager discussion: a concrete
// randomized backoff protocol realizes the wake-up service.  Stabilization
// time is probabilistic; safety of the consensus layer never depends on it
// (the safety/liveness separation).
//
// The end-to-end consensus leg is ported onto the exp/ orchestration
// engine (an alg x detector grid over the backoff CM with chaotic
// capture-effect physics, reduced by the Aggregator).  The lock-in scaling
// probe stays a direct BackoffCm measurement on purpose: it observes
// cm.stabilized_at() on a bare alive-vector, BELOW the World layer the
// engine orchestrates -- there is no run to sweep.
#include <iostream>
#include <utility>

#include "cm/backoff_cm.hpp"
#include "exp/aggregator.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace ccd {
namespace {

using namespace ccd::exp;

void stabilization_scaling() {
  std::cout << "--- backoff lock-in time vs n (rounds until exactly one "
               "process stays active) ---\n";
  AsciiTable table({"n", "median", "p90", "max", "seeds"});
  for (std::size_t n : {2, 4, 8, 16, 32, 64, 128}) {
    Stats lock;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      BackoffCm cm(BackoffCm::Options{.seed = seed});
      ProcessSet alive(n, true);
      std::vector<CmAdvice> advice;
      for (Round r = 1; r <= 5000; ++r) {
        cm.advise(r, alive, advice);
        if (cm.stabilized_at() != kNeverRound) break;
      }
      if (cm.stabilized_at() != kNeverRound) {
        lock.add(static_cast<double>(cm.stabilized_at()));
      }
    }
    table.add(n, lock.median(), lock.percentile(90), lock.max(),
              lock.count());
  }
  table.print(std::cout);
}

void consensus_over_backoff() {
  std::cout << "\n--- consensus over the backoff manager + capture-effect "
               "radio (end-to-end realistic stack) ---\n";
  // One single-cell grid per theorem-matched pairing (Algorithm 1 on
  // maj-<>AC, Algorithm 2 on 0-<>AC), both over the backoff CM, a
  // flaky-majority detector policy and the chaotic (capture-effect)
  // pre-CST environment -- the engine's spelling of the old hand-rolled
  // wiring.  Each cell is one table row.
  AsciiTable table({"algorithm", "detector", "|V|", "seeds solved",
                    "safety ok", "decision round p90"});
  const std::pair<AlgKind, DetectorKind> pairings[] = {
      {AlgKind::kAlg1, DetectorKind::kMajOAC},
      {AlgKind::kAlg2, DetectorKind::kZeroOAC},
  };
  for (const auto& [alg, detector] : pairings) {
    SweepGrid grid;
    grid.base.alg = alg;
    grid.base.detector = detector;
    grid.base.cm = CmKind::kBackoff;
    grid.base.policy = PolicyKind::kFlakyMajority;
    grid.base.spurious_p = 0.9;
    grid.base.loss = LossKind::kEcf;
    grid.base.chaos = ChaosKind::kChaotic;
    grid.base.n = 12;
    grid.base.num_values = 256;
    grid.base.cst_target = 30;
    grid.base.max_rounds = 3000;
    grid.seeds_per_cell = 25;
    grid.grid_seed = 11;

    SweepOptions options;
    options.threads = 0;  // all cores
    const auto cells = aggregate(grid, run_sweep(grid, options));
    const CellAggregate& cell = cells.front();
    const bool safety =
        cell.agreement_failures == 0 && cell.validity_failures == 0;
    table.add(to_string(cell.spec.alg), to_string(cell.spec.detector),
              cell.spec.num_values,
              std::to_string(cell.runs - cell.termination_failures) + "/" +
                  std::to_string(cell.runs),
              safety,
              cell.decision_round.empty()
                  ? -1.0
                  : cell.decision_round.percentile(90));
  }
  table.print(std::cout);
  std::cout << "\nRESULT: liveness becomes probabilistic with a real "
               "backoff manager; safety is untouched -- exactly the "
               "separation Section 1.3 argues for.\n";
}

}  // namespace
}  // namespace ccd

int main() {
  std::cout << "=== E11: realizing the wake-up service with randomized "
               "backoff (Section 1.3) ===\n\n";
  ccd::stabilization_scaling();
  ccd::consensus_over_backoff();
  return 0;
}
