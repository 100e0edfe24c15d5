// LaneExecutor: the run path of every round-structured workload.  A block
// of 1..kLaneWidth specs that differ only in seed executes through one
// LaneEngine, the seeds in lockstep; WorldFactory::run_scenario(spec) is
// the width-1 block {spec}.
//
// Per workload, one path each:
//
//   consensus            kMatrix x kGlobal on the single-hop clique,
//                        kMatrix x kLocal over any other graph; verdicts
//                        through the one consensus epilogue
//                        (consensus::summarize_lane)
//   flood, mis           kCapture x kLocal budget loops: flood coverage /
//                        MIS settlement judged per round over survivors,
//                        gated on the fault adversary's quiesce round
//   mis-then-consensus   the MIS block, then phase-2 consensus among each
//                        lane's surviving heads as its own width-1
//                        consensus block (the head count k -- and with it
//                        n -- is seed-dependent)
//
// run_block(specs)[k] depends only on specs[k]: each lane builds its own
// components from the same factories and hash_mix(seed ^ salt) streams, so
// a spec's outcome is the same in a 64-wide block as alone.  SweepRunner
// relies on this to keep reports, perf-sidecar counter totals, and golden
// hashes identical however runs are blocked.
//
// Width 1 only (eligible() is false): random-geometric topologies (the
// graph itself is seed-dependent, so lanes would not share adjacency),
// n = 0, and trace capture.  Round-sync sits below the round abstraction
// and never reaches a block.  Callers (SweepRunner) form wider blocks only
// from eligible specs within one grid cell; the S mod 64 remainder of a
// cell simply arrives as a smaller block.
#pragma once

#include <vector>

#include "exp/scenario_spec.hpp"
#include "exp/world_factory.hpp"

namespace ccd::exp {

class LaneExecutor {
 public:
  /// May this spec share a block with other seeds of its cell under these
  /// options?  (Every round-structured spec runs as a width-1 block.)
  static bool eligible(const ScenarioSpec& spec,
                       const RunScenarioOptions& options = {});

  /// Execute a block of 1..kLaneWidth specs (identical up to seed, and all
  /// eligible when more than one; never round-sync) in lockstep; outcome k
  /// corresponds to specs[k].
  static std::vector<ScenarioOutcome> run_block(
      const std::vector<ScenarioSpec>& specs,
      const RunScenarioOptions& options = {});
};

}  // namespace ccd::exp
