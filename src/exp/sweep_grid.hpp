// SweepGrid: a declarative cross-product of scenario axes.
//
// A grid is a base ScenarioSpec plus one vector per sweepable axis; an
// empty axis means "keep the base value".  Cells are enumerated in a fixed
// mixed-radix order, each cell is run `seeds_per_cell` times, and every
// run's seed derives deterministically from (grid_seed, run_index) -- so a
// grid is a pure function from index to execution, independent of how the
// runs are scheduled across threads.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/scenario_spec.hpp"

namespace ccd::exp {

struct SweepGrid {
  /// Non-axis fields (init kind, chaos, probabilities, max_rounds) are
  /// taken from here for every cell.
  ScenarioSpec base;

  std::vector<AlgKind> algs;
  std::vector<DetectorKind> detectors;
  std::vector<PolicyKind> policies;
  std::vector<CmKind> cms;
  std::vector<LossKind> losses;
  std::vector<FaultKind> faults;
  std::vector<std::uint32_t> ns;
  std::vector<std::uint64_t> value_spaces;
  std::vector<Round> csts;
  std::vector<TopologyKind> topologies;
  /// RGG density axis; inert for non-rgg topology cells (the cells are
  /// still enumerated, so keep this axis short unless sweeping rgg only).
  std::vector<double> densities;
  std::vector<WorkloadKind> workloads;
  /// Named crash-schedule generators (see crash_schedule_names()), applied
  /// to ScenarioSpec::crash_schedule_name; only cells whose fault is
  /// `scheduled` act on it (inert otherwise, like densities for non-rgg).
  std::vector<std::string> crash_schedules;

  std::uint32_t seeds_per_cell = 1;
  std::uint64_t grid_seed = 1;

  std::size_t num_cells() const;
  std::size_t num_runs() const { return num_cells() * seeds_per_cell; }

  /// The fully materialized spec for one run (run_index < num_runs()).
  ScenarioSpec spec_for_run(std::size_t run_index) const;

  /// The spec for a cell with the seed left at 0 (the cell identity).
  ScenarioSpec spec_for_cell(std::size_t cell_index) const;

  std::size_t cell_of_run(std::size_t run_index) const {
    return run_index / seeds_per_cell;
  }

  /// Deterministic per-run seed: hash(grid_seed, run_index).
  std::uint64_t seed_for_run(std::size_t run_index) const;

  /// Structural sanity: nullopt if the grid is well-formed, else a
  /// human-readable reason.  Catches the silent footguns: a `scheduled`
  /// fault cell with no schedule to run, and unknown crash-schedule
  /// generator names.  (Consensus x non-singlehop topology, rejected here
  /// before the RoundEngine unification, is now a first-class cell.)
  std::optional<std::string> validate() const;

  /// Built-in grids: "smoke" (fast sanity), "default" (the broad
  /// alg x detector x cm x loss robustness product, 150 cells),
  /// "policies" (detector-behaviour ablation), "crash" (failure sweep),
  /// "multihop" (workload x topology x density x loss x n over the
  /// capture-channel engine), "mhloss" (consensus with loss/cm axes over
  /// non-clique topologies -- the unified-engine composition).
  static std::optional<SweepGrid> named(const std::string& name);
  static std::vector<std::string> grid_names();

  /// Canonical self-describing JSON: the base spec plus every axis (empty
  /// axes included), seeds_per_cell and grid_seed, in a fixed key order.
  /// from_json inverts it exactly; shard specs and shard reports embed this
  /// so a shard file is runnable and mergeable on its own.
  std::string to_json() const;
  static std::optional<SweepGrid> from_json(const std::string& json,
                                            std::string* error = nullptr);
  /// The grid object at `r`'s position (a shard spec's or report's
  /// "grid" member); errors are keyed on `r`.
  static bool read_json(jsonu::Reader& r, SweepGrid* out);

  /// FNV-1a over the canonical JSON: the shard-compatibility fingerprint.
  /// Two shard artifacts recombine only if their fingerprints agree --
  /// any change to an axis, the base spec, the seed discipline or the
  /// serialization itself makes stale shards unmergeable by construction.
  std::uint64_t fingerprint() const;

  friend bool operator==(const SweepGrid&, const SweepGrid&) = default;
};

}  // namespace ccd::exp
