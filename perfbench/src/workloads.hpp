// The benchmark's four workloads and the pipelines that run them.
//
// Every pipeline exists once and takes a Tracer*: null is the untraced
// pass that end-to-end metrics come from, non-null is the traced pass that
// splits the same work into per-layer spans.  The one exception is the
// sweep itself: untraced it is the program's own run_sweep (thread pool,
// lane blocks), traced it is traced_sweep(), which forms the same lane
// blocks outside the program so each layer call can be wrapped in a span.
// Both must render byte-identical reports; main.cpp checks that.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/shard/shard_plan.hpp"
#include "exp/sweep_grid.hpp"
#include "obs/telemetry.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Kind { kSweep, kReport, kFleet };

/// Everything a run of the benchmark is asked to do (the CLI).
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;     ///< shrunken grids for the self-test
  bool corrupt = false;  ///< flip one report byte (hash-gate self-test)
  std::string worker_bin;
  std::string out_dir;
};

/// FNV-1a 64 of the JSON, CSV and dist report bytes.
struct Hashes {
  std::uint64_t json = 0;
  std::uint64_t csv = 0;
  std::uint64_t dist = 0;
  friend bool operator==(const Hashes&, const Hashes&) = default;
};
std::string to_hex(const Hashes& h);

/// The set-up work before the first run: grid build, validate(),
/// fingerprint(), spec expansion, and shard planning / the worker-binary
/// check where the workload has them.
struct Setup {
  Kind kind = Kind::kSweep;
  std::vector<ccd::exp::SweepGrid> grids;
  std::size_t runs = 0;   ///< runs per rep, all grids
  std::size_t cells = 0;  ///< cells per rep, all grids
  std::vector<ccd::exp::ShardSpec> shards;  ///< report only
};
/// nullopt with *error for an unknown workload or a grid that fails
/// validate().
std::optional<Setup> make_setup(const Config& config, std::string* error);

/// Per-layer numbers of one traced rep, keyed by metric name.
using Layers = std::map<std::string, double>;

/// One execution of a workload's measured path.
struct Rep {
  double wall_s = 0.0;
  std::size_t runs = 0;
  std::size_t error_runs = 0;  ///< runs that returned a keyed error
  std::vector<std::uint64_t> cell_ns;  ///< per cell, grid order
  Hashes hashes;
  std::string failure;  ///< non-empty: a check on this rep failed
  Layers layers;        ///< traced reps only
};

/// One grid's report bytes.
struct Rendered {
  std::string json, csv, dist;
};

/// The single-process render the report and fleet workloads must equal.
struct Reference {
  std::vector<Rendered> grids;  ///< one per Setup::grids entry
  Hashes hashes;                ///< over all grids, in order
  ccd::obs::EngineCounters counters;
  Layers layers;  ///< traced reference only
};

/// Single-process, single-thread render of every grid of the setup;
/// traced through traced_sweep() when `tracer` is non-null.
Reference make_reference(const Setup& setup, Tracer* tracer);

/// One rep of the workload.  `reference` is required for report / fleet.
Rep run_rep(const Setup& setup, const Config& config,
            const Reference* reference, Tracer* tracer, std::size_t rep_id);

}  // namespace perfbench
