// Shard reports: the partial result a shard worker emits, and the merge
// that recombines K of them into the exact full-grid aggregates.
//
// A report serializes each owned cell's CellAggregate with its statistics
// in full -- sparse histogram bins for integer-valued metrics, raw sample
// buffers (lossless shortest-round-trip doubles) for the real-valued
// opt-ins -- not as pre-rendered summaries.  ccd_merge rebuilds every
// Stats exactly (bin addition / add() replay) and hands the merged cells
// to the same aggregates_to_json / aggregates_to_csv renderers ccd_sweep
// uses.  The merged report is byte-identical to a single-process
// full-grid run; a ctest target and a CI smoke step both enforce this.
//
// Format: "ccd-shard-report-v2" encodes each statistic as
// {"h":[key,count,...]} or {"raw":[...]} (util/stats.hpp).  The v1 format
// (bare sample arrays) has had no producer since v2 and is not read.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/shard/shard_plan.hpp"

namespace ccd::exp {

struct ShardReport {
  /// Identity: which shard of which plan produced this, over which grid.
  ShardSpec shard;
  /// Aggregates for exactly the cells the shard owns, ascending cell index.
  std::vector<CellAggregate> cells;

  /// "ccd-shard-report-v2" JSON.
  std::string to_json() const;
  /// One pass over the text; every failure is a keyed error.
  static std::optional<ShardReport> from_json(const std::string& json,
                                              std::string* error = nullptr);
};

/// One cell's aggregate as a flat JSON object (counters + per-statistic
/// histogram/raw encodings).  Exposed for the checkpoint file, which is a
/// JSONL stream of these.
std::string cell_aggregate_to_json(const CellAggregate& cell);

/// Heartbeat fields a checkpoint marker carries next to its aggregate.
struct CellHeartbeat {
  std::uint64_t ts_ms = 0;              ///< 0 when the marker has none
  std::optional<std::uint32_t> worker;  ///< completing worker thread
};

/// Reads one cell aggregate object at `r`'s position into *cell, which
/// must be default-constructed.  The spec member is NOT serialized (cell
/// identity is derived from the grid), so `grid` supplies it.  With
/// `heartbeat` non-null a checkpoint marker's ts_ms/worker members are
/// accepted and land there; otherwise they are unknown keys like any
/// other.  Unknown, duplicate and missing keys are keyed errors on `r`.
bool read_cell_aggregate(jsonu::Reader& r, const SweepGrid& grid,
                         CellAggregate* cell, CellHeartbeat* heartbeat);

/// read_cell_aggregate over a whole document.
std::optional<CellAggregate> cell_aggregate_from_json(const SweepGrid& grid,
                                                      const std::string& json,
                                                      std::string* error);

struct MergeResult {
  SweepGrid grid;
  std::vector<CellAggregate> cells;  ///< all cells, ascending, exact
};

/// Validate and merge shard reports into full-grid aggregates.  Every
/// failure is a keyed, human-debuggable error: fingerprint mismatches name
/// both prints and the offending shard, coverage failures list the missing
/// cell ranges, duplicate cells name both owners.  Reports may arrive in
/// any order; shards from DIFFERENT plans of the same grid (e.g. a 3-way
/// and a 4-way split) merge fine as long as the union covers every cell
/// exactly once.
std::optional<MergeResult> merge_shard_reports(
    const std::vector<ShardReport>& reports, std::string* error = nullptr);

}  // namespace ccd::exp
