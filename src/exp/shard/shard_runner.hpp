// Shard worker execution: run exactly one shard's cells under the global
// hash(grid_seed, run_index) seed stream and produce its ShardReport, with
// optional per-cell checkpoint markers for resume-after-crash.
//
// The checkpoint file is append-only JSONL: a header line naming the grid
// fingerprint and shard identity, then one cell-aggregate line per
// COMPLETED cell, written the moment the cell's last seed finishes.  A
// worker killed mid-shard restarts with resume = true, replays the
// completed cells from the file (bit-identical -- samples are serialized
// losslessly in fold order), and runs only the remainder.
#pragma once

#include <optional>
#include <string>

#include "exp/shard/shard_report.hpp"
#include "exp/sweep_runner.hpp"

namespace ccd::exp {

struct ShardRunOptions {
  SweepOptions sweep;           ///< threads / progress / on_record
  std::string checkpoint_path;  ///< empty = no checkpointing
  bool resume = false;          ///< load completed cells from the file first
};

/// Execute the shard and return its report (cells ascending).  nullopt on
/// checkpoint I/O or validation failure (stale fingerprint, malformed
/// lines) with a keyed message in *error; execution itself cannot fail.
std::optional<ShardReport> run_shard(const ShardSpec& shard,
                                     const ShardRunOptions& options = {},
                                     std::string* error = nullptr);

}  // namespace ccd::exp
