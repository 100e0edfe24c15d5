// ShardPlanner: deterministically partition a SweepGrid's cells into K
// self-contained shard specs for multi-process / multi-host execution.
//
// A shard spec carries everything a worker needs -- the full grid (so the
// hash(grid_seed, run_index) seed stream is reproduced exactly), the cell
// subset it owns, and the grid fingerprint that makes stale shard files
// unmergeable by construction.  Cells, not runs, are the partition unit:
// every cell's seeds stay together, so per-cell aggregates computed by a
// shard are bit-identical to the same cells inside a full-grid run and the
// merged report needs no cross-shard statistics arithmetic beyond the
// exact Stats/Aggregate merge.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/sweep_grid.hpp"

namespace ccd::exp {

/// How cells map to shards.  kContiguous gives shard i the balanced range
/// [floor(i*N/K), floor((i+1)*N/K)) -- cache-friendly and trivially
/// describable; kStrided gives it {c : c mod K == i} -- load-balancing
/// when cell cost varies systematically along the enumeration order.
/// kExplicit carries the owned cells verbatim: the dispatcher's dynamic
/// batches are specs like any other, so workers, checkpoints and the merge
/// validation need no second code path.
enum class ShardMode : std::uint8_t { kContiguous, kStrided, kExplicit };

const char* to_string(ShardMode m);
std::optional<ShardMode> parse_shard_mode(const std::string& s);

struct ShardSpec {
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  ShardMode mode = ShardMode::kContiguous;
  /// Fingerprint of `grid` at planning time; from_json re-derives the
  /// grid's fingerprint and rejects the file on mismatch (a hand-edited or
  /// stale shard must not run, let alone merge).
  std::uint64_t grid_fingerprint = 0;
  SweepGrid grid;
  /// kExplicit only: the owned cells, strictly ascending.  For the derived
  /// modes this stays empty and ownership is pure index arithmetic.  For
  /// explicit specs shard_index is a batch/assignment id (unique per spec
  /// the dispatcher hands out) and shard_count is not meaningful.
  std::vector<std::size_t> cells;

  /// The cells this shard owns, ascending.  May be empty (K > num_cells):
  /// an empty shard runs nothing and contributes nothing at merge time,
  /// which is still an exact merge.
  std::vector<std::size_t> cell_indices() const;
  bool owns_cell(std::size_t cell) const;

  /// Self-contained shard JSON ("ccd-shard-spec-v1").
  std::string to_json() const;
  static std::optional<ShardSpec> from_json(const std::string& json,
                                            std::string* error = nullptr);
};

/// Member-by-member reader for the shard identity a shard spec and a shard
/// report share: shard_index, shard_count, mode, grid_fingerprint, grid and
/// the explicit cell list.  A report's header is read in the same pass as
/// its cells instead of being re-wrapped into a spec and parsed again.
class ShardSpecReader {
 public:
  /// `cells_key` names the explicit cell list: "cells" in a spec,
  /// "cell_list" in a report (whose "cells" holds the aggregates).
  explicit ShardSpecReader(std::string_view cells_key)
      : cells_key_(cells_key) {}

  /// Reads member `key` into the spec if it is a shard identity member and
  /// sets *handled accordingly; false on a (keyed) error.
  bool read_member(jsonu::Reader& r, std::string_view key, bool* handled);
  /// The embedded grid once its member has been read, else nullptr.
  const SweepGrid* grid() const {
    return (seen_ & kGridBit) ? &spec_.grid : nullptr;
  }
  /// How many cells the identity read so far owns (0 when unknown): a
  /// capacity hint for the cells that follow it.
  std::size_t cell_count_hint() const;
  /// After the enclosing object closed: every required member present,
  /// the fingerprint matches the embedded grid (a stale or hand-edited
  /// spec must not run, let alone merge), explicit cells in range and
  /// strictly ascending.
  bool finish(jsonu::Reader& r, ShardSpec* out);

 private:
  static constexpr std::uint64_t kGridBit = 1u << 4;
  std::string_view cells_key_;
  ShardSpec spec_;
  std::uint64_t seen_ = 0;
};

class ShardPlanner {
 public:
  /// Partition `grid` into `count` shards (count >= 1) covering every cell
  /// exactly once.  Deterministic: same (grid, count, mode) -> same specs.
  static std::vector<ShardSpec> plan(const SweepGrid& grid, std::size_t count,
                                     ShardMode mode = ShardMode::kContiguous);

  /// One explicit-cell spec owning exactly `cells` (must be strictly
  /// ascending and in range).  `batch_id` lands in shard_index so every
  /// assignment the dispatcher writes is distinguishable in checkpoints
  /// and error messages.
  static ShardSpec plan_cells(const SweepGrid& grid,
                              std::vector<std::size_t> cells,
                              std::size_t batch_id);
};

/// 16-hex-digit rendering used for fingerprints in shard JSON (readable in
/// error messages, greppable across shard files).
std::string fingerprint_to_hex(std::uint64_t fp);
std::optional<std::uint64_t> fingerprint_from_hex(const std::string& s);

}  // namespace ccd::exp
