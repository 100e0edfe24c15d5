#include "exp/shard/shard_report.hpp"

#include <algorithm>
#include <iterator>

#include "util/json.hpp"

namespace ccd::exp {

namespace {

// Field tables keep the serializer and parser in lockstep: a counter or
// statistic added to CellAggregate only needs one entry here to flow
// through shard reports, checkpoints and the merge.
struct CounterField {
  const char* key;
  std::size_t CellAggregate::* member;
};
constexpr CounterField kCounters[] = {
    {"runs", &CellAggregate::runs},
    {"solved", &CellAggregate::solved},
    {"agreement_failures", &CellAggregate::agreement_failures},
    {"validity_failures", &CellAggregate::validity_failures},
    {"termination_failures", &CellAggregate::termination_failures},
    {"crashed_processes", &CellAggregate::crashed_processes},
    {"mh_runs", &CellAggregate::mh_runs},
    {"disconnected", &CellAggregate::disconnected},
    {"full_coverage", &CellAggregate::full_coverage},
    {"mis_violations", &CellAggregate::mis_violations},
    {"mh_crashes_applied", &CellAggregate::mh_crashes_applied},
    {"phase2_skipped", &CellAggregate::phase2_skipped},
    {"sync_runs", &CellAggregate::sync_runs},
    {"sync_bound_violations", &CellAggregate::sync_bound_violations},
};

// (The Stats members use the shared cell_stats_fields() table from
// aggregator.hpp, so the dist export and this codec can never drift.)

/// "12" or "3..17" (inclusive) range rendering for coverage errors.
std::string render_ranges(const std::vector<std::size_t>& cells) {
  std::string out;
  std::size_t i = 0;
  while (i < cells.size()) {
    std::size_t j = i;
    while (j + 1 < cells.size() && cells[j + 1] == cells[j] + 1) ++j;
    if (!out.empty()) out += ", ";
    out += std::to_string(cells[i]);
    if (j > i) out += ".." + std::to_string(cells[j]);
    i = j + 1;
  }
  return out;
}

}  // namespace

std::string cell_aggregate_to_json(const CellAggregate& cell) {
  std::string out = "{\"cell\":" + std::to_string(cell.cell_index);
  for (const CounterField& f : kCounters) {
    out += ",\"";
    out += f.key;
    out += "\":" + std::to_string(cell.*(f.member));
  }
  for (const CellStatsField& f : cell_stats_fields()) {
    out += ",\"";
    out += f.name;
    out += "\":";
    // v2 encoding: {"h":[key,count,...]} for histogram-mode statistics
    // (the common case -- every count-like metric), {"raw":[...]} for the
    // real-valued opt-ins.  Both are exact.
    out += stats_to_json(cell.*(f.member));
  }
  out += "}";
  return out;
}

namespace {

// Member slots of a cell object, in cell_aggregate_to_json's order: the
// index, the counters, the statistics, then a checkpoint marker's
// heartbeat fields.
constexpr std::size_t kCounterSlot0 = 1;
constexpr std::size_t kStatsSlot0 = kCounterSlot0 + std::size(kCounters);

struct CellKeys {
  std::vector<std::string_view> keys;
  std::size_t ts_slot = 0;  ///< "ts_ms"; "worker" follows
  std::uint64_t required = 0;
};

const CellKeys& cell_keys() {
  static const CellKeys table = [] {
    CellKeys t;
    t.keys.push_back("cell");
    for (const CounterField& f : kCounters) t.keys.push_back(f.key);
    for (const CellStatsField& f : cell_stats_fields()) {
      t.keys.push_back(f.name);
    }
    t.ts_slot = t.keys.size();
    t.required = (std::uint64_t{1} << t.ts_slot) - 1;
    t.keys.push_back("ts_ms");
    t.keys.push_back("worker");
    return t;
  }();
  return table;
}

}  // namespace

bool read_cell_aggregate(jsonu::Reader& r, const SweepGrid& grid,
                         CellAggregate* cell, CellHeartbeat* heartbeat) {
  const CellKeys& table = cell_keys();
  const std::vector<CellStatsField>& stats = cell_stats_fields();
  if (!r.begin_object()) return false;
  std::uint64_t seen = 0;
  std::uint64_t index = 0;
  std::size_t hint = 0;
  std::string_view key;
  while (r.next_member(&key)) {
    const int found =
        jsonu::find_key(key, table.keys.data(), table.keys.size(), hint);
    // Heartbeat fields belong to checkpoint markers only: in a report they
    // would be dropped on the way back out.
    if (found < 0 || (!heartbeat && static_cast<std::size_t>(found) >=
                                        table.ts_slot)) {
      return r.unknown_key();
    }
    const auto slot = static_cast<std::size_t>(found);
    if (!r.claim(&seen, static_cast<unsigned>(slot))) return false;
    hint = slot + 1;
    bool ok = true;
    if (slot == 0) {
      ok = r.u64(&index);
    } else if (slot < kStatsSlot0) {
      const CounterField& f = kCounters[slot - kCounterSlot0];
      ok = jsonu::read_uint(r, &(cell->*(f.member)));
    } else if (slot < table.ts_slot) {
      // Histogram bins install by count addition, raw buffers replay via
      // add() in insertion order: the worker's accumulator, exactly.
      ok = read_stats(r, &(cell->*(stats[slot - kStatsSlot0].member)));
    } else if (slot == table.ts_slot) {
      ok = r.u64(&heartbeat->ts_ms);
    } else {
      std::uint32_t worker = 0;
      ok = jsonu::read_uint(r, &worker);
      heartbeat->worker = worker;
    }
    if (!ok) return false;
  }
  if (!r.ok()) return false;
  if ((seen & table.required) != table.required) {
    for (std::size_t slot = 0; slot < table.ts_slot; ++slot) {
      if ((seen & (std::uint64_t{1} << slot)) == 0) {
        return r.fail("missing key '" + std::string(table.keys[slot]) + "'" +
                      r.where());
      }
    }
  }
  if (index >= grid.num_cells()) {
    return r.fail("cell " + std::to_string(index) + " out of range (grid has " +
                  std::to_string(grid.num_cells()) + " cells)" + r.where());
  }
  cell->cell_index = static_cast<std::size_t>(index);
  cell->spec = grid.spec_for_cell(cell->cell_index);
  return true;
}

std::optional<CellAggregate> cell_aggregate_from_json(const SweepGrid& grid,
                                                      const std::string& json,
                                                      std::string* error) {
  jsonu::Reader r(json);
  CellAggregate cell;
  if (read_cell_aggregate(r, grid, &cell, nullptr) && r.end()) return cell;
  if (error) *error = r.error();
  return std::nullopt;
}

std::string ShardReport::to_json() const {
  std::string out = "{\"format\":\"ccd-shard-report-v2\"";
  out += ",\"shard_index\":" + std::to_string(shard.shard_index);
  out += ",\"shard_count\":" + std::to_string(shard.shard_count);
  out += ",\"mode\":\"";
  out += to_string(shard.mode);
  out += "\",\"grid_fingerprint\":\"" +
         fingerprint_to_hex(shard.grid_fingerprint);
  out += "\",\"grid\":" + shard.grid.to_json();
  // Explicit (dispatcher-batch) specs name their owned cells outright;
  // "cell_list" because "cells" already carries the aggregates below.
  if (shard.mode == ShardMode::kExplicit) {
    out += ",\"cell_list\":[";
    for (std::size_t i = 0; i < shard.cells.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(shard.cells[i]);
    }
    out += "]";
  }
  out += ",\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out += ",";
    out += cell_aggregate_to_json(cells[i]);
  }
  out += "]}";
  return out;
}

std::optional<ShardReport> ShardReport::from_json(const std::string& json,
                                                  std::string* error) {
  constexpr std::string_view kFormat = "ccd-shard-report-v2";
  jsonu::Reader r(json);
  ShardSpecReader header("cell_list");
  ShardReport report;
  std::uint64_t seen = 0;  // bit 0: format, bit 1: cells
  std::string_view key;
  auto read_cells = [&] {
    // Cells are read against the embedded grid as they stream past; the
    // writer puts "grid" first, and a reader that had to hold the cells
    // back until the grid showed up would scan them twice.
    const SweepGrid* grid = header.grid();
    if (!grid) return r.fail("key 'cells' before key 'grid'");
    if (!r.begin_array()) return false;
    report.cells.reserve(header.cell_count_hint());
    while (r.next_element()) {
      if (!read_cell_aggregate(r, *grid, &report.cells.emplace_back(),
                               nullptr)) {
        return false;
      }
    }
    return r.ok();
  };
  if (r.begin_object()) {
    while (r.next_member(&key)) {
      bool handled = false;
      bool ok = true;
      if (key == "format") {
        ok = r.claim(&seen, 0) && jsonu::read_format(r, kFormat);
      } else if (key == "cells") {
        ok = r.claim(&seen, 1) && read_cells();
      } else {
        ok = header.read_member(r, key, &handled) &&
             (handled || r.unknown_key());
      }
      if (!ok) break;
    }
  }
  if (r.ok() && (seen & 1) == 0) jsonu::missing_format(r, kFormat);
  if (r.ok() && (seen & 2) == 0) r.fail("missing key 'cells'");
  if (r.ok() && header.finish(r, &report.shard) && r.end()) {
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
      const std::size_t cell = report.cells[i].cell_index;
      if (!report.shard.owns_cell(cell)) {
        r.fail("cells[" + std::to_string(i) + "]: cell " +
               std::to_string(cell) + " is not owned by shard " +
               std::to_string(report.shard.shard_index) + "/" +
               std::to_string(report.shard.shard_count));
        break;
      }
    }
    if (r.ok()) return report;
  }
  if (error) *error = r.error();
  return std::nullopt;
}

std::optional<MergeResult> merge_shard_reports(
    const std::vector<ShardReport>& reports, std::string* error) {
  auto fail = [&](const std::string& message) -> std::optional<MergeResult> {
    if (error) *error = message;
    return std::nullopt;
  };
  if (reports.empty()) return fail("no shard reports to merge");

  const std::uint64_t fp = reports.front().shard.grid_fingerprint;
  for (const ShardReport& r : reports) {
    if (r.shard.grid_fingerprint != fp) {
      return fail("grid fingerprint mismatch: shard " +
                  std::to_string(reports.front().shard.shard_index) +
                  " was planned over grid " + fingerprint_to_hex(fp) +
                  " but shard " + std::to_string(r.shard.shard_index) +
                  " over grid " + fingerprint_to_hex(r.shard.grid_fingerprint) +
                  " (shards from different grids cannot merge)");
    }
  }

  MergeResult result;
  result.grid = reports.front().shard.grid;
  const std::size_t n = result.grid.num_cells();
  result.cells.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    result.cells.push_back(empty_cell_aggregate(result.grid, c));
  }

  // Exactly-once coverage: every cell merged from precisely one report.
  // (Duplicate detection is per CELL, not per shard range, so overlapping
  // splits -- say a 3-way and a 4-way plan mixed together -- are caught.)
  std::vector<std::size_t> owner(n, ~std::size_t{0});
  for (std::size_t r = 0; r < reports.size(); ++r) {
    for (const CellAggregate& cell : reports[r].cells) {
      if (owner[cell.cell_index] != ~std::size_t{0}) {
        return fail(
            "duplicate cell " + std::to_string(cell.cell_index) +
            ": reported by both shard " +
            std::to_string(reports[owner[cell.cell_index]].shard.shard_index) +
            " and shard " + std::to_string(reports[r].shard.shard_index));
      }
      owner[cell.cell_index] = r;
      merge_cell_aggregate(result.cells[cell.cell_index], cell);
    }
  }
  std::vector<std::size_t> missing;
  for (std::size_t c = 0; c < n; ++c) {
    if (owner[c] == ~std::size_t{0}) missing.push_back(c);
  }
  if (!missing.empty()) {
    return fail("missing cells: " + render_ranges(missing) + " (" +
                std::to_string(missing.size()) + " of " + std::to_string(n) +
                "; is a shard report absent or truncated?)");
  }
  return result;
}

}  // namespace ccd::exp
