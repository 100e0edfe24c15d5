#include "exp/shard/checkpoint.hpp"

#include <algorithm>
#include <fstream>

#include "obs/telemetry.hpp"
#include "util/json.hpp"

namespace ccd::exp {

namespace {

/// Reads a header line and checks it against `shard`: format, grid
/// fingerprint and shard identity.  Errors are keyed on `r`.
bool read_header(jsonu::Reader& r, const ShardSpec& shard,
                 std::uint64_t* ts_ms) {
  constexpr std::string_view kFormat = "ccd-shard-checkpoint-v1";
  static constexpr std::string_view kKeys[] = {
      "format", "grid_fingerprint", "shard_index", "shard_count", "ts_ms"};
  std::uint64_t seen = 0;
  std::size_t hint = 0;
  std::string_view key;
  std::uint64_t index = 0, count = 0;
  if (!r.begin_object()) return false;
  while (r.next_member(&key)) {
    const int slot = jsonu::find_key(key, kKeys, 5, hint);
    if (slot < 0) return r.unknown_key();
    if (!r.claim(&seen, static_cast<unsigned>(slot))) return false;
    hint = static_cast<std::size_t>(slot) + 1;
    bool ok = true;
    switch (slot) {
      case 0: ok = jsonu::read_format(r, kFormat); break;
      case 1: {
        std::string_view fp;
        ok = r.string(&fp);
        if (ok && fp != fingerprint_to_hex(shard.grid_fingerprint)) {
          return r.fail("grid fingerprint " + std::string(fp) +
                        " does not match this shard's grid " +
                        fingerprint_to_hex(shard.grid_fingerprint) +
                        " (stale checkpoint from another grid?)");
        }
        break;
      }
      case 2: ok = r.u64(&index); break;
      case 3: ok = r.u64(&count); break;
      default: ok = r.u64(ts_ms); break;
    }
    if (!ok) return false;
  }
  if (!r.ok()) return false;
  if ((seen & 1) == 0) return jsonu::missing_format(r, kFormat);
  if ((seen & 2) == 0) return r.fail("missing key 'grid_fingerprint'");
  // Older headers may lack the identity; when present it must be ours, so
  // one shard never resumes from another's markers.
  if (((seen & 4) && index != shard.shard_index) ||
      ((seen & 8) && count != shard.shard_count)) {
    return r.fail("written by shard " + std::to_string(index) + "/" +
                  std::to_string(count) + ", not shard " +
                  std::to_string(shard.shard_index) + "/" +
                  std::to_string(shard.shard_count));
  }
  return r.end();
}

}  // namespace

std::string checkpoint_header(const ShardSpec& shard) {
  std::string out = "{\"format\":\"ccd-shard-checkpoint-v1\"";
  out += ",\"grid_fingerprint\":\"" +
         fingerprint_to_hex(shard.grid_fingerprint);
  out += "\",\"shard_index\":" + std::to_string(shard.shard_index);
  out += ",\"shard_count\":" + std::to_string(shard.shard_count);
  out += ",\"ts_ms\":" + std::to_string(obs::wall_clock_ms());
  out += "}";
  return out;
}

std::string checkpoint_cell_marker(const CellAggregate& cell,
                                   const std::uint32_t* worker) {
  std::string marker = cell_aggregate_to_json(cell);
  marker.pop_back();  // cell_aggregate_to_json yields one flat object
  marker += ",\"ts_ms\":" + std::to_string(obs::wall_clock_ms());
  if (worker) marker += ",\"worker\":" + std::to_string(*worker);
  marker += "}";
  return marker;
}

bool load_checkpoint(const ShardSpec& shard, const std::string& path,
                     CheckpointContents* out, std::string* error) {
  *out = CheckpointContents{};
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out->missing = true;
    return true;  // no file yet: nothing completed
  }
  auto at_eof = [&in] {
    return in.peek() == std::ifstream::traits_type::eof();
  };
  std::string line;
  if (!std::getline(in, line)) return true;  // empty file
  {
    jsonu::Reader r(line);
    std::uint64_t ts_ms = 0;
    if (!read_header(r, shard, &ts_ms)) {
      // A header torn mid-write is the first-write crash artifact; it gets
      // the same amnesty as a torn marker -- but only when it really is
      // the file's final line.  Anything after it means the file was never
      // a checkpoint.  A whole header that fails validation is never torn.
      const bool whole = !line.empty() && line.back() == '}';
      if (!whole && at_eof()) {
        out->torn_tail = true;
        return true;
      }
      if (error) {
        *error = "checkpoint " + path + " header: " +
                 (whole ? r.error()
                        : "unparseable header with content after it (not a "
                          "checkpoint file?): " + r.error());
      }
      return false;
    }
    out->last_ts_ms = ts_ms;
  }
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    // One pass per marker yields both the aggregate and its heartbeat.
    jsonu::Reader r(line);
    CellAggregate cell;
    CellHeartbeat heartbeat;
    if (!read_cell_aggregate(r, shard.grid, &cell, &heartbeat) || !r.end()) {
      // A final partial line is the expected crash artifact; only the LAST
      // line gets that amnesty.
      if (at_eof()) {
        out->torn_tail = true;
        break;
      }
      if (error) {
        *error = "checkpoint " + path + " line " + std::to_string(line_no) +
                 ": " + r.error();
      }
      return false;
    }
    if (!shard.owns_cell(cell.cell_index)) {
      if (error) {
        *error = "checkpoint " + path + " line " + std::to_string(line_no) +
                 ": cell " + std::to_string(cell.cell_index) +
                 " is not owned by shard " +
                 std::to_string(shard.shard_index) + "/" +
                 std::to_string(shard.shard_count);
      }
      return false;
    }
    const std::size_t index = cell.cell_index;
    if (!out->cells.emplace(index, std::move(cell)).second) {
      // Each cell completes once; resume rewrites the file before it
      // replays, so a second marker means the file was tampered with.
      if (error) {
        *error = "checkpoint " + path + " line " + std::to_string(line_no) +
                 ": second marker for cell " + std::to_string(index);
      }
      return false;
    }
    out->last_ts_ms = std::max(out->last_ts_ms, heartbeat.ts_ms);
  }
  return true;
}

bool tail_checkpoint(const std::string& path,
                     std::vector<std::size_t>* cells_done,
                     std::uint64_t* last_ts_ms,
                     std::optional<std::uint32_t>* last_worker) {
  if (cells_done) cells_done->clear();
  if (last_ts_ms) *last_ts_ms = 0;
  if (last_worker) last_worker->reset();
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string line;
  std::uint64_t newest = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // Only the identity and heartbeat members are read; the rest is
    // skipped (still validated, so a torn line is told apart).
    jsonu::Reader r(line);
    std::optional<std::uint64_t> cell, ts, worker;
    std::string_view key;
    if (!r.begin_object()) continue;
    while (r.next_member(&key)) {
      std::uint64_t v = 0;
      if (key == "cell" || key == "ts_ms" || key == "worker") {
        if (!r.u64(&v)) break;
        (key == "cell" ? cell : key == "ts_ms" ? ts : worker) = v;
      } else if (!r.skip()) {
        break;
      }
    }
    if (!r.ok() || !r.end()) continue;  // mid-append torn line: it will heal
    if (cell && cells_done) {
      cells_done->push_back(static_cast<std::size_t>(*cell));
    }
    if (ts && *ts >= newest) {
      // Markers may land out of ts order under concurrent completion; the
      // newest one names the worker last heard from.
      newest = *ts;
      if (worker && last_worker && *worker <= UINT32_MAX) {
        *last_worker = static_cast<std::uint32_t>(*worker);
      }
    }
  }
  if (last_ts_ms) *last_ts_ms = newest;
  return true;
}

}  // namespace ccd::exp
