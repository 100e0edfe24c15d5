#include "exp/shard/shard_plan.hpp"

#include <algorithm>

#include "util/json.hpp"

namespace ccd::exp {

const char* to_string(ShardMode m) {
  switch (m) {
    case ShardMode::kContiguous: return "contiguous";
    case ShardMode::kStrided: return "strided";
    case ShardMode::kExplicit: return "explicit";
  }
  return "?";
}

std::optional<ShardMode> parse_shard_mode(const std::string& s) {
  if (s == "contiguous") return ShardMode::kContiguous;
  if (s == "strided") return ShardMode::kStrided;
  if (s == "explicit") return ShardMode::kExplicit;
  return std::nullopt;
}

std::string fingerprint_to_hex(std::uint64_t fp) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[fp & 0xf];
    fp >>= 4;
  }
  return out;
}

std::optional<std::uint64_t> fingerprint_from_hex(const std::string& s) {
  if (s.size() != 16) return std::nullopt;
  std::uint64_t fp = 0;
  for (char c : s) {
    fp <<= 4;
    if (c >= '0' && c <= '9') {
      fp |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      fp |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return fp;
}

std::vector<std::size_t> ShardSpec::cell_indices() const {
  if (mode == ShardMode::kExplicit) return cells;
  std::vector<std::size_t> owned;
  const std::size_t n = grid.num_cells();
  if (shard_count == 0) return owned;
  if (mode == ShardMode::kContiguous) {
    const std::size_t begin = shard_index * n / shard_count;
    const std::size_t end = (shard_index + 1) * n / shard_count;
    owned.reserve(end - begin);
    for (std::size_t c = begin; c < end; ++c) owned.push_back(c);
  } else {
    for (std::size_t c = shard_index; c < n; c += shard_count) {
      owned.push_back(c);
    }
  }
  return owned;
}

bool ShardSpec::owns_cell(std::size_t cell) const {
  const std::size_t n = grid.num_cells();
  if (cell >= n) return false;
  if (mode == ShardMode::kExplicit) {
    return std::binary_search(cells.begin(), cells.end(), cell);
  }
  if (shard_count == 0) return false;
  if (mode == ShardMode::kStrided) return cell % shard_count == shard_index;
  return cell >= shard_index * n / shard_count &&
         cell < (shard_index + 1) * n / shard_count;
}

std::string ShardSpec::to_json() const {
  std::string out = "{\"format\":\"ccd-shard-spec-v1\"";
  out += ",\"shard_index\":" + std::to_string(shard_index);
  out += ",\"shard_count\":" + std::to_string(shard_count);
  out += ",\"mode\":\"";
  out += to_string(mode);
  out += "\",\"grid_fingerprint\":\"" + fingerprint_to_hex(grid_fingerprint);
  out += "\",\"grid\":" + grid.to_json();
  if (mode == ShardMode::kExplicit) {
    out += ",\"cells\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(cells[i]);
    }
    out += "]";
  }
  out += "}";
  return out;
}

bool ShardSpecReader::read_member(jsonu::Reader& r, std::string_view key,
                                  bool* handled) {
  static constexpr std::string_view kKeys[] = {
      "shard_index", "shard_count", "mode", "grid_fingerprint", "grid"};
  int slot = jsonu::find_key(key, kKeys, 5, 0);
  if (slot < 0 && key == cells_key_) slot = 5;
  *handled = slot >= 0;
  if (slot < 0) return true;
  if (!r.claim(&seen_, static_cast<unsigned>(slot))) return false;
  switch (slot) {
    case 0: return jsonu::read_uint(r, &spec_.shard_index);
    case 1: return jsonu::read_uint(r, &spec_.shard_count);
    case 2: {
      std::string_view value;
      if (!r.string(&value)) return false;
      auto mode = parse_shard_mode(std::string(value));
      if (!mode) return r.reject(value, "contiguous, strided or explicit");
      spec_.mode = *mode;
      return true;
    }
    case 3: {
      std::string_view value;
      if (!r.string(&value)) return false;
      auto fp = fingerprint_from_hex(std::string(value));
      if (!fp) return r.reject(value, "16 hex digits");
      spec_.grid_fingerprint = *fp;
      return true;
    }
    case 4: return SweepGrid::read_json(r, &spec_.grid);
    default: {
      if (!r.begin_array()) return false;
      while (r.next_element()) {
        std::size_t c = 0;
        if (!jsonu::read_uint(r, &c)) return false;
        if (!spec_.cells.empty() && spec_.cells.back() >= c) {
          std::string message = "'";
          message.append(cells_key_);
          message += "' must be strictly ascending (saw ";
          message += std::to_string(spec_.cells.back()) + " then ";
          message += std::to_string(c) + ")" + r.where();
          return r.fail(std::move(message));
        }
        spec_.cells.push_back(c);
      }
      return r.ok();
    }
  }
}

std::size_t ShardSpecReader::cell_count_hint() const {
  // Capped: a hostile grid's cell count says nothing about the input.
  constexpr std::size_t kCap = std::size_t{1} << 16;
  if (spec_.mode == ShardMode::kExplicit) return spec_.cells.size();
  if ((seen_ & kGridBit) == 0 || spec_.shard_count == 0) return 0;
  return std::min(kCap, spec_.grid.num_cells() / spec_.shard_count + 1);
}

bool ShardSpecReader::finish(jsonu::Reader& r, ShardSpec* out) {
  static constexpr const char* kRequired[] = {
      "shard_index", "shard_count", "mode", "grid_fingerprint", "grid"};
  for (unsigned slot = 0; slot < 5; ++slot) {
    if ((seen_ & (1u << slot)) == 0) {
      return r.fail(std::string("missing key '") + kRequired[slot] + "'" +
                    r.where());
    }
  }
  if (spec_.shard_count == 0) return r.fail("shard_count must be >= 1");
  // Derived modes partition by index arithmetic, so the index must name a
  // real shard.  For explicit specs shard_index is a free-form batch id.
  if (spec_.mode != ShardMode::kExplicit &&
      spec_.shard_index >= spec_.shard_count) {
    return r.fail("shard_index " + std::to_string(spec_.shard_index) +
                  " out of range for shard_count " +
                  std::to_string(spec_.shard_count));
  }
  // Stale-shard rejection: the embedded fingerprint must match the grid it
  // travels with.  A spec whose grid was edited after planning (or planned
  // by an incompatible build) is refused here, before any cell runs.
  if (spec_.grid.fingerprint() != spec_.grid_fingerprint) {
    return r.fail("grid fingerprint mismatch: file says " +
                  fingerprint_to_hex(spec_.grid_fingerprint) +
                  " but the embedded grid hashes to " +
                  fingerprint_to_hex(spec_.grid.fingerprint()) +
                  " (stale or hand-edited shard spec?)");
  }
  const bool have_cells = (seen_ & (1u << 5)) != 0;
  if (spec_.mode == ShardMode::kExplicit) {
    if (!have_cells) {
      return r.fail("mode explicit needs a '" + std::string(cells_key_) +
                    "' array");
    }
    if (!spec_.cells.empty() &&
        spec_.cells.back() >= spec_.grid.num_cells()) {
      return r.fail("cell " + std::to_string(spec_.cells.back()) +
                    " out of range (grid has " +
                    std::to_string(spec_.grid.num_cells()) + " cells)");
    }
  } else if (have_cells) {
    std::string message = "'";
    message.append(cells_key_);
    message += "' is only valid with mode explicit";
    return r.fail(std::move(message));
  }
  *out = std::move(spec_);
  return true;
}

std::optional<ShardSpec> ShardSpec::from_json(const std::string& json,
                                              std::string* error) {
  constexpr std::string_view kFormat = "ccd-shard-spec-v1";
  jsonu::Reader r(json);
  ShardSpecReader fields("cells");
  std::uint64_t format_seen = 0;
  std::string_view key;
  if (r.begin_object()) {
    while (r.next_member(&key)) {
      bool handled = false;
      const bool ok =
          key == "format"
              ? r.claim(&format_seen, 0) && jsonu::read_format(r, kFormat)
              : fields.read_member(r, key, &handled) &&
                    (handled || r.unknown_key());
      if (!ok) break;
    }
  }
  if (r.ok() && format_seen == 0) jsonu::missing_format(r, kFormat);
  ShardSpec spec;
  if (r.ok() && fields.finish(r, &spec) && r.end()) return spec;
  if (error) *error = r.error();
  return std::nullopt;
}

std::vector<ShardSpec> ShardPlanner::plan(const SweepGrid& grid,
                                          std::size_t count, ShardMode mode) {
  if (count == 0) count = 1;
  std::vector<ShardSpec> shards;
  shards.reserve(count);
  const std::uint64_t fp = grid.fingerprint();
  for (std::size_t i = 0; i < count; ++i) {
    ShardSpec spec;
    spec.shard_index = i;
    spec.shard_count = count;
    spec.mode = mode;
    spec.grid_fingerprint = fp;
    spec.grid = grid;
    shards.push_back(std::move(spec));
  }
  return shards;
}

ShardSpec ShardPlanner::plan_cells(const SweepGrid& grid,
                                   std::vector<std::size_t> cells,
                                   std::size_t batch_id) {
  ShardSpec spec;
  spec.shard_index = batch_id;
  spec.shard_count = 1;
  spec.mode = ShardMode::kExplicit;
  spec.grid_fingerprint = grid.fingerprint();
  spec.grid = grid;
  spec.cells = std::move(cells);
  return spec;
}

}  // namespace ccd::exp
