#include "obs/perf_sidecar.hpp"

#include <algorithm>
#include <iterator>
#include <map>

#include "util/json.hpp"
#include "util/histogram.hpp"

namespace ccd::obs {

namespace {

namespace jsonu = ccd::jsonu;

// Same 16-hex-digit rendering exp/shard uses for grid fingerprints, kept
// local so obs/ does not depend on the shard layer.
std::string fp_to_hex(std::uint64_t fp) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[fp & 0xf];
    fp >>= 4;
  }
  return out;
}

std::optional<std::uint64_t> fp_from_hex(const std::string& s) {
  if (s.size() != 16) return std::nullopt;
  std::uint64_t fp = 0;
  for (char c : s) {
    fp <<= 4;
    if (c >= '0' && c <= '9') fp |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') fp |= static_cast<std::uint64_t>(c - 'a' + 10);
    else return std::nullopt;
  }
  return fp;
}

/// One integer member of a sidecar object; `narrow` caps it at 32 bits.
struct U64Field {
  std::string_view key;
  std::uint64_t* out;
  bool narrow = false;
};

/// Reads an object whose members are exactly `fields` (all required) plus
/// whatever `nested` claims: nested(key, &handled) reads a structured
/// member and sets handled.  Unknown, duplicate and missing keys are keyed
/// errors on `r`.
template <typename Nested>
bool read_u64_object(jsonu::Reader& r, const U64Field* fields, std::size_t n,
                     Nested&& nested) {
  if (!r.begin_object()) return false;
  std::uint64_t seen = 0;
  std::size_t hint = 0;
  std::string_view key;
  while (r.next_member(&key)) {
    int slot = -1;
    for (std::size_t k = 0; k < n && slot < 0; ++k) {
      const std::size_t i = (hint + k) % n;  // in-order input: one compare
      if (fields[i].key == key) slot = static_cast<int>(i);
    }
    if (slot < 0) {
      bool handled = false;
      if (!nested(key, &handled)) return false;
      if (!handled) return r.unknown_key();
      continue;
    }
    const U64Field& f = fields[slot];
    if (!r.claim(&seen, static_cast<unsigned>(slot))) return false;
    hint = static_cast<std::size_t>(slot) + 1;
    if (f.narrow) {
      std::uint32_t v = 0;
      if (!jsonu::read_uint(r, &v)) return false;
      *f.out = v;
    } else if (!r.u64(f.out)) {
      return false;
    }
  }
  if (!r.ok()) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if ((seen & (std::uint64_t{1} << i)) == 0) {
      return r.fail("missing key '" + std::string(fields[i].key) + "'" +
                    r.where());
    }
  }
  return true;
}

bool read_u64_object(jsonu::Reader& r, const U64Field* fields,
                     std::size_t n) {
  return read_u64_object(r, fields, n, [](std::string_view, bool* handled) {
    *handled = false;
    return true;
  });
}

/// Reads an array, one element per call of `element`.
template <typename Element>
bool read_array(jsonu::Reader& r, Element&& element) {
  if (!r.begin_array()) return false;
  while (r.next_element()) {
    if (!element()) return false;
  }
  return r.ok();
}

bool read_counters(jsonu::Reader& r, EngineCounters& counters) {
  constexpr std::size_t n = std::size(kEngineCounterFields);
  U64Field fields[n];
  for (std::size_t i = 0; i < n; ++i) {
    fields[i] = {kEngineCounterFields[i].key,
                 &(counters.*(kEngineCounterFields[i].member))};
  }
  return read_u64_object(r, fields, n);
}

bool read_shard(jsonu::Reader& r, PerfShardExec& s) {
  std::uint64_t threads = 0;
  const U64Field fields[] = {{"shard_index", &s.shard_index},
                             {"shard_count", &s.shard_count},
                             {"wall_ns", &s.wall_ns},
                             {"drain_ns", &s.drain_ns},
                             {"threads", &threads, true},
                             {"runs", &s.runs}};
  bool have_workers = false;
  auto workers = [&](std::string_view key, bool* handled) {
    *handled = key == "workers";
    if (!*handled) return true;
    if (have_workers) return r.duplicate_key();
    have_workers = true;
    return read_array(r, [&] {
      PerfWorker& w = s.workers.emplace_back();
      std::uint64_t id = 0;
      const U64Field wf[] = {{"worker", &id, true},
                             {"busy_ns", &w.busy_ns},
                             {"runs", &w.runs}};
      if (!read_u64_object(r, wf, std::size(wf))) return false;
      w.worker = static_cast<std::uint32_t>(id);
      return true;
    });
  };
  if (!read_u64_object(r, fields, std::size(fields), workers)) return false;
  if (!have_workers) return r.fail("missing key 'workers'" + r.where());
  s.threads = static_cast<std::uint32_t>(threads);
  return true;
}

bool read_cell(jsonu::Reader& r, PerfCell& c) {
  const U64Field fields[] = {{"cell", &c.cell_index}, {"runs", &c.runs},
                             {"total_ns", &c.total_ns}, {"min_ns", &c.min_ns},
                             {"max_ns", &c.max_ns},     {"p50_ns", &c.p50_ns},
                             {"p95_ns", &c.p95_ns}};
  return read_u64_object(r, fields, std::size(fields));
}

bool read_dispatch(jsonu::Reader& r, PerfDispatch& d) {
  const U64Field fields[] = {{"workers", &d.workers},
                             {"batches", &d.batches},
                             {"steals", &d.steals},
                             {"requeues", &d.requeues},
                             {"worker_restarts", &d.worker_restarts},
                             {"duplicate_cells", &d.duplicate_cells},
                             {"wall_ns", &d.wall_ns}};
  bool have_slots = false;
  auto slots = [&](std::string_view key, bool* handled) {
    *handled = key == "slots";
    if (!*handled) return true;
    if (have_slots) return r.duplicate_key();
    have_slots = true;
    return read_array(r, [&] {
      PerfDispatchSlot& s = d.slots.emplace_back();
      std::uint64_t id = 0;
      const U64Field sf[] = {{"slot", &id, true},
                             {"batches", &s.batches},
                             {"cells", &s.cells},
                             {"busy_ns", &s.busy_ns},
                             {"busy_permille", &s.busy_permille},
                             {"restarts", &s.restarts}};
      if (!read_u64_object(r, sf, std::size(sf))) return false;
      s.slot = static_cast<std::uint32_t>(id);
      return true;
    });
  };
  if (!read_u64_object(r, fields, std::size(fields), slots)) return false;
  if (!have_slots) return r.fail("missing key 'slots'" + r.where());
  return true;
}

bool read_engine_phases(jsonu::Reader& r, EnginePhases& p) {
  U64Field fields[2 + kNumEnginePhases] = {
      {"sampled_rounds", &p.sampled_rounds},
      {"sampled_sweeps", &p.sampled_sweeps}};
  for (std::size_t i = 0; i < kNumEnginePhases; ++i) {
    fields[2 + i] = {kEnginePhaseKeys[i], &p.ns[i]};
  }
  return read_u64_object(r, fields, std::size(fields));
}

void append_engine_phases(std::string& out, const EnginePhases& p) {
  out += "{\"sampled_rounds\":" + std::to_string(p.sampled_rounds);
  out += ",\"sampled_sweeps\":" + std::to_string(p.sampled_sweeps);
  for (std::size_t i = 0; i < kNumEnginePhases; ++i) {
    out += ",\"";
    out += kEnginePhaseKeys[i];
    out += "\":" + std::to_string(p.ns[i]);
  }
  out += "}";
}

void append_counters(std::string& out, const EngineCounters& counters) {
  out += "{";
  bool first = true;
  for (const EngineCounterField& f : kEngineCounterFields) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += f.key;
    out += "\":" + std::to_string(counters.*(f.member));
  }
  out += "}";
}

/// Nearest-rank percentile over a duration histogram; p in [0, 100].
/// Identical to the classic sorted-buffer formula (k = ceil(p*n/100),
/// clamped to [1,n], k-th smallest), read out of cumulative bin counts.
std::uint64_t percentile_ns(const ExactHistogram& durations, double p) {
  if (durations.empty()) return 0;
  const std::uint64_t n = durations.total();
  const double rank = p / 100.0 * static_cast<double>(n);
  std::uint64_t k = static_cast<std::uint64_t>(rank);
  if (static_cast<double>(k) < rank) ++k;  // ceil
  if (k == 0) k = 1;
  if (k > n) k = n;
  return static_cast<std::uint64_t>(durations.value_at_rank(k - 1));
}

}  // namespace

std::string PerfSidecar::to_json() const {
  std::string out = "{\"format\":\"ccd-perf-sidecar-v1\"";
  out += ",\"grid_fingerprint\":\"" + fp_to_hex(grid_fingerprint) + "\"";
  out += ",\"runs\":" + std::to_string(runs);
  out += ",\"stats_bytes_retained\":" + std::to_string(stats_bytes_retained);
  out += ",\"counters\":";
  append_counters(out, counters);
  out += ",\"shards\":[";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const PerfShardExec& s = shards[i];
    if (i > 0) out += ",";
    out += "{\"shard_index\":" + std::to_string(s.shard_index);
    out += ",\"shard_count\":" + std::to_string(s.shard_count);
    out += ",\"wall_ns\":" + std::to_string(s.wall_ns);
    out += ",\"drain_ns\":" + std::to_string(s.drain_ns);
    out += ",\"threads\":" + std::to_string(s.threads);
    out += ",\"runs\":" + std::to_string(s.runs);
    out += ",\"workers\":[";
    for (std::size_t w = 0; w < s.workers.size(); ++w) {
      if (w > 0) out += ",";
      out += "{\"worker\":" + std::to_string(s.workers[w].worker);
      out += ",\"busy_ns\":" + std::to_string(s.workers[w].busy_ns);
      out += ",\"runs\":" + std::to_string(s.workers[w].runs) + "}";
    }
    out += "]}";
  }
  out += "],\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const PerfCell& c = cells[i];
    if (i > 0) out += ",";
    out += "{\"cell\":" + std::to_string(c.cell_index);
    out += ",\"runs\":" + std::to_string(c.runs);
    out += ",\"total_ns\":" + std::to_string(c.total_ns);
    out += ",\"min_ns\":" + std::to_string(c.min_ns);
    out += ",\"max_ns\":" + std::to_string(c.max_ns);
    out += ",\"p50_ns\":" + std::to_string(c.p50_ns);
    out += ",\"p95_ns\":" + std::to_string(c.p95_ns) + "}";
  }
  out += "]";
  if (dispatch) {
    const PerfDispatch& d = *dispatch;
    out += ",\"dispatch\":{\"workers\":" + std::to_string(d.workers);
    out += ",\"batches\":" + std::to_string(d.batches);
    out += ",\"steals\":" + std::to_string(d.steals);
    out += ",\"requeues\":" + std::to_string(d.requeues);
    out += ",\"worker_restarts\":" + std::to_string(d.worker_restarts);
    out += ",\"duplicate_cells\":" + std::to_string(d.duplicate_cells);
    out += ",\"wall_ns\":" + std::to_string(d.wall_ns);
    out += ",\"slots\":[";
    for (std::size_t i = 0; i < d.slots.size(); ++i) {
      const PerfDispatchSlot& s = d.slots[i];
      if (i > 0) out += ",";
      out += "{\"slot\":" + std::to_string(s.slot);
      out += ",\"batches\":" + std::to_string(s.batches);
      out += ",\"cells\":" + std::to_string(s.cells);
      out += ",\"busy_ns\":" + std::to_string(s.busy_ns);
      out += ",\"busy_permille\":" + std::to_string(s.busy_permille);
      out += ",\"restarts\":" + std::to_string(s.restarts) + "}";
    }
    out += "]}";
  }
  if (engine_phases) {
    out += ",\"engine_phases\":";
    append_engine_phases(out, *engine_phases);
  }
  out += "}";
  return out;
}

std::optional<PerfSidecar> PerfSidecar::from_json(const std::string& json,
                                                  std::string* error) {
  constexpr std::string_view kFormat = "ccd-perf-sidecar-v1";
  jsonu::Reader r(json);
  PerfSidecar sidecar;
  // format, grid_fingerprint, runs, counters, shards and cells are
  // required; stats_bytes_retained (older sidecars predate it), dispatch
  // (dispatcher-merged sidecars only) and engine_phases (runs that timed
  // them) are optional.
  static constexpr std::string_view kKeys[] = {
      "format",   "grid_fingerprint", "runs",
      "counters", "shards",           "cells",
      "stats_bytes_retained",         "dispatch",
      "engine_phases"};
  constexpr std::uint64_t kRequired = 0x3f;
  std::uint64_t seen = 0;
  std::size_t hint = 0;
  std::string_view key;
  if (r.begin_object()) {
    while (r.next_member(&key)) {
      const int slot = jsonu::find_key(key, kKeys, std::size(kKeys), hint);
      if (slot < 0) {
        r.unknown_key();
        break;
      }
      if (!r.claim(&seen, static_cast<unsigned>(slot))) break;
      hint = static_cast<std::size_t>(slot) + 1;
      bool ok = true;
      switch (slot) {
        case 0: ok = jsonu::read_format(r, kFormat); break;
        case 1: {
          std::string_view hex;
          ok = r.string(&hex);
          if (!ok) break;
          auto fp = fp_from_hex(std::string(hex));
          if (fp) {
            sidecar.grid_fingerprint = *fp;
          } else {
            ok = r.reject(hex, "16 hex digits");
          }
          break;
        }
        case 2: ok = r.u64(&sidecar.runs); break;
        case 3: ok = read_counters(r, sidecar.counters); break;
        case 4:
          ok = read_array(r, [&] {
            return read_shard(r, sidecar.shards.emplace_back());
          });
          break;
        case 5:
          ok = read_array(r, [&] {
            return read_cell(r, sidecar.cells.emplace_back());
          });
          break;
        case 6: ok = r.u64(&sidecar.stats_bytes_retained); break;
        case 7: ok = read_dispatch(r, sidecar.dispatch.emplace()); break;
        default:
          ok = read_engine_phases(r, sidecar.engine_phases.emplace());
          break;
      }
      if (!ok) break;
    }
  }
  if (r.ok() && (seen & 1) == 0) jsonu::missing_format(r, kFormat);
  for (std::size_t slot = 1; r.ok() && slot < 6; ++slot) {
    if ((seen & kRequired & (std::uint64_t{1} << slot)) == 0) {
      r.fail("missing key '" + std::string(kKeys[slot]) + "'");
    }
  }
  if (r.ok() && r.end()) return sidecar;
  if (error) *error = r.error();
  return std::nullopt;
}

PerfSidecar build_perf_sidecar(std::uint64_t grid_fingerprint,
                               std::uint64_t shard_index,
                               std::uint64_t shard_count,
                               const SweepPerf& perf) {
  PerfSidecar sidecar;
  sidecar.grid_fingerprint = grid_fingerprint;
  sidecar.runs = perf.runs;
  sidecar.stats_bytes_retained = perf.stats_bytes_retained;
  sidecar.counters = perf.counters;
  sidecar.engine_phases = perf.engine_phases;

  PerfShardExec shard;
  shard.shard_index = shard_index;
  shard.shard_count = shard_count;
  shard.wall_ns = perf.wall_ns;
  shard.drain_ns = perf.drain_ns;
  shard.threads = perf.threads;
  shard.runs = perf.runs;
  std::vector<PerfWorker> workers(perf.threads);
  for (std::uint32_t w = 0; w < perf.threads; ++w) workers[w].worker = w;
  // Durations fold straight into per-cell histograms: ranked percentiles
  // come from cumulative bin counts instead of a sort, and a cell's
  // footprint is its distinct-duration count, not its run count.
  std::map<std::uint64_t, ExactHistogram> by_cell;
  std::map<std::uint64_t, std::uint64_t> total_by_cell;
  for (const RunSpan& span : perf.spans) {
    const std::uint64_t dur =
        span.end_ns >= span.start_ns ? span.end_ns - span.start_ns : 0;
    if (span.worker < workers.size()) {
      workers[span.worker].busy_ns += dur;
      ++workers[span.worker].runs;
    }
    by_cell[span.cell_index].add(static_cast<std::int64_t>(dur));
    total_by_cell[span.cell_index] += dur;
  }
  shard.workers = std::move(workers);
  sidecar.shards.push_back(std::move(shard));

  for (const auto& [cell_index, durations] : by_cell) {
    PerfCell cell;
    cell.cell_index = cell_index;
    cell.runs = durations.total();
    cell.total_ns = total_by_cell[cell_index];
    cell.min_ns = static_cast<std::uint64_t>(durations.min_key());
    cell.max_ns = static_cast<std::uint64_t>(durations.max_key());
    cell.p50_ns = percentile_ns(durations, 50.0);
    cell.p95_ns = percentile_ns(durations, 95.0);
    sidecar.cells.push_back(cell);
  }
  return sidecar;
}

std::optional<PerfSidecar> merge_perf_sidecars(
    const std::vector<PerfSidecar>& sidecars, std::string* error) {
  auto fail = [&](const std::string& message) -> std::optional<PerfSidecar> {
    if (error) *error = message;
    return std::nullopt;
  };
  if (sidecars.empty()) return fail("no perf sidecars to merge");

  PerfSidecar merged;
  merged.grid_fingerprint = sidecars.front().grid_fingerprint;
  std::map<std::uint64_t, std::uint64_t> cell_owner;  // cell -> sidecar idx
  for (std::size_t i = 0; i < sidecars.size(); ++i) {
    const PerfSidecar& s = sidecars[i];
    if (s.grid_fingerprint != merged.grid_fingerprint) {
      return fail("grid fingerprint mismatch: sidecar 0 is for grid " +
                  fp_to_hex(merged.grid_fingerprint) + " but sidecar " +
                  std::to_string(i) + " for grid " +
                  fp_to_hex(s.grid_fingerprint) +
                  " (sidecars from different grids cannot merge)");
    }
    merged.runs += s.runs;
    merged.stats_bytes_retained += s.stats_bytes_retained;
    merged.counters.add(s.counters);
    if (s.engine_phases) {
      if (!merged.engine_phases) merged.engine_phases.emplace();
      merged.engine_phases->add(*s.engine_phases);
    }
    for (const PerfShardExec& shard : s.shards) {
      merged.shards.push_back(shard);
    }
    for (const PerfCell& cell : s.cells) {
      auto [it, inserted] = cell_owner.emplace(cell.cell_index, i);
      if (!inserted) {
        return fail("duplicate cell " + std::to_string(cell.cell_index) +
                    ": timed by both sidecar " + std::to_string(it->second) +
                    " and sidecar " + std::to_string(i));
      }
      merged.cells.push_back(cell);
    }
  }
  std::sort(merged.shards.begin(), merged.shards.end(),
            [](const PerfShardExec& a, const PerfShardExec& b) {
              return a.shard_count != b.shard_count
                         ? a.shard_count < b.shard_count
                         : a.shard_index < b.shard_index;
            });
  std::sort(merged.cells.begin(), merged.cells.end(),
            [](const PerfCell& a, const PerfCell& b) {
              return a.cell_index < b.cell_index;
            });
  // Dispatch sections never merge: a dispatch run has one dispatcher, and
  // it stamps its own totals onto the merged sidecar after this returns.
  merged.dispatch.reset();
  return merged;
}

}  // namespace ccd::obs
