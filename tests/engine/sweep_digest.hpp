// Sweep digests for the fixture-backed engine equivalence tests.  A digest
// is the FNV-1a-64 of a sweep's JSON, CSV and dist reports plus one FNV-1a
// over every run's EngineCounters (all eight fields, little-endian, in run
// order) -- so two sweeps with equal digests wrote the same report bytes
// and executed exactly the same engine work run by run.
//
// The expected digests under tests/engine/fixtures/ were produced by the
// retired scalar RoundEngine (one engine per run, lanes off) before the
// LaneEngine became the only engine; the tests hold both of today's run
// paths -- 64-wide lane blocks (run_sweep) and width-1 blocks (run_one per
// index) -- to those frozen outputs.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"
#include "obs/telemetry.hpp"

namespace ccd::exp::digest {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

inline std::uint64_t fnv1a(std::string_view text,
                           std::uint64_t h = kFnvOffset) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::uint64_t fnv1a_u64(std::uint64_t v, std::uint64_t h) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// One hash over every run's EngineCounters, in record order.
inline std::uint64_t counters_hash(const std::vector<RunRecord>& records) {
  std::uint64_t h = kFnvOffset;
  for (const RunRecord& record : records) {
    for (const obs::EngineCounterField& f : obs::kEngineCounterFields) {
      h = fnv1a_u64(record.perf.engine.*f.member, h);
    }
  }
  return h;
}

struct SweepDigest {
  std::uint64_t json = 0;
  std::uint64_t csv = 0;
  std::uint64_t dist = 0;
  std::uint64_t counters = 0;
  friend bool operator==(const SweepDigest&, const SweepDigest&) = default;
};

inline SweepDigest digest_of(const SweepGrid& grid,
                             const std::vector<RunRecord>& records) {
  const std::vector<CellAggregate> cells = aggregate(grid, records);
  SweepDigest d;
  d.json = fnv1a(aggregates_to_json(grid, cells));
  d.csv = fnv1a(aggregates_to_csv(cells));
  d.dist = fnv1a(cells_to_dist_json(grid, cells));
  d.counters = counters_hash(records);
  return d;
}

/// The fixture-file spelling: {json, csv, dist, counters}.
inline std::string to_string(const SweepDigest& d) {
  char buffer[128];
  std::snprintf(buffer, sizeof buffer,
                "{0x%016llxull, 0x%016llxull, 0x%016llxull, 0x%016llxull}",
                static_cast<unsigned long long>(d.json),
                static_cast<unsigned long long>(d.csv),
                static_cast<unsigned long long>(d.dist),
                static_cast<unsigned long long>(d.counters));
  return buffer;
}

/// Every run of the grid as width-1 blocks: run_one per index, in order.
inline std::vector<RunRecord> run_width1(const SweepGrid& grid) {
  std::vector<RunRecord> records;
  records.reserve(grid.num_runs());
  for (std::size_t j = 0; j < grid.num_runs(); ++j) {
    records.push_back(run_one(grid, j));
  }
  return records;
}

}  // namespace ccd::exp::digest
