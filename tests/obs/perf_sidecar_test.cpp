// Perf sidecar tests: build from spans, JSON round-trip, K-shard merge
// (counter and engine-phase sums exact, disjoint cell union, fingerprint
// guard), and the Chrome trace export's required keys.
#include <gtest/gtest.h>

#include <string>

#include "obs/chrome_trace.hpp"
#include "obs/perf_sidecar.hpp"

namespace ccd::obs {
namespace {

SweepPerf sample_perf(std::uint32_t workers, std::uint64_t first_cell) {
  SweepPerf perf;
  perf.wall_ns = 5000;
  perf.threads = workers;
  perf.drain_ns = 700;
  perf.counters.rounds = 40;
  perf.counters.messages_sent = 10;
  perf.counters.collisions = 3;
  // Two cells x two seeds, alternating workers.
  for (std::uint64_t s = 0; s < 4; ++s) {
    RunSpan span;
    span.run_index = first_cell * 2 + s;
    span.cell_index = first_cell + s / 2;
    span.worker = static_cast<std::uint32_t>(s % workers);
    span.start_ns = s * 1000;
    span.end_ns = s * 1000 + 800 + 10 * s;
    perf.spans.push_back(span);
  }
  perf.runs = perf.spans.size();
  return perf;
}

TEST(PerfSidecarTest, BuildGroupsSpansByCellAndWorker) {
  const SweepPerf perf = sample_perf(2, 0);
  const PerfSidecar sidecar = build_perf_sidecar(0xabcdef, 0, 1, perf);
  EXPECT_EQ(sidecar.runs, 4u);
  EXPECT_EQ(sidecar.counters, perf.counters);
  ASSERT_EQ(sidecar.shards.size(), 1u);
  ASSERT_EQ(sidecar.shards[0].workers.size(), 2u);
  EXPECT_EQ(sidecar.shards[0].workers[0].runs, 2u);
  EXPECT_EQ(sidecar.shards[0].workers[1].runs, 2u);
  EXPECT_EQ(sidecar.shards[0].drain_ns, 700u);
  ASSERT_EQ(sidecar.cells.size(), 2u);
  EXPECT_EQ(sidecar.cells[0].cell_index, 0u);
  EXPECT_EQ(sidecar.cells[0].runs, 2u);
  EXPECT_LE(sidecar.cells[0].min_ns, sidecar.cells[0].p50_ns);
  EXPECT_LE(sidecar.cells[0].p50_ns, sidecar.cells[0].p95_ns);
  EXPECT_LE(sidecar.cells[0].p95_ns, sidecar.cells[0].max_ns);
}

TEST(PerfSidecarTest, JsonRoundTripIsLossless) {
  const PerfSidecar sidecar =
      build_perf_sidecar(0x123456789abcdef0ull, 2, 4, sample_perf(2, 6));
  std::string error;
  auto parsed = PerfSidecar::from_json(sidecar.to_json(), &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(parsed->grid_fingerprint, sidecar.grid_fingerprint);
  EXPECT_EQ(parsed->runs, sidecar.runs);
  EXPECT_EQ(parsed->counters, sidecar.counters);
  ASSERT_EQ(parsed->shards.size(), 1u);
  EXPECT_EQ(parsed->shards[0].shard_index, 2u);
  EXPECT_EQ(parsed->shards[0].shard_count, 4u);
  EXPECT_EQ(parsed->shards[0].wall_ns, sidecar.shards[0].wall_ns);
  ASSERT_EQ(parsed->shards[0].workers.size(),
            sidecar.shards[0].workers.size());
  EXPECT_EQ(parsed->shards[0].workers[1].busy_ns,
            sidecar.shards[0].workers[1].busy_ns);
  ASSERT_EQ(parsed->cells.size(), sidecar.cells.size());
  for (std::size_t i = 0; i < sidecar.cells.size(); ++i) {
    EXPECT_EQ(parsed->cells[i].cell_index, sidecar.cells[i].cell_index);
    EXPECT_EQ(parsed->cells[i].total_ns, sidecar.cells[i].total_ns);
    EXPECT_EQ(parsed->cells[i].p95_ns, sidecar.cells[i].p95_ns);
  }
  // Re-serialization is byte-stable (merge tooling relies on it).
  EXPECT_EQ(parsed->to_json(), sidecar.to_json());
}

TEST(PerfSidecarTest, FromJsonRejectsGarbageWithKeyedErrors) {
  std::string error;
  EXPECT_FALSE(PerfSidecar::from_json("not json", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(
      PerfSidecar::from_json("{\"format\":\"ccd-perf-sidecar-v9\"}", &error));
  EXPECT_NE(error.find("format"), std::string::npos);
}

TEST(PerfSidecarTest, MergeSumsCountersAndUnionsCells) {
  const PerfSidecar a = build_perf_sidecar(0xfeed, 0, 2, sample_perf(2, 0));
  const PerfSidecar b = build_perf_sidecar(0xfeed, 1, 2, sample_perf(1, 2));
  std::string error;
  auto merged = merge_perf_sidecars({b, a}, &error);  // order-insensitive
  ASSERT_TRUE(merged) << error;
  EXPECT_EQ(merged->runs, a.runs + b.runs);
  EXPECT_EQ(merged->counters.rounds,
            a.counters.rounds + b.counters.rounds);
  EXPECT_EQ(merged->counters.collisions,
            a.counters.collisions + b.counters.collisions);
  ASSERT_EQ(merged->shards.size(), 2u);
  EXPECT_EQ(merged->shards[0].shard_index, 0u);  // sorted by identity
  EXPECT_EQ(merged->shards[1].shard_index, 1u);
  ASSERT_EQ(merged->cells.size(), 4u);
  EXPECT_EQ(merged->cells[0].cell_index, 0u);
  EXPECT_EQ(merged->cells[3].cell_index, 3u);
}

EnginePhases sample_phases(std::uint64_t scale) {
  EnginePhases p;
  p.sampled_rounds = 10 * scale;
  p.sampled_sweeps = 2 * scale;
  for (std::size_t i = 0; i < kNumEnginePhases; ++i) {
    p.ns[i] = (i + 1) * 100 * scale;
  }
  return p;
}

TEST(PerfSidecarTest, EnginePhasesRoundTripAndAreOptional) {
  SweepPerf perf = sample_perf(2, 0);
  const PerfSidecar plain = build_perf_sidecar(0xfeed, 0, 1, perf);
  EXPECT_FALSE(plain.engine_phases);
  EXPECT_EQ(plain.to_json().find("engine_phases"), std::string::npos);

  perf.engine_phases = sample_phases(1);
  const PerfSidecar timed = build_perf_sidecar(0xfeed, 0, 1, perf);
  const std::string json = timed.to_json();
  EXPECT_NE(json.find("\"engine_phases\":{\"sampled_rounds\":10,"
                      "\"sampled_sweeps\":2,\"crash_ns\":100,"),
            std::string::npos)
      << json;
  std::string error;
  auto parsed = PerfSidecar::from_json(json, &error);
  ASSERT_TRUE(parsed) << error;
  ASSERT_TRUE(parsed->engine_phases);
  EXPECT_EQ(*parsed->engine_phases, *perf.engine_phases);
  EXPECT_EQ(parsed->to_json(), json);

  // Every phase key is required inside the object.
  std::string missing = json;
  missing.replace(missing.find(",\"termination_ns\""),
                  std::string(",\"termination_ns\":700").size(), "");
  EXPECT_FALSE(PerfSidecar::from_json(missing, &error));
  EXPECT_NE(error.find("termination_ns"), std::string::npos) << error;
}

TEST(PerfSidecarTest, MergeSumsEnginePhases) {
  SweepPerf pa = sample_perf(2, 0);
  SweepPerf pb = sample_perf(1, 2);
  SweepPerf pc = sample_perf(1, 4);
  pa.engine_phases = sample_phases(1);
  pb.engine_phases = sample_phases(3);  // pc timed nothing
  std::string error;
  auto merged = merge_perf_sidecars({build_perf_sidecar(0xfeed, 0, 3, pa),
                                     build_perf_sidecar(0xfeed, 1, 3, pb),
                                     build_perf_sidecar(0xfeed, 2, 3, pc)},
                                    &error);
  ASSERT_TRUE(merged) << error;
  ASSERT_TRUE(merged->engine_phases);
  EXPECT_EQ(*merged->engine_phases, sample_phases(4));

  auto untimed = merge_perf_sidecars({build_perf_sidecar(0xfeed, 2, 3, pc)});
  ASSERT_TRUE(untimed);
  EXPECT_FALSE(untimed->engine_phases);
}

TEST(PerfSidecarTest, MergeRejectsFingerprintMismatch) {
  const PerfSidecar a = build_perf_sidecar(0x1, 0, 2, sample_perf(1, 0));
  const PerfSidecar b = build_perf_sidecar(0x2, 1, 2, sample_perf(1, 2));
  std::string error;
  EXPECT_FALSE(merge_perf_sidecars({a, b}, &error));
  EXPECT_NE(error.find("fingerprint"), std::string::npos);
}

TEST(PerfSidecarTest, MergeRejectsDuplicateCellOwnership) {
  const PerfSidecar a = build_perf_sidecar(0x1, 0, 2, sample_perf(1, 0));
  const PerfSidecar b = build_perf_sidecar(0x1, 1, 2, sample_perf(1, 0));
  std::string error;
  EXPECT_FALSE(merge_perf_sidecars({a, b}, &error));
  EXPECT_NE(error.find("cell"), std::string::npos);
}

TEST(ChromeTraceTest, EmitsMetadataAndCompleteEvents) {
  const SweepPerf perf = sample_perf(2, 0);
  const std::string json = sweep_trace_json(perf, 3, 2);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"shard 3\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker 1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"cell 0 seed 0\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

}  // namespace
}  // namespace ccd::obs
