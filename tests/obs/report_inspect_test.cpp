// Report inspector tests: show/diff on dist and shard artifacts, the
// trace-diff round alignment, and the bench-diff regression gate -- all on
// inline fixtures shaped exactly like the emitters' output.
#include "obs/report_inspect.hpp"

#include <gtest/gtest.h>

#include <string>

namespace ccd::obs {
namespace {

const char kDistA[] =
    R"({"format":"ccd-dist-v1","grid_fingerprint":"00000000deadbeef",)"
    R"("grid_seed":1,"seeds_per_cell":4,"num_cells":2,"cells":[)"
    R"({"cell":0,"spec":{"alg":"alg1","n":4},"runs":4,"metrics":{)"
    R"("decision_round":{"h":[3,1,5,2,9,1]},)"
    R"("surviving_fraction":{"raw":[1,0.75,1,1]}}},)"
    R"({"cell":1,"spec":{"alg":"alg1","n":8},"runs":4,"metrics":{)"
    R"("decision_round":{"h":[4,4]}}}]})";

// Same grid, one bin shifted in cell 1.
const char kDistB[] =
    R"({"format":"ccd-dist-v1","grid_fingerprint":"00000000deadbeef",)"
    R"("grid_seed":1,"seeds_per_cell":4,"num_cells":2,"cells":[)"
    R"({"cell":0,"spec":{"alg":"alg1","n":4},"runs":4,"metrics":{)"
    R"("decision_round":{"h":[3,1,5,2,9,1]},)"
    R"("surviving_fraction":{"raw":[1,0.75,1,1]}}},)"
    R"({"cell":1,"spec":{"alg":"alg1","n":8},"runs":4,"metrics":{)"
    R"("decision_round":{"h":[4,3,6,1]}}}]})";

TEST(ReportInspect, ShowRendersDistWithExactPercentiles) {
  InspectOptions options;
  std::string out, error;
  ASSERT_TRUE(render_report(kDistA, options, &out, &error)) << error;
  // Multiset for cell 0 decision_round: {3,5,5,9}.  Linear-interp p50 = 5.
  EXPECT_NE(out.find("decision_round  n=4"), std::string::npos) << out;
  EXPECT_NE(out.find("p50=5.0000"), std::string::npos) << out;
  EXPECT_NE(out.find("min=3.0000"), std::string::npos) << out;
  EXPECT_NE(out.find("max=9.0000"), std::string::npos) << out;
  // Histogram bars for the integer metric; none for the raw fraction.
  EXPECT_NE(out.find("|#"), std::string::npos) << out;
  EXPECT_NE(out.find("surviving_fraction  n=4"), std::string::npos) << out;
}

TEST(ReportInspect, ShowFiltersByCellAndMetricAndTail) {
  InspectOptions options;
  options.only_cell = 1;
  options.only_metric = "decision_round";
  options.tail_over = 3.5;
  std::string out, error;
  ASSERT_TRUE(render_report(kDistA, options, &out, &error)) << error;
  EXPECT_EQ(out.find("cell 0"), std::string::npos) << out;
  EXPECT_NE(out.find("cell 1"), std::string::npos) << out;
  // Cell 1 is four samples of 4: everything is above 3.5.
  EXPECT_NE(out.find("tail > 3.5: 4 (100.0%)"), std::string::npos) << out;
}

TEST(ReportInspect, DiffFindsShiftedBin) {
  std::string out, error;
  bool differs = false;
  ASSERT_TRUE(diff_reports(kDistA, kDistB, &out, &differs, &error)) << error;
  EXPECT_TRUE(differs);
  // Keyed output: the changed cell/metric/bin, not a blob.
  EXPECT_NE(out.find("cell 1 decision_round."), std::string::npos) << out;
  EXPECT_NE(out.find("bin[4]: -1"), std::string::npos) << out;
  EXPECT_NE(out.find("bin[6]: +1"), std::string::npos) << out;
  // Cell 0 is identical and must not appear.
  EXPECT_EQ(out.find("cell 0"), std::string::npos) << out;
}

TEST(ReportInspect, DiffIdenticalIsClean) {
  std::string out, error;
  bool differs = true;
  ASSERT_TRUE(diff_reports(kDistA, kDistA, &out, &differs, &error)) << error;
  EXPECT_FALSE(differs);
  EXPECT_NE(out.find("identical"), std::string::npos) << out;
}

TEST(ReportInspect, ExportCanonicalizesShardReportToDist) {
  // A v2 shard report cell (flat counters + stats objects).
  const std::string shard =
      R"({"format":"ccd-shard-report-v2","grid_fingerprint":"00000000deadbeef",)"
      R"("shard_index":0,"shard_count":2,"grid_seed":1,"seeds_per_cell":4,)"
      R"("cells":[{"cell":3,"runs":4,"solved":4,)"
      R"("decision_round":{"h":[7,4]}}]})";
  std::string out, error;
  ASSERT_TRUE(export_dist(shard, &out, &error)) << error;
  EXPECT_NE(out.find("\"format\":\"ccd-dist-v1\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"cell\":3"), std::string::npos) << out;
  EXPECT_NE(out.find("\"decision_round\":{\"h\":[7,4]}"), std::string::npos)
      << out;
  // The export itself parses and round-trips byte-identically.
  std::string again;
  ASSERT_TRUE(export_dist(out, &again, &error)) << error;
  EXPECT_EQ(out, again);
}

TEST(ReportInspect, RejectsMismatchedKindsAndGarbage) {
  std::string out, error;
  bool differs = false;
  EXPECT_FALSE(render_report("not json", {}, &out, &error));
  EXPECT_FALSE(error.empty());
  const std::string sidecar =
      R"({"format":"ccd-perf-sidecar-v1","grid_fingerprint":"aa","runs":1,)"
      R"("cells":[{"cell":0,"runs":1,"total_ns":5,"min_ns":5,"max_ns":5,)"
      R"("p50_ns":5,"p95_ns":5}]})";
  error.clear();
  EXPECT_FALSE(diff_reports(kDistA, sidecar, &out, &differs, &error));
  EXPECT_NE(error.find("cannot diff"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(export_dist(sidecar, &out, &error));
  EXPECT_NE(error.find("summaries"), std::string::npos) << error;
}

// ---- trace diff ------------------------------------------------------------

std::string trace_doc(const char* round2_cd, const char* decisions) {
  std::string out =
      R"({"format":"ccd-cell-trace-v1","cell":0,"spec":{"n":4},"runs":[)"
      R"({"run_index":0,"seed":11,"solved":true,"rounds_executed":2,"log":{)"
      R"("num_processes":4,"num_rounds":2,"views_recorded":true,)"
      R"("decisions":)";
  out += decisions;
  out += R"(,"crashes":[],"rounds":[)"
         R"({"round":1,"broadcasters":2,"receive_counts":[2,2,2,2],)"
         R"("cd":"++..","cm":"AAAA"},)";
  out += R"({"round":2,"broadcasters":1,"receive_counts":[1,1,1,1],"cd":")";
  out += round2_cd;
  out += R"(","cm":"AAAA"}]}}]})";
  return out;
}

TEST(ReportInspect, TraceDiffFindsFirstDivergentRound) {
  const std::string a =
      trace_doc("+...", R"([{"process":0,"value":3,"round":2}])");
  const std::string b =
      trace_doc(".+..", R"([{"process":0,"value":5,"round":2}])");
  std::string out, error;
  bool differs = false;
  ASSERT_TRUE(diff_traces(a, b, &out, &differs, &error)) << error;
  EXPECT_TRUE(differs);
  EXPECT_NE(out.find("first divergent round: 2"), std::string::npos) << out;
  EXPECT_NE(out.find("cd advice: +... vs .+.."), std::string::npos) << out;
  EXPECT_NE(out.find("decisions: p0=v3@r2  vs  p0=v5@r2"), std::string::npos)
      << out;

  differs = true;
  out.clear();
  ASSERT_TRUE(diff_traces(a, a, &out, &differs, &error)) << error;
  EXPECT_FALSE(differs);
  EXPECT_NE(out.find("1/1 aligned runs identical"), std::string::npos) << out;
}

// ---- bench diff ------------------------------------------------------------

std::string sweep_bench(double runs_per_sec) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                "{\"format\":\"ccd-bench-v1\",\"bench\":\"sweep_throughput\","
                "\"grid\":\"smoke\",\"threads\":4,\"runs\":18,"
                "\"wall_ns\":1000,\"runs_per_sec\":%.3f,\"rounds\":100,"
                "\"rounds_per_sec\":50000.000}",
                runs_per_sec);
  return buffer;
}

TEST(ReportInspect, BenchDiffGatesRegressions) {
  std::string out, error;
  bool regressed = true;
  // 10% drop under a 20% gate: reported, not a regression.
  ASSERT_TRUE(diff_bench(sweep_bench(1000.0), sweep_bench(900.0), 20.0, &out,
                         &regressed, &error))
      << error;
  EXPECT_FALSE(regressed);
  EXPECT_NE(out.find("runs_per_sec: 1000.0 -> 900.0 (-10.0%)"),
            std::string::npos)
      << out;

  // 50% drop trips the gate.
  out.clear();
  ASSERT_TRUE(diff_bench(sweep_bench(1000.0), sweep_bench(500.0), 20.0, &out,
                         &regressed, &error))
      << error;
  EXPECT_TRUE(regressed);
  EXPECT_NE(out.find("REGRESSION"), std::string::npos) << out;

  // Improvements never trip it.
  out.clear();
  ASSERT_TRUE(diff_bench(sweep_bench(1000.0), sweep_bench(5000.0), 20.0, &out,
                         &regressed, &error))
      << error;
  EXPECT_FALSE(regressed);
}

TEST(ReportInspect, BenchDiffAcceptsArraysAndGatesLaneSpeedupOnly) {
  // The CI's BENCH_sweep_throughput.json is a JSON array of bench objects.
  auto bench_array = [](double runs_per_sec, const char* scalar_rate,
                        const char* lane_rate) {
    std::string out = "[";
    out += sweep_bench(runs_per_sec);
    out += ",\n ";
    out += R"({"format":"ccd-bench-v1","bench":"engine_lanes",)";
    out += R"("lane_width":64,"rounds":200,"entries":[)";
    out += R"({"config":"consensus_clique","n":16,)";
    out += std::string("\"scalar_rounds_per_sec\":") + scalar_rate + ",";
    out += std::string("\"lane_rounds_per_sec\":") + lane_rate + ",";
    out += R"("speedup":4.00}]}])";
    return out;
  };
  const std::string old_array = bench_array(1000.0, "100000.0", "400000.0");
  // New run: absolute lane rates halve (slower machine) but speedup holds;
  // must NOT regress.
  const std::string new_array = bench_array(950.0, "50000.0", "200000.0");
  std::string out, error;
  bool regressed = true;
  ASSERT_TRUE(
      diff_bench(old_array, new_array, 20.0, &out, &regressed, &error))
      << error;
  EXPECT_FALSE(regressed) << out;
  EXPECT_NE(out.find("lanes:consensus_clique/n16"), std::string::npos) << out;
  EXPECT_NE(out.find("[not gated]"), std::string::npos) << out;

  // A benchmark disappearing from the new artifact IS gated.
  out.clear();
  ASSERT_TRUE(diff_bench(old_array, sweep_bench(1000.0), 20.0, &out,
                         &regressed, &error))
      << error;
  EXPECT_TRUE(regressed);
  EXPECT_NE(out.find("disappeared"), std::string::npos) << out;
}

}  // namespace
}  // namespace ccd::obs
