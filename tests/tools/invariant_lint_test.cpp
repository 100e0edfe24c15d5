// Fixture tests for ccd_invariant_lint: every rule R1-R5 is proven live
// by a violating fixture that must fail with the expected keyed
// diagnostic, a clean fixture that must pass (including forbidden tokens
// hidden in comments/strings/raw strings), plus the allowlist workflow
// (suppression, stale entries, missing justifications) and exit codes.
//
// The lint binary path and fixture directory are injected by CMake as
// CCD_LINT_BIN / CCD_LINT_FIXTURES / CCD_REPO_ROOT.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace {

struct LintResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

LintResult run_lint(const std::string& args) {
  const std::string cmd = std::string(CCD_LINT_BIN) + " " + args + " 2>&1";
  LintResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (!pipe) return r;
  char buf[4096];
  std::size_t got = 0;
  while ((got = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    r.output.append(buf, got);
  }
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string fixtures() { return CCD_LINT_FIXTURES; }

}  // namespace

TEST(InvariantLint, BadTreeFailsWithKeyedDiagnosticsForEveryRule) {
  const LintResult r = run_lint("--root " + fixtures() + "/bad");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // R1: nondeterminism sources.
  EXPECT_NE(r.output.find("src/exp/r1_rand.cpp:6: error: [R1.rand]"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/exp/r1_rand.cpp:7: error: [R1.rand]"),
            std::string::npos);
  EXPECT_NE(r.output.find("src/exp/r1_rand.cpp:8: error: [R1.rand]"),
            std::string::npos);
  EXPECT_NE(r.output.find("src/model/r1_time.cpp:6: error: [R1.wall_clock]"),
            std::string::npos);
  EXPECT_NE(r.output.find("src/model/r1_time.cpp:7: error: [R1.wall_clock]"),
            std::string::npos);
  EXPECT_NE(
      r.output.find("src/exp/r1_unordered.cpp:5: error: [R1.unordered]"),
      std::string::npos);
  // R2: raw engine outside util/.
  EXPECT_NE(r.output.find("src/net/r2_engine.cpp:5: error: [R2.raw_engine]"),
            std::string::npos);
  // R3: layering, both the obs-isolation edge and a generic up-include.
  EXPECT_NE(r.output.find("src/obs/r3_obs.cpp:3: error: [R3.layering]"),
            std::string::npos);
  EXPECT_NE(r.output.find("obs/ must never feed back into execution"),
            std::string::npos);
  EXPECT_NE(r.output.find("src/model/r3_up.hpp:3: error: [R3.layering]"),
            std::string::npos);
  EXPECT_NE(
      r.output.find("src/weird/r3_unknown.cpp:1: error: [R3.unknown_layer]"),
      std::string::npos);
  // R3: dispatcher sub-layer isolation (a plain up-DAG check would miss
  // this -- exp outranks engine, so only the dispatch rule fires).
  EXPECT_NE(r.output.find(
                "src/exp/dispatch/r3_dispatch.cpp:3: error: [R3.dispatch]"),
            std::string::npos)
      << r.output;
  // R4: float accumulation in a report path.
  EXPECT_NE(r.output.find("src/exp/r4_acc.cpp:5: error: [R4.float_accum]"),
            std::string::npos);
  // R5: a std::vector<bool> mask in a component's virtual interface.
  EXPECT_NE(r.output.find("src/cm/r5_masks.hpp:10: error: [R5.masks]"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("14 error(s)"), std::string::npos) << r.output;
}

TEST(InvariantLint, GoodTreeIsClean) {
  // Forbidden tokens in comments/strings/raw strings, wall clock in obs/,
  // unordered containers outside report paths, raw engines inside util/,
  // std::vector<bool> outside an engine header's virtual interface: all
  // must pass.
  const LintResult r = run_lint("--root " + fixtures() + "/good");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 error(s)"), std::string::npos) << r.output;
}

TEST(InvariantLint, AllowlistSuppressesPerRuleAndFile) {
  const LintResult r =
      run_lint("--root " + fixtures() + "/bad --allow " + fixtures() +
               "/allow_r1_rand.txt src/exp/r1_rand.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 error(s), 3 suppressed by allowlist"),
            std::string::npos)
      << r.output;
}

TEST(InvariantLint, StaleAllowlistEntryIsAnError) {
  // Same allowlist, but scanning a file it does not apply to: the unused
  // entry must fail the run so the allowlist can only shrink.
  const LintResult r =
      run_lint("--root " + fixtures() + "/bad --allow " + fixtures() +
               "/allow_r1_rand.txt src/model/r1_time.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[allowlist.stale]"), std::string::npos)
      << r.output;
}

TEST(InvariantLint, AllowlistEntryWithoutJustificationIsAnError) {
  const LintResult r =
      run_lint("--root " + fixtures() + "/bad --allow " + fixtures() +
               "/allow_nojust.txt src/exp/r1_rand.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[allowlist.missing_justification]"),
            std::string::npos)
      << r.output;
  // The malformed entry must NOT suppress the findings it names.
  EXPECT_NE(r.output.find("src/exp/r1_rand.cpp:8: error: [R1.rand]"),
            std::string::npos);
}

TEST(InvariantLint, AllowlistEntryWithUnknownRuleIsAnError) {
  const LintResult r =
      run_lint("--root " + fixtures() + "/bad --allow " + fixtures() +
               "/allow_unknown_rule.txt src/exp/r1_rand.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[allowlist.unknown_rule]"), std::string::npos)
      << r.output;
}

TEST(InvariantLint, ListRulesPrintsCatalog) {
  const LintResult r = run_lint("--list-rules");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* key :
       {"R1.rand", "R1.wall_clock", "R1.unordered", "R2.raw_engine",
        "R3.layering", "R3.dispatch", "R4.float_accum", "R5.masks"}) {
    EXPECT_NE(r.output.find(key), std::string::npos) << key;
  }
}

TEST(InvariantLint, UnknownFlagExitsTwo) {
  const LintResult r = run_lint("--bogus-flag");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(InvariantLint, RealTreeRunsClean) {
  // The acceptance criterion, enforced as a test: the shipped tree (with
  // its checked-in allowlist) must lint clean.
  const LintResult r = run_lint("--root " + std::string(CCD_REPO_ROOT));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find(" 0 error(s)"), std::string::npos) << r.output;
}
