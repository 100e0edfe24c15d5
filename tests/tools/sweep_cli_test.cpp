// ccd_sweep's integer flags parse exactly: a value outside the field's
// width, a sign, or trailing junk is a keyed error with exit status 2,
// raised while the flags are read -- before any grid is assembled or any
// world built (so "--n -1" cannot reach an allocation of 2^32 processes).
//
// The binary path is injected by CMake as CCD_SWEEP_BIN.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CliResult run_sweep(const std::string& args) {
  const std::string cmd = std::string(CCD_SWEEP_BIN) + " " + args + " 2>&1";
  CliResult r;
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

void expect_rejected(const std::string& args, const std::string& error) {
  const CliResult r = run_sweep(args + " --quiet");
  EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
  EXPECT_EQ(r.output, "ccd_sweep: " + error + "\n") << args;
}

TEST(SweepCli, ProcessCountWiderThanItsFieldIsRejected) {
  // 2^32 + 4: strtoull + static_cast used to run n = 4.
  expect_rejected("--n 4294967300",
                  "bad n value '4294967300': out of range (max 4294967295)");
  expect_rejected("--n 8,4294967296",
                  "bad n value '4294967296': out of range (max 4294967295)");
}

TEST(SweepCli, NegativeProcessCountIsRejected) {
  // Used to wrap to 2^32 - 1 processes and abort with std::bad_alloc.
  expect_rejected("--n -1", "bad n value '-1': not an unsigned decimal integer");
}

TEST(SweepCli, SignsSpacesAndJunkAreRejected) {
  expect_rejected("--n +4", "bad n value '+4': not an unsigned decimal integer");
  expect_rejected("--n ' 4'",
                  "bad n value ' 4': not an unsigned decimal integer");
  expect_rejected("--n 4x", "bad n value '4x': not an unsigned decimal integer");
  expect_rejected("--n 4,", "bad n value '': not an unsigned decimal integer");
  expect_rejected("--grid-seed -3",
                  "bad grid-seed value '-3': not an unsigned decimal integer");
}

TEST(SweepCli, EveryIntegerFlagChecksItsOwnWidth) {
  expect_rejected("--seeds 4294967296",
                  "bad seeds value '4294967296': out of range (max 4294967295)");
  expect_rejected(
      "--max-rounds 4294967296",
      "bad max-rounds value '4294967296': out of range (max 4294967295)");
  expect_rejected("--values 18446744073709551616",
                  "bad num_values value '18446744073709551616': out of range "
                  "(max 18446744073709551615)");
  expect_rejected("--csts 99999999999",
                  "bad cst value '99999999999': out of range (max 4294967295)");
}

}  // namespace
