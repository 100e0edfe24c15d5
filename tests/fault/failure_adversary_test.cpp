#include "fault/failure_adversary.hpp"

#include <gtest/gtest.h>

namespace ccd {
namespace {

TEST(NoFailures, NeverCrashesAnyone) {
  NoFailures fault;
  ProcessSet alive(4, true);
  ProcessSet out(4);
  for (Round r = 1; r <= 10; ++r) {
    fault.crash_before_send(r, alive, out);
    fault.crash_after_send(r, alive, out);
  }
  EXPECT_FALSE(out.any());
  EXPECT_EQ(fault.last_crash_round(), 0u);
}

TEST(ScheduledCrash, FiresAtExactRoundAndPoint) {
  ScheduledCrash fault({{3, 1, CrashPoint::kBeforeSend},
                        {5, 2, CrashPoint::kAfterSend}});
  ProcessSet alive(4, true);
  ProcessSet out(4);

  fault.crash_before_send(3, alive, out);
  EXPECT_TRUE(out[1]);
  EXPECT_FALSE(out[2]);

  out.clear();
  fault.crash_after_send(3, alive, out);
  EXPECT_FALSE(out[1]);  // wrong point

  out.clear();
  fault.crash_after_send(5, alive, out);
  EXPECT_TRUE(out[2]);

  EXPECT_EQ(fault.last_crash_round(), 5u);
}

TEST(ScheduledCrash, IgnoresAlreadyDeadTargets) {
  ScheduledCrash fault({{2, 0, CrashPoint::kBeforeSend}});
  ProcessSet alive = ProcessSet::of({false, true});
  ProcessSet out(2);
  fault.crash_before_send(2, alive, out);
  EXPECT_FALSE(out[0]);
}

TEST(RandomCrash, NeverKillsLastSurvivor) {
  RandomCrash fault({.p = 1.0, .stop_after = 100, .max_crashes = 100,
                     .seed = 3});
  ProcessSet alive(5, true);
  for (Round r = 1; r <= 100; ++r) {
    ProcessSet out(5);
    fault.crash_before_send(r, alive, out);
    out.for_each([&](std::size_t i) { alive.unset(i); });
    ASSERT_GE(alive.count(), 1u);
  }
  EXPECT_EQ(alive.count(), 1u);  // p = 1.0 kills everyone else immediately
}

TEST(RandomCrash, RespectsMaxCrashes) {
  RandomCrash fault({.p = 1.0, .stop_after = 100, .max_crashes = 2,
                     .seed = 4});
  ProcessSet alive(6, true);
  int total = 0;
  for (Round r = 1; r <= 100; ++r) {
    ProcessSet out(6);
    fault.crash_before_send(r, alive, out);
    out.for_each([&](std::size_t i) {
      alive.unset(i);
      ++total;
    });
  }
  EXPECT_EQ(total, 2);
}

TEST(RandomCrash, StopsAfterConfiguredRound) {
  RandomCrash fault({.p = 0.5, .stop_after = 3, .max_crashes = 100,
                     .seed = 5});
  ProcessSet alive(4, true);
  ProcessSet out(4);
  fault.crash_before_send(4, alive, out);
  EXPECT_FALSE(out.any());
  EXPECT_EQ(fault.last_crash_round(), 3u);
}

}  // namespace
}  // namespace ccd
