#include "fault/failure_adversary.hpp"

namespace ccd {

ScheduledCrash::ScheduledCrash(std::vector<CrashEvent> events)
    : events_(std::move(events)) {
  for (const CrashEvent& e : events_) {
    if (e.round > last_round_) last_round_ = e.round;
  }
}

void ScheduledCrash::crash_before_send(Round round, const ProcessSet& alive,
                                       ProcessSet& out) {
  for (const CrashEvent& e : events_) {
    if (e.round == round && e.point == CrashPoint::kBeforeSend &&
        e.process < alive.size() && alive[e.process]) {
      out.set(e.process);
    }
  }
}

void ScheduledCrash::crash_after_send(Round round, const ProcessSet& alive,
                                      ProcessSet& out) {
  for (const CrashEvent& e : events_) {
    if (e.round == round && e.point == CrashPoint::kAfterSend &&
        e.process < alive.size() && alive[e.process]) {
      out.set(e.process);
    }
  }
}

RandomCrash::RandomCrash(Options opts) : opts_(opts), rng_(opts.seed) {}

void RandomCrash::crash_before_send(Round round, const ProcessSet& alive,
                                    ProcessSet& out) {
  if (round > opts_.stop_after) return;
  std::size_t alive_count = alive.count();
  alive.for_each([&](std::size_t i) {
    if (alive_count <= 1 || crashes_ >= opts_.max_crashes) return;
    if (rng_.chance(opts_.p)) {
      out.set(i);
      ++crashes_;
      --alive_count;
    }
  });
}

}  // namespace ccd
