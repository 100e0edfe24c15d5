// Engine phase timers: where a LaneEngine round spends its time, split
// along Definition 11's round structure.
//
// The engine times ONE lane-round in kPhaseSampleEvery (and one
// termination sweep in as many sweeps): a PhaseClock reads the steady
// clock at every phase boundary of that lane-round and charges each lap to
// the phase that just ran.  Sampling keeps the cost of the clock reads far
// below the noise of the work they time; because every phase is sampled at
// the same rate, the per-phase sums are directly comparable shares of the
// engine's time.  With no sink attached the engine pays one predictable
// branch per lane-round.
//
// Like every obs/ datum the timings are pure observation: they land in the
// perf sidecar ("engine_phases") and never reach a report, so report bytes
// are identical with the timers on or off.  The sampled COUNTS are a pure
// function of the engines executed; the nanoseconds are physics.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "obs/telemetry.hpp"

namespace ccd::obs {

enum class EnginePhase : std::uint8_t {
  kCrash,        ///< crash points A and B: adversary calls and commits
  kCm,           ///< W_r: participation snapshot and advise
  kSend,         ///< M_r: on_send per participant
  kDelivery,     ///< N_r: loss adversary and receive-multiset assembly
  kCd,           ///< D_r: collision-detector advice (and the CM's
                 ///< observe() of the broadcaster count that follows it)
  kReceive,      ///< C_r: on_receive and decision bookkeeping
  kTermination,  ///< the per-step retire sweep (all lanes at once)
  kCount
};
inline constexpr std::size_t kNumEnginePhases =
    static_cast<std::size_t>(EnginePhase::kCount);

/// Sidecar keys, indexed by EnginePhase.
inline constexpr const char* kEnginePhaseKeys[kNumEnginePhases] = {
    "crash_ns", "cm_ns",      "send_ns",       "delivery_ns",
    "cd_ns",    "receive_ns", "termination_ns"};

/// One lane-round (and one termination sweep) in this many is timed.
inline constexpr std::uint32_t kPhaseSampleEvery = 64;

/// Sampled phase time, summed over engines, workers and shards.
struct EnginePhases {
  std::uint64_t sampled_rounds = 0;  ///< lane-rounds timed
  std::uint64_t sampled_sweeps = 0;  ///< termination sweeps timed
  std::array<std::uint64_t, kNumEnginePhases> ns{};  ///< by EnginePhase

  void add(const EnginePhases& other) {
    sampled_rounds += other.sampled_rounds;
    sampled_sweeps += other.sampled_sweeps;
    for (std::size_t p = 0; p < kNumEnginePhases; ++p) ns[p] += other.ns[p];
  }
  friend bool operator==(const EnginePhases&, const EnginePhases&) = default;
};

/// The sink an engine fills: the running totals plus the sampling cadence.
/// The cadence carries across engines, so a worker's many short runs (a
/// few dozen lane-rounds each) are sampled at the same 1-in-64 rate as
/// one long run.  One sampler per thread; not thread-safe.
class PhaseSampler {
 public:
  bool round_due() { return ++round_tick_ % kPhaseSampleEvery == 0; }
  bool sweep_due() { return ++sweep_tick_ % kPhaseSampleEvery == 0; }
  EnginePhases& totals() { return totals_; }
  const EnginePhases& totals() const { return totals_; }

 private:
  EnginePhases totals_;
  std::uint32_t round_tick_ = 0;
  std::uint32_t sweep_tick_ = 0;
};

/// Lap stopwatch over one lane-round or sweep: lap(p) charges the time
/// since the previous lap (or construction) to phase p.  Without a sink
/// the clock is off and lap() is one predictable branch.  Timed and
/// untimed lane-rounds thus run the same code: a separate timed copy of
/// the round loop would run cold once in 64 rounds and cost more than the
/// clock reads it exists for.
class PhaseClock {
 public:
  explicit PhaseClock(EnginePhases* sink)
      : sink_(sink), last_(sink ? RunTimer::now_ns() : 0) {}
  void lap(EnginePhase p) {
    if (!sink_) return;
    const std::uint64_t now = RunTimer::now_ns();
    sink_->ns[static_cast<std::size_t>(p)] += now - last_;
    last_ = now;
  }

 private:
  EnginePhases* sink_;
  std::uint64_t last_;
};

}  // namespace ccd::obs
