// LaneEngine: the RoundEngine's batched sibling -- up to 64 structurally
// identical worlds ("lanes", one per seed of a sweep cell) advance through
// Definition 11's W/M/N/D/C round structure in lockstep, sharing one round
// counter, one topology, and one set of adjacency bitmask rows.
//
// Layout is struct-of-arrays in BOTH directions:
//
//  * process words -- per lane, the alive / halted / participating / sent
//    / crash masks are ProcessSets, ceil(n/64) `uint64_t`s wide, and they
//    are the ONLY copy: the same objects are handed to the components
//    (ContentionManager::advise, FailureAdversary::crash_*,
//    LossAdversary::decide_delivery), so no per-process mirror is kept in
//    sync.  The delivery loops iterate SET BITS of `sent & row(i)`, where
//    row(i) is receiver i's adjacency row on a graph, its word row of the
//    DeliveryMatrix under a loss adversary, or both ANDed on a graph with
//    loss -- instead of probing all n senders per receiver:
//    O(delivered + n/64) word operations per receiver rather than O(n).
//
//  * lane words -- per process, one `uint64_t` whose bit l mirrors lane
//    l's alive / decided flag.  Cross-lane sweeps (which lanes still have
//    an undecided correct process?) are one AND-NOT per process for all 64
//    seeds at once, so per-lane termination divergence costs O(n) words
//    per round, not O(n * lanes) flag tests.
//
// EQUIVALENCE CONTRACT (the whole point -- see
// tests/engine/lane_differential_test.cpp and, past one process word,
// tests/engine/lane_multiword_test.cpp): a lane's observable execution
// is byte-for-byte the scalar RoundEngine's.  Each lane owns its OWN
// component objects (cm / cd / loss / fault / processes / link RNG), built
// exactly as the scalar path builds them, and the engine performs the SAME
// component calls with the SAME arguments in the SAME order as
// RoundEngine::step() would per lane -- so every RNG stream advances
// identically and reports, golden FNV-1a hashes, and per-run EngineCounters
// are exact.  The speedup comes only from engine-owned bookkeeping:
//
//  * bitmask words replace per-process scans (masks, termination);
//  * senders are iterated as set bits, never scanned;
//  * per-round traces are not recorded (reports never read them; the
//    scalar consensus adapter records them unconditionally);
//  * halted() is memoized -- it can only change inside that process's own
//    on_send/on_receive, so the cache is re-queried exactly there and the
//    per-round n virtual participation probes disappear;
//  * statically neutral components short-circuit: NoLoss
//    (LossAdversary::always_delivers) skips the delivery matrix entirely,
//    NoFailures (FailureAdversary::never_crashes) skips both crash points.
//    Both are stateless and RNG-free, so skipping the calls is
//    unobservable.
//
// Divergence rule: lanes share the round counter but not a fate.  A lane
// that terminates (all correct processes decided, or the caller retires it)
// drops out of the active mask and is never stepped again; the remaining
// lanes keep advancing.  Worlds whose structure itself diverges per seed
// (random-geometric topologies, phase-2 consensus among a seed-dependent
// head count, n = 0) do not enter the lane path at all -- exp::LaneExecutor
// routes them to the scalar engine (the "scalar tail", which also absorbs
// the S mod 64 remainder of a cell's seeds).
#pragma once

#include <cstdint>
#include <vector>

#include "engine/round_engine.hpp"
#include "model/process_set.hpp"
#include "multihop/topology.hpp"
#include "obs/telemetry.hpp"
#include "sim/execution_log.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace ccd {

/// Max lanes per engine: one bit of a uint64_t lane word per seed.
inline constexpr std::size_t kLaneWidth = 64;

struct LaneOptions {
  /// run(): retire a lane as soon as every non-crashed process decided
  /// (the scalar engine's stop_when_all_decided).  Callers driving step()
  /// directly (flood / MIS budget loops) retire lanes themselves.
  bool stop_when_all_decided = true;
};

class LaneEngine {
 public:
  /// All worlds must agree on process count, topology (adjacency is shared
  /// from worlds[0]), channel, scope, and link model; each keeps its own
  /// components and link_seed.  1 <= worlds.size() <= kLaneWidth, n >= 1.
  explicit LaneEngine(std::vector<EngineWorld> worlds, LaneOptions options = {});

  std::size_t lanes() const { return lanes_; }
  std::size_t size() const { return n_; }
  Round current_round() const { return round_; }
  const Topology& topology() const { return worlds_[0].topology; }

  /// Advance every active lane exactly one round (lockstep).
  void step();

  /// Consensus driving: mirror RoundEngine::run(max_rounds) per lane --
  /// the stop condition is evaluated before each step, lanes retire
  /// individually, and results() afterwards equal the scalar engine's
  /// RunResult per lane.
  void run(Round max_rounds);

  /// Lanes still being stepped (bit l = lane l).
  std::uint64_t active_mask() const { return active_; }
  bool lane_active(std::size_t l) const { return (active_ >> l) & 1u; }

  /// Stop stepping a lane and snapshot its RunResult (budget loops call
  /// this when a lane meets its workload-specific completion condition).
  void retire(std::size_t l);

  /// Valid after the lane retired (or run() returned).
  const RunResult& result(std::size_t l) const { return results_[l]; }

  const World& world(std::size_t l) const { return worlds_[l].world; }
  Process& process(std::size_t l, std::size_t i) {
    return *worlds_[l].world.processes[i];
  }
  bool alive(std::size_t l, std::size_t i) const {
    return (alive_lw_[i] >> l) & 1u;
  }
  std::size_t num_alive(std::size_t l) const { return num_alive_[l]; }
  std::uint64_t crashes_applied(std::size_t l) const {
    return crashes_applied_[l];
  }
  std::uint64_t total_broadcasts(std::size_t l) const {
    return total_broadcasts_[l];
  }
  bool all_correct_decided(std::size_t l) const;
  const ExecutionLog& log(std::size_t l) const { return logs_[l]; }
  const obs::EngineCounters& counters(std::size_t l) const {
    return counters_[l];
  }

 private:
  void commit_crashes(std::size_t l, Round r);
  void lane_round(std::size_t l, Round r);
  void deliver_matrix_global(std::size_t l, Round r);
  void deliver_matrix_local(std::size_t l, Round r);
  void deliver_capture(std::size_t l);
  void note_halt_state(std::size_t l, std::size_t i);

  std::size_t lanes_ = 0;
  std::size_t n_ = 0;
  std::size_t words_ = 0;  ///< process words per lane row: ceil(n/64)
  LaneOptions options_;
  Round round_ = 0;
  std::uint64_t active_ = 0;

  std::vector<EngineWorld> worlds_;
  std::vector<Rng> link_rng_;

  // Shared across lanes: adjacency bit rows (row i = neighbors of i).
  std::vector<std::uint64_t> adj_;  // [n][words_]

  // Process masks, per lane -- also the masks the components receive.
  std::vector<ProcessSet> alive_;
  std::vector<ProcessSet> halted_;
  std::vector<ProcessSet> participating_;  // round-start snapshot
  std::vector<ProcessSet> sent_;
  std::vector<ProcessSet> crash_;  // the failure adversary's latest marks

  // Lane words, per process (bit l = lane l).
  std::vector<std::uint64_t> alive_lw_;
  std::vector<std::uint64_t> decided_lw_;

  // Per-lane component outputs and receive state.
  std::vector<std::vector<CmAdvice>> cm_advice_;
  std::vector<std::vector<CdAdvice>> cd_advice_;
  std::vector<std::vector<std::uint32_t>> recv_count_;
  std::vector<std::vector<std::uint32_t>> local_c_;
  std::vector<std::vector<Message>> sent_msg_;          // [l][i], sent bit = valid
  std::vector<std::vector<std::vector<Message>>> recv_;  // [l][i] multisets

  // Per-lane tallies.
  std::vector<obs::EngineCounters> counters_;
  std::vector<ExecutionLog> logs_;
  std::vector<std::vector<Value>> decided_value_;
  std::vector<std::uint64_t> total_broadcasts_;
  std::vector<std::uint64_t> crashes_applied_;
  std::vector<std::size_t> num_alive_;
  std::vector<std::uint32_t> broadcaster_count_;
  std::vector<RunResult> results_;

  // Shared scratch (consumed within one lane's delivery phase).
  DeliveryMatrix delivery_;
  std::vector<std::uint32_t> broadcasting_neighbors_;
  /// Loss-free clique fast path: with a statically-all-delivering loss
  /// model every participating receiver observes the SAME multiset, so
  /// deliver_matrix_global builds it once here and C_r hands every
  /// on_receive this shared view instead of a per-receiver copy.  Valid
  /// only within the lane_round that set recv_shared_.
  std::vector<Message> shared_recv_;
  bool recv_shared_ = false;
};

}  // namespace ccd
