// LaneEngine: THE round executor.  It drives Definition 11's round
// structure -- W_r contention advice, M_r message assignment, N_r receive
// multisets, D_r collision-detector advice, C_r transitions, with the
// Section 3.3 crash adversary at both crash points -- over an arbitrary
// Topology, for 1 to 64 structurally identical worlds ("lanes") at once.
// The paper's single-hop model is the clique special case; the multihop
// extension its conclusion announces is every other graph.  A width-1
// engine is the per-run executor (sim::Executor, MultihopExecutor and
// run_consensus are thin adapters over one); a 64-wide engine runs up to
// 64 seeds of one sweep cell in lockstep, sharing one round counter, one
// topology, and one set of adjacency bitmask rows.  There is exactly one
// implementation of the round semantics.
//
// Two orthogonal configuration axes cover the single-hop and multihop
// semantics and their compositions:
//
//  * ChannelModel -- who decides message loss.
//      kMatrix:  a LossAdversary fills a (receiver, sender) delivery
//                matrix (the paper's Section 3.2 environment); the engine
//                additionally masks delivery by topology adjacency, which
//                on a clique is a no-op (the exact single-hop semantics)
//                and on any other graph composes the adversary with the
//                neighborhood structure.
//      kCapture: per-neighborhood capture-effect physics (MhLinkModel): a
//                lone broadcasting neighbor arrives with p_single; under
//                contention each receiver independently captures at most
//                one neighbor with p_capture.
//
//  * CollisionScope -- what a collision detector sees.
//      kGlobal: the single-hop Definition 6 oracle: one global broadcaster
//               count c, advice for every process from OracleDetector::
//               advise (clique topologies only -- on a clique the local
//               count degenerates to c).
//      kLocal:  per-neighborhood counts c_i = |{j broadcasting : j == i or
//               j ~ i}| with advice from the same DetectorSpec envelope
//               evaluated per receiver (OracleDetector::advise_local).
//
// Crash-point visibility follows the scope: kGlobal keeps the literal
// Definition 11 reading (an after-send crasher's round-r view N_r[i] still
// forms -- it feeds the detector's t vector -- only its transition is
// skipped), while kLocal removes the crasher from the channel immediately
// (a dead radio neither receives nor shows up in later neighborhoods, and
// its detector advice reads null).  Both are faithful to "C_r[i] = fail".
//
// Layout is struct-of-arrays in BOTH directions:
//
//  * process words -- per lane, the alive / halted / participating / sent
//    / crash masks are ProcessSets, ceil(n/64) `uint64_t`s wide, and they
//    are the ONLY copy: the same objects are handed to the components
//    (ContentionManager::advise, FailureAdversary::crash_*,
//    LossAdversary::decide_delivery).  The delivery loops iterate SET BITS
//    of `sent & row(i)`, where row(i) is receiver i's adjacency row on a
//    graph, its word row of the DeliveryMatrix under a loss adversary, or
//    both ANDed on a graph with loss -- O(delivered + n/64) word
//    operations per receiver rather than O(n).
//
//  * lane words -- per process, one `uint64_t` whose bit l mirrors lane
//    l's alive / decided flag.  Cross-lane sweeps (which lanes still have
//    an undecided correct process?) are one AND-NOT per process for all 64
//    seeds at once.
//
// Receive arena: N_r writes every receiver's multiset into ONE flat
// engine-wide buffer, receiver i's as a sorted range [offset_i, offset_i +
// T(i)); C_r hands on_receive that range as a span, and view recording
// copies it.  The three delivery paths (lossy clique rows, adjacency-
// masked kLocal rows, capture receivers) differ only in which sender bits
// they walk; self-delivery is ORed into the receiver's own row walk.
// Ranges of 0-2 messages are sorted by at most one compare-swap (equal
// Messages are byte-identical, so the bytes cannot depend on the sort).
// Under a statically all-delivering loss model on a clique every
// participant observes the same multiset, so it is built and sorted once
// and every participant points at that one range.
//
// Process status: decided() / decision() / halted() are plain loads on
// Process (set through its protected decide() / halt()), read once per
// process per transition -- not virtual probes.
//
// LANE CONTRACT: each lane owns its OWN component objects (cm / cd / loss
// / fault / processes / link RNG), and the engine performs the same
// component calls with the same arguments in the same order for a lane
// whatever the width -- so every RNG stream advances identically and a
// lane's execution (reports, golden FNV-1a hashes, per-run EngineCounters)
// does not depend on which other lanes share its engine.  The engine
// equivalence tests (tests/engine/) hold both the 64-wide and the width-1
// path to report and counter digests frozen from the retired per-run
// engine.  Engine-owned shortcuts that are unobservable by construction:
//
//  * the halted mask is event-maintained -- halted() can only change
//    inside that process's own on_send/on_receive, so the mask re-reads it
//    exactly there;
//  * statically neutral components short-circuit: NoLoss
//    (LossAdversary::always_delivers) skips the delivery matrix, NoFailures
//    (FailureAdversary::never_crashes) skips both crash points.  Both are
//    stateless and RNG-free, so skipping the calls is unobservable.
//
// Divergence rule: lanes share the round counter but not a fate.  A lane
// that terminates (all correct processes decided, or the caller retires it)
// drops out of the active mask and is never stepped again; the remaining
// lanes keep advancing.  Worlds whose structure itself diverges per seed
// (random-geometric topologies, phase-2 consensus among a seed-dependent
// head count) run as width-1 engines.
//
// Recording: decisions and crashes are always logged per lane.  With
// EngineOptions::record_rounds each lane's ExecutionLog also receives the
// per-round transmission / cd / cm traces, and with record_views the
// per-process RoundViews (the --rerun-cell trace-capture path).  Sweeps
// record neither; once the receive arena has reached its high-water mark
// (the first few rounds) a step() performs no heap allocation --
// engine_lane_alloc_test holds a 64-wide crash-grid block to that with a
// counting operator new, and bench_sim_micro's BM_EngineRound* pin the
// throughput.
//
// Phase timers: with EngineOptions::phases set, one lane-round in
// obs::kPhaseSampleEvery is timed phase by phase (crash points, CM,
// send, delivery, CD, receive) and one termination sweep in as many
// (obs/engine_phases.hpp); off, the cost is one predictable branch per
// lane-round.  ccd_sweep --perf-out turns them on and emits the sums as
// the perf sidecar's "engine_phases".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/process_set.hpp"
#include "multihop/topology.hpp"
#include "obs/engine_phases.hpp"
#include "obs/telemetry.hpp"
#include "sim/execution_log.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace ccd {

/// Max lanes per engine: one bit of a uint64_t lane word per seed.
inline constexpr std::size_t kLaneWidth = 64;

/// Capture-effect link physics for ChannelModel::kCapture (the Section 1.1
/// radio regime): p_single is the lone-neighbor delivery probability (1.0
/// models collision freedom), p_capture the chance a receiver captures one
/// of several broadcasting neighbors.
struct MhLinkModel {
  double p_single = 1.0;
  double p_capture = 0.5;
};

enum class ChannelModel : std::uint8_t { kMatrix, kCapture };
enum class CollisionScope : std::uint8_t { kGlobal, kLocal };

/// Everything one lane drives: the paper's "system" (World) plus the
/// communication graph and the channel/detector-scope configuration.
struct EngineWorld {
  World world;          ///< processes + cm/cd/loss/fault (null = neutral)
  /// Communication graph; Topology::clique(n) recovers single-hop.
  Topology topology = Topology::clique(0);
  ChannelModel channel = ChannelModel::kMatrix;
  CollisionScope scope = CollisionScope::kGlobal;
  MhLinkModel link;     ///< kCapture physics; ignored by kMatrix
  std::uint64_t link_seed = 0;  ///< kCapture RNG stream seed
};

struct EngineOptions {
  /// Record per-process views in each lane's log (needs record_rounds).
  bool record_views = true;
  /// Record per-round traces (transmission/cd/cm) in each lane's log.
  /// Decisions and crashes are always recorded.  Off = the
  /// allocation-free mode sweeps run in.
  bool record_rounds = true;
  /// run(): retire a lane as soon as every non-crashed process decided.
  /// Callers driving step() directly (flood / MIS budget loops) retire
  /// lanes themselves.
  bool stop_when_all_decided = true;
  /// Phase-timer sink: when set, one lane-round (and one termination
  /// sweep) in obs::kPhaseSampleEvery is timed phase by phase and added
  /// to its totals.  Null = off, at the cost of one predictable branch per
  /// lane-round.  Observation only; never changes an execution.
  obs::PhaseSampler* phases = nullptr;
};

struct RunResult {
  bool all_correct_decided = false;
  Round last_decision_round = 0;  ///< max decision round among correct procs
  Round rounds_executed = 0;
  std::uint32_t num_crashed = 0;
};

class LaneEngine {
 public:
  /// All worlds must agree on process count, topology (adjacency is shared
  /// from worlds[0]), channel, scope, and link model; each keeps its own
  /// components and link_seed.  1 <= worlds.size() <= kLaneWidth.
  explicit LaneEngine(std::vector<EngineWorld> worlds,
                      EngineOptions options = {});
  /// A width-1 engine: the per-run executor.
  explicit LaneEngine(EngineWorld world, EngineOptions options = {});

  std::size_t lanes() const { return lanes_; }
  std::size_t size() const { return n_; }
  Round current_round() const { return round_; }
  const Topology& topology() const { return worlds_[0].topology; }

  /// Advance every active lane exactly one round (lockstep).  Once every
  /// lane has retired, a no-op: current_round() stays put.
  void step();

  /// Step until every lane retires: a lane retires once all its correct
  /// processes decided (stop_when_all_decided, checked before each step)
  /// or max_rounds elapsed.  n = 0 retires every lane at once, all
  /// decided, with no rounds.  Read each lane's result() afterwards.
  void run(Round max_rounds);

  /// The budget loop of workloads with their own completion condition
  /// (flood coverage, MIS settlement): step every active lane, then retire
  /// each lane l for which done(l, r) holds after round r; lanes still
  /// active after `budget` rounds retire then.
  template <typename Done>
  void run_until(Round budget, Done done) {
    for (Round r = 1; r <= budget && active_; ++r) {
      step();
      termination_sweep([&] {
        for_each_bit(active_, 0, [&](std::size_t l) {
          if (done(l, r)) retire(l);
        });
      });
    }
    for_each_bit(active_, 0, [&](std::size_t l) { retire(l); });
  }

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
  /// Crashes the failure adversary actually landed (alive targets only).
  std::uint64_t crashes_applied(std::size_t l) const {
    return crashes_applied_[l];
  }
  /// Broadcasts attempted over all executed rounds (the per-node energy
  /// budget of the Section 1.1 literature).
  std::uint64_t total_broadcasts(std::size_t l) const {
    return total_broadcasts_[l];
  }
  bool decided(std::size_t l, std::size_t i) const {
    return (decided_lw_[i] >> l) & 1u;
  }
  Value decision(std::size_t l, std::size_t i) const {
    return decided_value_[l][i];
  }
  /// True iff every non-crashed process of lane l has decided.
  bool all_correct_decided(std::size_t l) const;
  const ExecutionLog& log(std::size_t l) const { return logs_[l]; }
  /// Move lane l's log out (trace capture); log(l) is unusable after.
  ExecutionLog take_log(std::size_t l) { return std::move(logs_[l]); }

  /// Telemetry tallies for lane l's execution so far.  Plain engine-local
  /// increments (no atomics in the hot loop) and -- like the execution
  /// itself -- a pure function of the lane's EngineWorld, so counter
  /// totals are deterministic and shard merges sum them exactly.  Never
  /// feeds the Aggregator: reports stay byte-identical with telemetry on
  /// or off.
  const obs::EngineCounters& counters(std::size_t l) const {
    return counters_[l];
  }

  /// Lane l's last executed round, per process: receive count T(i), local
  /// broadcaster count c_i (kGlobal: the global c), detector advice.
  std::uint32_t last_receive_count(std::size_t l, std::size_t i) const {
    return recv_count_[l][i];
  }
  std::uint32_t last_local_broadcasters(std::size_t l, std::size_t i) const {
    return local() ? local_c_[l][i] : broadcaster_count_[l];
  }
  CdAdvice last_cd(std::size_t l, std::size_t i) const {
    return cd_advice_[l][i];
  }

 private:
  bool local() const { return worlds_[0].scope == CollisionScope::kLocal; }
  /// Receiver i's round multiset in lane l's current lane-round.
  std::span<const Message> inbox(std::size_t l, std::size_t i) const {
    return {arena_.data() + recv_off_[i], recv_count_[l][i]};
  }
  /// The arena, grown to hold at least `bound` messages.
  Message* arena(std::size_t bound);
  /// Run one termination sweep, timed when its sample is due.
  template <typename Sweep>
  void termination_sweep(Sweep sweep) {
    if (options_.phases && options_.phases->sweep_due()) [[unlikely]] {
      obs::EnginePhases& totals = options_.phases->totals();
      ++totals.sampled_sweeps;
      obs::PhaseClock clock(&totals);
      sweep();
      clock.lap(obs::EnginePhase::kTermination);
    } else {
      sweep();
    }
  }
  void commit_crashes(std::size_t l, Round r);
  /// One lane-round; `timed` (null = untimed) receives its phase laps.
  void lane_round(std::size_t l, Round r, obs::EnginePhases* timed);
  void deliver_matrix_global(std::size_t l, Round r);
  void deliver_matrix_local(std::size_t l, Round r);
  void deliver_capture(std::size_t l);
  void record_round(std::size_t l);
  void note_halt_state(std::size_t l, std::size_t i);

  std::size_t lanes_ = 0;
  std::size_t n_ = 0;
  std::size_t words_ = 0;  ///< process words per lane row: ceil(n/64)
  std::size_t max_degree_ = 0;
  EngineOptions options_;
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
  std::vector<std::vector<Message>> sent_msg_;  // [l][i], sent bit = valid

  // Per-lane tallies.
  std::vector<obs::EngineCounters> counters_;
  std::vector<ExecutionLog> logs_;
  std::vector<std::vector<Value>> decided_value_;
  std::vector<std::uint64_t> total_broadcasts_;
  std::vector<std::uint64_t> crashes_applied_;
  std::vector<std::size_t> num_alive_;
  std::vector<std::uint32_t> broadcaster_count_;
  std::vector<RunResult> results_;

  // Shared scratch, consumed within one lane-round.
  DeliveryMatrix delivery_;
  std::vector<std::uint32_t> broadcasting_neighbors_;
  /// The receive arena: N_r writes every receiver's multiset into this
  /// one flat buffer, receiver i's at [recv_off_[i], + recv_count_[l][i]),
  /// sorted; C_r and record_round read it back through inbox().  Under
  /// the loss-free clique fast path every participant points at the same
  /// range.  It only grows, so a lane-round allocates nothing once it has
  /// reached its high-water mark.
  std::vector<Message> arena_;
  std::vector<std::uint32_t> recv_off_;
};

}  // namespace ccd
