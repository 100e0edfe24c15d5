// ScenarioSpec: a declarative, serializable description of ONE simulation
// run -- which algorithm, which detector class and advice policy, which
// contention manager, loss and failure adversaries, how many processes,
// which value space, where the stabilization point falls, and the run seed.
// Multihop runs additionally carry a topology kind (with a density knob for
// random-geometric graphs) and a workload selector.
//
// Specs are plain data: the cross-product machinery (SweepGrid) enumerates
// them, the WorldFactory materializes them into a World (single-hop) or a
// MultihopExecutor workload, and reports carry them as the row identity.
// Every spec round-trips through a flat JSON object so grids and results
// are self-describing on disk.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/failure_adversary.hpp"
#include "model/types.hpp"

namespace ccd::jsonu {
class Reader;
}  // namespace ccd::jsonu

namespace ccd::exp {

/// Which protocol a consensus run executes (Section 7's upper bounds plus
/// the no-detector foil the impossibility results rule out).
enum class AlgKind : std::uint8_t {
  kAlg1,   ///< Algorithm 1 (Section 7.1): constant rounds after CST with a
           ///< majority-complete detector (Theorem 1).
  kAlg2,   ///< Algorithm 2 (Section 7.2): O(lg|V|) rounds after CST with
           ///< any zero-complete detector (Theorem 2), matching Theorem 6.
  kAlg3,   ///< Algorithm 3 (Section 7.4): no eventual collision freedom;
           ///< O(lg|V|) rounds after failures cease (Theorem 3).
  kAlg4,   ///< The non-anonymous protocol of Section 7.3: unique IDs buy a
           ///< leader-based fast path on top of an embedded Algorithm 2.
  kNaive,  ///< Timeout-only no-CD foil: the protocol shape Theorems 4/5/8
           ///< prove cannot solve consensus; kept as the negative control.
};

/// The eight Figure 1 detector classes plus the special classes of
/// Section 5.3.  Completeness (rows) fixes which collisions MUST be
/// reported; accuracy (columns) fixes whether false reports are allowed,
/// eventually ("<>") or always.
enum class DetectorKind : std::uint8_t {
  kAC,       ///< AC (Figure 1): complete + accurate from round 1.
  kMajAC,    ///< maj-AC: majority-complete + accurate; the weakest class
             ///< supporting Algorithm 1's constant bound (Theorem 1).
  kHalfAC,   ///< half-AC: misses just under half the messages; the boundary
             ///< class Theorem 6's Omega(lg|V|) bound exploits.
  kZeroAC,   ///< 0-AC: zero-complete (only total loss need be reported) +
             ///< accurate; Algorithm 3's class (Theorem 3).
  kOAC,      ///< <>AC: complete, eventually accurate (false reports allowed
             ///< before CST).
  kMajOAC,   ///< maj-<>AC: Algorithm 1's class as stated (Theorem 1).
  kHalfOAC,  ///< half-<>AC: eventually-accurate half-completeness; subject
             ///< to the Theorem 6 lower bound.
  kZeroOAC,  ///< 0-<>AC: the weakest useful Figure 1 class; Algorithm 2
             ///< solves consensus in it (Theorem 2).
  kNoCd,     ///< NoCD (Section 5.3): the always-null detector; consensus is
             ///< impossible with it under message loss (Theorem 4).
  kNoAcc,    ///< No-accuracy detector (Section 5.3): complete but free to
             ///< lie forever; Theorem 5's impossibility class.
};

/// Behaviour INSIDE a detector-class envelope: where the class (DetectorKind)
/// bounds what advice is legal, the policy picks the actual advice.  The
/// policy ablation (bench_policy_ablation, "policies" grid) separates what
/// the class guarantees from what a particular detector happens to do.
enum class PolicyKind : std::uint8_t {
  kTruthful,         ///< report exactly the ground truth (the strongest
                     ///< member of every class).
  kPreferNull,       ///< stay silent whenever the envelope allows: the
                     ///< weakest-completeness member, the adversarial choice
                     ///< in the Theorem 6 construction.
  kPreferCollision,  ///< report +- whenever legal: maximal noise while
                     ///< keeping the class's accuracy promise.
  kSpurious,         ///< false positives with probability spurious_p before
                     ///< CST (legal in eventually-accurate classes only).
  kFlakyMajority,    ///< drop each report with probability spurious_p while
                     ///< staying majority-complete.
  kRandomLegal,      ///< uniform choice among the envelope-legal advices.
};

/// Contention manager (Section 4): the service that tells processes when to
/// be active; upper bounds assume a wake-up service (Section 4.1).
enum class CmKind : std::uint8_t {
  kNoCm,     ///< NOCM_P (Section 4.2): everyone always active.
  kWakeup,   ///< Wake-up service (Section 4.1): eventually exactly one
             ///< active process at a time.
  kLeader,   ///< Leader-election service (Section 4.2): eventually one
             ///< FIXED active process.
  kBackoff,  ///< Randomized-backoff implementation of a wake-up service
             ///< (the Section 1.3 practical realization).
};

/// Message-loss adversary (Section 3.2's environment channel).
enum class LossKind : std::uint8_t {
  kNoLoss,         ///< Perfect channel: the "no message loss" legs of the
                   ///< Theorem 4/8 alpha executions.
  kEcf,            ///< Eventual collision freedom (Property 1): lone
                   ///< broadcasts are delivered after round r_cf.
  kProbabilistic,  ///< iid delivery with probability p_deliver, no
                   ///< adversarial structure (the Section 1.1 empirics).
  kUnrestricted,   ///< No ECF ever (Sections 7.4, 8.4, 8.5): the channel
                   ///< Algorithm 3 must and Theorem 8 cannot beat.
};

/// Crash-failure adversary (Section 3.3).
enum class FaultKind : std::uint8_t {
  kNone,         ///< Failure-free runs.
  kRandomCrash,  ///< iid per-round crashes with probability crash_p up to
                 ///< CST, at least one survivor (Theorem 3's "failures
                 ///< eventually cease" regime).
  kScheduled,    ///< Deterministic ScheduledCrash driven by the spec's
                 ///< crash_schedule / crash_schedule_name (the worst-case
                 ///< shapes of Theorem 3, e.g. leaf-then-die).
};

/// Initial value assignment (the init_i(v) states of Definition 2).
enum class InitKind : std::uint8_t {
  kRandom,   ///< iid uniform over V.
  kSplit,    ///< Half low / half high: the divergent assignment the
             ///< lower-bound executions start from.
  kAllSame,  ///< Unanimous: exercises uniform validity (Section 6).
};

/// Pre-CST environment shaping.  kCalm is the friendly setting (maximal
/// contention advice, iid loss, all-deliver under contention); kChaotic is
/// the adversarial setting the theorem benches use (random wake subsets,
/// rotating post-CST activity, capture-effect loss).
enum class ChaosKind : std::uint8_t { kCalm, kChaotic };

/// Communication graph of a run (the multihop extension the paper's
/// conclusion announces).  kSingleHop is the paper's model proper -- a
/// clique driven by the Definition 11 executor; everything else runs on
/// the MultihopExecutor with per-neighbourhood collision detection.
enum class TopologyKind : std::uint8_t {
  kSingleHop,        ///< The paper's single-hop model (Section 3).
  kLine,             ///< Path graph: diameter n-1, the Omega(D) worst case
                     ///< of the Section 1.1 broadcast bounds.
  kRing,             ///< Cycle: diameter floor(n/2), no articulation point.
  kGrid,             ///< ceil(sqrt(n))-wide rectangular grid over exactly n
                     ///< nodes (partial last row).
  kRandomGeometric,  ///< Unit-disk graph: n uniform points, radius set by
                     ///< `density` (see ScenarioSpec::density).
};

/// What a run executes.  kConsensus is the paper's problem (Section 6) on
/// the single-hop World; the rest are the multihop sensor-network workloads
/// (Section 1.1's broadcast / local-coordination categories) the detector
/// taxonomy is exercised against beyond one hop.
enum class WorkloadKind : std::uint8_t {
  kConsensus,        ///< Consensus via WorldFactory::make + run_consensus.
                     ///< Requires topology == kSingleHop.
  kFlood,            ///< CD-assisted flooding from node 0 until full
                     ///< coverage (bench_multihop_broadcast's E14 shape).
  kMis,              ///< Clusterhead election as a maximal independent set
                     ///< (Luby-style, detector-certified independence).
  kMisThenConsensus, ///< The deployment story end to end: elect
                     ///< clusterheads on the topology, then run single-hop
                     ///< consensus among the heads.
  kRoundSync,        ///< Substrate validation (E13): the reference-broadcast
                     ///< round synchronizer that turns drifting clocks into
                     ///< the synchronized rounds every other workload
                     ///< presupposes (Section 1.3).  Below the round
                     ///< abstraction, so it ignores topology/detector/cm
                     ///< axes; knobs: n, p_deliver (beacon delivery),
                     ///< sync_rho, sync_round_length.
};

const char* to_string(CrashPoint p);  ///< "before-send" / "after-send"
std::optional<CrashPoint> parse_crash_point(const std::string& s);

const char* to_string(AlgKind k);
const char* to_string(DetectorKind k);
const char* to_string(PolicyKind k);
const char* to_string(CmKind k);
const char* to_string(LossKind k);
const char* to_string(FaultKind k);
const char* to_string(InitKind k);
const char* to_string(ChaosKind k);
const char* to_string(TopologyKind k);
const char* to_string(WorkloadKind k);

std::optional<AlgKind> parse_alg(const std::string& s);
std::optional<DetectorKind> parse_detector(const std::string& s);
std::optional<PolicyKind> parse_policy(const std::string& s);
std::optional<CmKind> parse_cm(const std::string& s);
std::optional<LossKind> parse_loss(const std::string& s);
std::optional<FaultKind> parse_fault(const std::string& s);
std::optional<InitKind> parse_init(const std::string& s);
std::optional<ChaosKind> parse_chaos(const std::string& s);
std::optional<TopologyKind> parse_topology(const std::string& s);
std::optional<WorkloadKind> parse_workload(const std::string& s);

struct ScenarioSpec {
  AlgKind alg = AlgKind::kAlg1;
  DetectorKind detector = DetectorKind::kMajOAC;
  PolicyKind policy = PolicyKind::kTruthful;
  CmKind cm = CmKind::kWakeup;
  LossKind loss = LossKind::kEcf;
  FaultKind fault = FaultKind::kNone;
  InitKind init = InitKind::kRandom;
  ChaosKind chaos = ChaosKind::kCalm;
  TopologyKind topology = TopologyKind::kSingleHop;
  WorkloadKind workload = WorkloadKind::kConsensus;

  std::uint32_t n = 8;             ///< process count
  std::uint64_t num_values = 16;   ///< |V|
  Round cst_target = 5;            ///< drives r_wake, r_cf and r_acc alike
  double p_deliver = 0.5;          ///< delivery probability knob
  double spurious_p = 0.4;         ///< false-positive rate (spurious/flaky)
  double crash_p = 0.02;           ///< per-round crash probability
  /// Random-geometric radius as a multiple of the connectivity-threshold
  /// area: radius = sqrt(density * ln(n) / (pi * n)).  density 1.0 is the
  /// asymptotic threshold; the factory retries derived seeds until the
  /// graph is connected, and >= 2.0 (the documented floor) makes retries
  /// rare.  Ignored by every other topology.
  double density = 2.5;
  /// Non-anonymous identifier-space size |I| for alg4 (Section 7.3 pays
  /// CST + O(min{lg|V|, lg|I|})); 0 derives the legacy default
  /// max(64, 2n).  Serialized only when nonzero, so pre-existing specs
  /// (and their cell keys) keep their exact bytes.
  std::uint64_t id_space = 0;
  /// Round-sync workload knobs (workload == kRoundSync): max hardware
  /// clock rate deviation rho and round length L in seconds.  Beacon loss
  /// is 1 - p_deliver; epoch, jitter and horizon are fixed at the E13
  /// bench constants (1s, 10us, 60s).  Serialized only at non-default
  /// values (same byte-stability contract as id_space).
  double sync_rho = 1e-4;
  double sync_round_length = 0.05;
  Round max_rounds = 0;            ///< 0 = derive from algorithm + cst
  std::uint64_t seed = 1;          ///< run seed; all component RNG streams
                                   ///< derive from it

  /// Explicit deterministic crash schedule (fault == kScheduled).
  /// Serialized as a "crash_schedule" JSON array of
  /// {"round":R,"process":P,"point":"before-send"|"after-send"} objects.
  std::vector<CrashEvent> crash_schedule;
  /// Named schedule generator (see crash_schedule_names()); when set it
  /// takes precedence over the explicit list and is expanded
  /// deterministically from this spec's n / num_values at factory time,
  /// so a cell stays reproducible from its JSON alone.
  std::string crash_schedule_name;

  /// Flat JSON object, stable key order; parse() inverts it exactly.
  std::string to_json() const;
  static std::optional<ScenarioSpec> from_json(const std::string& json);
  /// As above; on failure, if `error` is non-null it receives a one-line
  /// message naming the offending key and value (hand-written spec files
  /// should be debuggable from the message alone).
  static std::optional<ScenarioSpec> from_json(const std::string& json,
                                               std::string* error);
  /// The spec object at `r`'s position (a grid's "base" member); errors
  /// are keyed on `r`, and unknown or duplicate keys are errors.
  static bool read_json(jsonu::Reader& r, ScenarioSpec* out);

  /// Identity of the grid CELL this run belongs to: the spec with the seed
  /// normalized out.  Equal cell keys = same parameter combination.
  std::string cell_key() const;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// Named worst-case crash-schedule generators, sweepable as a grid axis:
///   "leaf-then-die" -- Theorem 3's shape: each crasher participates for
///       one "lead everyone to a BST leaf" window (ceil(lg|V|)+1 rounds),
///       broadcasts once more, then dies (kAfterSend); processes n-1 down
///       to 1 crash in turn, process 0 survives.
///   "source-dies"   -- node 0 (the flood source) speaks in rounds 1-2 and
///       dies after its round-2 send: the adversarial broadcast opener.
///   "articulation-point" -- the partition worst case: materialize the
///       spec's topology and kill its most damaging cut vertex (the one
///       whose removal minimizes the largest surviving component; lowest id
///       on ties) after its round-2 send.  Expands to the empty schedule on
///       topologies without a cut vertex (ring, clique, dense rgg).
///   "all-cut-vertices" -- the multi-kill escalation: kill EVERY
///       articulation point after its round-2 send, shattering the graph
///       into its biconnected leaves at once (a line loses all interior
///       nodes).  Empty on 2-connected shapes, like articulation-point.
///   "min-vertex-cut" -- a minimum vertex cut (size up to 3, so size > 1
///       on 2-connected graphs: a ring loses two opposite-ish nodes, a
///       grid a column pair), all killed after their round-2 sends.  This
///       is the generator that stops 2-connected topologies from running
///       failure-free under the single-cut generators.  Empty on cliques
///       (no vertex cut at all).
std::vector<std::string> crash_schedule_names();

/// Expand a named generator against a spec's n / num_values; nullopt for
/// unknown names.  Deterministic: same (name, spec) -> same events.
std::optional<std::vector<CrashEvent>> generate_crash_schedule(
    const std::string& name, const ScenarioSpec& spec);

/// The schedule a kScheduled fault actually runs: the named generator when
/// crash_schedule_name is set, else the explicit crash_schedule list.
std::vector<CrashEvent> resolved_crash_schedule(const ScenarioSpec& spec);

}  // namespace ccd::exp
