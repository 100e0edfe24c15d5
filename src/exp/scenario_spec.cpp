#include "exp/scenario_spec.hpp"

#include <algorithm>

#include "exp/world_factory.hpp"
#include "multihop/topology.hpp"
#include "util/bitcodec.hpp"
#include "util/json.hpp"

namespace ccd::exp {

namespace {

using jsonu::format_double;

template <typename E>
std::optional<E> parse_enum(const std::string& s,
                            std::initializer_list<E> all) {
  for (E e : all) {
    if (s == to_string(e)) return e;
  }
  return std::nullopt;
}

// Read a "crash_schedule" array member:
//   [{"round":3,"process":0,"point":"before-send"}, ...]
// Every failure is keyed down to the offending entry: unknown keys are
// rejected (a typo like "proces" must not silently yield process 0), and
// round/process are required.
bool read_crash_schedule(jsonu::Reader& r, std::vector<CrashEvent>* events) {
  static constexpr std::string_view kKeys[] = {"round", "process", "point"};
  if (!r.begin_array()) return false;
  events->clear();
  while (r.next_element()) {
    CrashEvent event;
    std::uint64_t seen = 0;
    std::string_view key;
    if (!r.begin_object()) return false;
    while (r.next_member(&key)) {
      const int slot = jsonu::find_key(key, kKeys, 3, 0);
      if (slot < 0) return r.unknown_key("round, process, point");
      if (!r.claim(&seen, static_cast<unsigned>(slot))) return false;
      if (slot == 0) {
        if (!jsonu::read_uint(r, &event.round)) return false;
      } else if (slot == 1) {
        if (!jsonu::read_uint(r, &event.process)) return false;
      } else {
        std::string_view value;
        if (!r.string(&value)) return false;
        auto point = parse_crash_point(std::string(value));
        if (!point) return r.reject(value, "before-send or after-send");
        event.point = *point;
      }
    }
    if (!r.ok()) return false;
    if ((seen & 1) == 0) return r.fail("missing key 'round'" + r.where());
    if ((seen & 2) == 0) return r.fail("missing key 'process'" + r.where());
    events->push_back(event);
  }
  return r.ok();
}

/// Shared shape of the topology-cut generators: every vertex in `victims`
/// dies after its round-2 send (the same opener as source-dies -- the
/// workload has just started spreading).
std::vector<CrashEvent> kill_after_round2(
    const std::vector<std::uint32_t>& victims) {
  std::vector<CrashEvent> events;
  events.reserve(victims.size());
  for (std::uint32_t v : victims) {
    CrashEvent e;
    e.round = 2;
    e.process = v;
    e.point = CrashPoint::kAfterSend;
    events.push_back(e);
  }
  return events;
}

}  // namespace

const char* to_string(CrashPoint p) {
  switch (p) {
    case CrashPoint::kBeforeSend: return "before-send";
    case CrashPoint::kAfterSend: return "after-send";
  }
  return "?";
}

std::optional<CrashPoint> parse_crash_point(const std::string& s) {
  return parse_enum(s, {CrashPoint::kBeforeSend, CrashPoint::kAfterSend});
}

const char* to_string(AlgKind k) {
  switch (k) {
    case AlgKind::kAlg1: return "alg1";
    case AlgKind::kAlg2: return "alg2";
    case AlgKind::kAlg3: return "alg3";
    case AlgKind::kAlg4: return "alg4";
    case AlgKind::kNaive: return "naive";
  }
  return "?";
}

const char* to_string(DetectorKind k) {
  switch (k) {
    case DetectorKind::kAC: return "ac";
    case DetectorKind::kMajAC: return "maj-ac";
    case DetectorKind::kHalfAC: return "half-ac";
    case DetectorKind::kZeroAC: return "zero-ac";
    case DetectorKind::kOAC: return "oac";
    case DetectorKind::kMajOAC: return "maj-oac";
    case DetectorKind::kHalfOAC: return "half-oac";
    case DetectorKind::kZeroOAC: return "zero-oac";
    case DetectorKind::kNoCd: return "nocd";
    case DetectorKind::kNoAcc: return "noacc";
  }
  return "?";
}

const char* to_string(PolicyKind k) {
  switch (k) {
    case PolicyKind::kTruthful: return "truthful";
    case PolicyKind::kPreferNull: return "prefer-null";
    case PolicyKind::kPreferCollision: return "prefer-collision";
    case PolicyKind::kSpurious: return "spurious";
    case PolicyKind::kFlakyMajority: return "flaky-majority";
    case PolicyKind::kRandomLegal: return "random-legal";
  }
  return "?";
}

const char* to_string(CmKind k) {
  switch (k) {
    case CmKind::kNoCm: return "nocm";
    case CmKind::kWakeup: return "wakeup";
    case CmKind::kLeader: return "leader";
    case CmKind::kBackoff: return "backoff";
  }
  return "?";
}

const char* to_string(LossKind k) {
  switch (k) {
    case LossKind::kNoLoss: return "noloss";
    case LossKind::kEcf: return "ecf";
    case LossKind::kProbabilistic: return "prob";
    case LossKind::kUnrestricted: return "unrestricted";
  }
  return "?";
}

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kNone: return "none";
    case FaultKind::kRandomCrash: return "random-crash";
    case FaultKind::kScheduled: return "scheduled";
  }
  return "?";
}

const char* to_string(InitKind k) {
  switch (k) {
    case InitKind::kRandom: return "random";
    case InitKind::kSplit: return "split";
    case InitKind::kAllSame: return "same";
  }
  return "?";
}

const char* to_string(ChaosKind k) {
  switch (k) {
    case ChaosKind::kCalm: return "calm";
    case ChaosKind::kChaotic: return "chaotic";
  }
  return "?";
}

const char* to_string(TopologyKind k) {
  switch (k) {
    case TopologyKind::kSingleHop: return "singlehop";
    case TopologyKind::kLine: return "line";
    case TopologyKind::kRing: return "ring";
    case TopologyKind::kGrid: return "grid";
    case TopologyKind::kRandomGeometric: return "rgg";
  }
  return "?";
}

const char* to_string(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kConsensus: return "consensus";
    case WorkloadKind::kFlood: return "flood";
    case WorkloadKind::kMis: return "mis";
    case WorkloadKind::kMisThenConsensus: return "mis-then-consensus";
    case WorkloadKind::kRoundSync: return "round-sync";
  }
  return "?";
}

std::optional<AlgKind> parse_alg(const std::string& s) {
  return parse_enum(s, {AlgKind::kAlg1, AlgKind::kAlg2, AlgKind::kAlg3,
                        AlgKind::kAlg4, AlgKind::kNaive});
}

std::optional<DetectorKind> parse_detector(const std::string& s) {
  return parse_enum(
      s, {DetectorKind::kAC, DetectorKind::kMajAC, DetectorKind::kHalfAC,
          DetectorKind::kZeroAC, DetectorKind::kOAC, DetectorKind::kMajOAC,
          DetectorKind::kHalfOAC, DetectorKind::kZeroOAC, DetectorKind::kNoCd,
          DetectorKind::kNoAcc});
}

std::optional<PolicyKind> parse_policy(const std::string& s) {
  return parse_enum(s, {PolicyKind::kTruthful, PolicyKind::kPreferNull,
                        PolicyKind::kPreferCollision, PolicyKind::kSpurious,
                        PolicyKind::kFlakyMajority, PolicyKind::kRandomLegal});
}

std::optional<CmKind> parse_cm(const std::string& s) {
  return parse_enum(
      s, {CmKind::kNoCm, CmKind::kWakeup, CmKind::kLeader, CmKind::kBackoff});
}

std::optional<LossKind> parse_loss(const std::string& s) {
  return parse_enum(s, {LossKind::kNoLoss, LossKind::kEcf,
                        LossKind::kProbabilistic, LossKind::kUnrestricted});
}

std::optional<FaultKind> parse_fault(const std::string& s) {
  return parse_enum(s, {FaultKind::kNone, FaultKind::kRandomCrash,
                        FaultKind::kScheduled});
}

std::optional<InitKind> parse_init(const std::string& s) {
  return parse_enum(s, {InitKind::kRandom, InitKind::kSplit,
                        InitKind::kAllSame});
}

std::optional<ChaosKind> parse_chaos(const std::string& s) {
  return parse_enum(s, {ChaosKind::kCalm, ChaosKind::kChaotic});
}

std::optional<TopologyKind> parse_topology(const std::string& s) {
  return parse_enum(s, {TopologyKind::kSingleHop, TopologyKind::kLine,
                        TopologyKind::kRing, TopologyKind::kGrid,
                        TopologyKind::kRandomGeometric});
}

std::optional<WorkloadKind> parse_workload(const std::string& s) {
  return parse_enum(s, {WorkloadKind::kConsensus, WorkloadKind::kFlood,
                        WorkloadKind::kMis, WorkloadKind::kMisThenConsensus,
                        WorkloadKind::kRoundSync});
}

std::string ScenarioSpec::to_json() const {
  std::string out = "{";
  auto str = [&](const char* key, const char* value) {
    out += "\"";
    out += key;
    out += "\":\"";
    out += value;
    out += "\",";
  };
  auto num = [&](const char* key, const std::string& value) {
    out += "\"";
    out += key;
    out += "\":";
    out += value;
    out += ",";
  };
  str("alg", to_string(alg));
  str("detector", to_string(detector));
  str("policy", to_string(policy));
  str("cm", to_string(cm));
  str("loss", to_string(loss));
  str("fault", to_string(fault));
  // The schedule members are omitted when empty so pre-existing specs (and
  // their cell keys) keep their exact bytes.
  if (!crash_schedule.empty()) {
    out += "\"crash_schedule\":[";
    for (const CrashEvent& e : crash_schedule) {
      out += "{\"round\":" + std::to_string(e.round);
      out += ",\"process\":" + std::to_string(e.process);
      out += ",\"point\":\"";
      out += to_string(e.point);
      out += "\"},";
    }
    out.back() = ']';
    out += ",";
  }
  if (!crash_schedule_name.empty()) {
    str("crash_schedule_name", crash_schedule_name.c_str());
  }
  str("init", to_string(init));
  str("chaos", to_string(chaos));
  str("topology", to_string(topology));
  str("workload", to_string(workload));
  num("n", std::to_string(n));
  num("num_values", std::to_string(num_values));
  num("cst_target", std::to_string(cst_target));
  num("p_deliver", format_double(p_deliver));
  num("spurious_p", format_double(spurious_p));
  num("crash_p", format_double(crash_p));
  num("density", format_double(density));
  // Later-PR knobs are omitted at their defaults so pre-existing specs
  // (and their cell keys) keep their exact bytes -- the same contract as
  // the crash-schedule members above.
  if (id_space != 0) num("id_space", std::to_string(id_space));
  {
    const ScenarioSpec defaults;
    if (sync_rho != defaults.sync_rho) {
      num("sync_rho", format_double(sync_rho));
    }
    if (sync_round_length != defaults.sync_round_length) {
      num("sync_round_length", format_double(sync_round_length));
    }
  }
  num("max_rounds", std::to_string(max_rounds));
  num("seed", std::to_string(seed));
  out.back() = '}';
  return out;
}

std::optional<ScenarioSpec> ScenarioSpec::from_json(const std::string& json) {
  return from_json(json, nullptr);
}


std::optional<ScenarioSpec> ScenarioSpec::from_json(const std::string& json,
                                                    std::string* error) {
  jsonu::Reader r(json);
  ScenarioSpec spec;
  if (read_json(r, &spec) && r.end()) return spec;
  if (error) *error = r.error();
  return std::nullopt;
}

bool ScenarioSpec::read_json(jsonu::Reader& r, ScenarioSpec* out) {
  // to_json's key order; the hint makes in-order input one compare a key.
  static constexpr std::string_view kKeys[] = {
      "alg",        "detector",       "policy",
      "cm",         "loss",           "fault",
      "crash_schedule", "crash_schedule_name", "init",
      "chaos",      "topology",       "workload",
      "n",          "num_values",     "cst_target",
      "p_deliver",  "spurious_p",     "crash_p",
      "density",    "id_space",       "sync_rho",
      "sync_round_length", "max_rounds", "seed"};
  constexpr std::size_t kCount = sizeof(kKeys) / sizeof(kKeys[0]);
  ScenarioSpec spec;
  // An enum member: the string must name one of the kind's tokens.
  auto read_enum = [&r](auto parse_fn, auto& field,
                        std::string_view expected) {
    std::string_view value;
    if (!r.string(&value)) return false;
    auto parsed = parse_fn(std::string(value));
    if (!parsed) return r.reject(value, expected);
    field = *parsed;
    return true;
  };
  if (!r.begin_object()) return false;
  std::uint64_t seen = 0;
  std::size_t hint = 0;
  std::string_view key;
  while (r.next_member(&key)) {
    const int slot = jsonu::find_key(key, kKeys, kCount, hint);
    // A typo'd key must fail, not silently leave its member at the default.
    if (slot < 0) return r.unknown_key();
    if (!r.claim(&seen, static_cast<unsigned>(slot))) return false;
    hint = static_cast<std::size_t>(slot) + 1;
    bool ok = true;
    switch (slot) {
      case 0:
        ok = read_enum(parse_alg, spec.alg, "one of alg1..alg4, naive");
        break;
      case 1:
        ok = read_enum(parse_detector, spec.detector,
                       "a Figure 1 class, nocd or noacc");
        break;
      case 2:
        ok = read_enum(parse_policy, spec.policy, "an advice policy");
        break;
      case 3:
        ok = read_enum(parse_cm, spec.cm, "nocm, wakeup, leader or backoff");
        break;
      case 4:
        ok = read_enum(parse_loss, spec.loss,
                       "noloss, ecf, prob or unrestricted");
        break;
      case 5:
        ok = read_enum(parse_fault, spec.fault,
                       "none, random-crash or scheduled");
        break;
      case 6: ok = read_crash_schedule(r, &spec.crash_schedule); break;
      case 7: {
        // A typo'd generator name must not silently expand to an empty
        // schedule (a failure-free run masquerading as a faulted one).
        std::string_view value;
        ok = r.string(&value);
        if (!ok) break;
        const auto known = crash_schedule_names();
        if (std::find(known.begin(), known.end(), value) != known.end()) {
          spec.crash_schedule_name = std::string(value);
        } else {
          std::string expected = "a known generator:";
          for (const std::string& name : known) {
            expected += " " + name + (name == known.back() ? "" : ",");
          }
          ok = r.reject(value, expected);
        }
        break;
      }
      case 8:
        ok = read_enum(parse_init, spec.init, "random, split or same");
        break;
      case 9:
        ok = read_enum(parse_chaos, spec.chaos, "calm or chaotic");
        break;
      case 10:
        ok = read_enum(parse_topology, spec.topology,
                       "singlehop, line, ring, grid or rgg");
        break;
      case 11:
        ok = read_enum(parse_workload, spec.workload,
                       "consensus, flood, mis or mis-then-consensus");
        break;
      case 12: ok = jsonu::read_uint(r, &spec.n); break;
      case 13: ok = jsonu::read_uint(r, &spec.num_values); break;
      case 14: ok = jsonu::read_uint(r, &spec.cst_target); break;
      case 15: ok = r.f64(&spec.p_deliver); break;
      case 16: ok = r.f64(&spec.spurious_p); break;
      case 17: ok = r.f64(&spec.crash_p); break;
      case 18: ok = r.f64(&spec.density); break;
      case 19: ok = jsonu::read_uint(r, &spec.id_space); break;
      case 20: ok = r.f64(&spec.sync_rho); break;
      case 21: ok = r.f64(&spec.sync_round_length); break;
      case 22: ok = jsonu::read_uint(r, &spec.max_rounds); break;
      default: ok = jsonu::read_uint(r, &spec.seed); break;
    }
    if (!ok) return false;
  }
  if (!r.ok()) return false;
  *out = std::move(spec);
  return true;
}

std::string ScenarioSpec::cell_key() const {
  ScenarioSpec normalized = *this;
  normalized.seed = 0;
  return normalized.to_json();
}

std::vector<std::string> crash_schedule_names() {
  return {"leaf-then-die", "source-dies", "articulation-point",
          "all-cut-vertices", "min-vertex-cut"};
}

std::optional<std::vector<CrashEvent>> generate_crash_schedule(
    const std::string& name, const ScenarioSpec& spec) {
  if (name == "leaf-then-die") {
    // Theorem 3's worst case: the adversary lets each doomed process
    // participate for one full "lead everyone to a leaf" window of the
    // value BST -- ceil(lg|V|)+1 rounds -- then the process broadcasts
    // once more and dies (kAfterSend, the literal Definition 11 crash).
    // Highest ids die first; process 0 is the guaranteed survivor.
    std::vector<CrashEvent> events;
    if (spec.n < 2) return events;
    const Round gap =
        ceil_log2(std::max<std::uint64_t>(spec.num_values, 2)) + 1;
    for (std::uint32_t k = 0; k + 1 < spec.n; ++k) {
      CrashEvent e;
      e.round = (static_cast<Round>(k) + 1) * gap;
      e.process = spec.n - 1 - k;
      e.point = CrashPoint::kAfterSend;
      events.push_back(e);
    }
    return events;
  }
  if (name == "source-dies") {
    // The adversarial broadcast opener: node 0 (the flood source) speaks
    // in rounds 1 and 2, then crashes after its round-2 send -- whatever
    // it managed to seed must carry the workload.
    std::vector<CrashEvent> events;
    if (spec.n == 0) return events;
    CrashEvent e;
    e.round = 2;
    e.process = 0;
    e.point = CrashPoint::kAfterSend;
    events.push_back(e);
    return events;
  }
  if (name == "articulation-point") {
    // The partition worst case, declaratively: materialize the spec's
    // topology and kill its most damaging cut vertex just as the workload
    // starts spreading (round 2, after-send -- the same opener shape as
    // source-dies).  "Most damaging" = the articulation point whose removal
    // minimizes the largest surviving component (the most balanced split),
    // lowest id on ties.  Topologies without a cut vertex (ring, clique,
    // dense rgg) expand to the empty, failure-free schedule.
    //
    // The topology is built once more here on top of run_multihop's own
    // construction -- a deliberate trade: generators stay (name, spec) ->
    // events with no executor coupling, and make_topology is deterministic
    // in the spec, so the two materializations agree by construction.
    std::vector<CrashEvent> events;
    if (spec.n < 3) return events;
    const Topology topo = WorldFactory::make_topology(spec);
    const std::vector<std::uint32_t> cuts = topo.articulation_points();
    if (cuts.empty()) return events;
    std::uint32_t best = cuts.front();
    std::size_t best_worst = topo.size();
    for (std::uint32_t v : cuts) {
      const std::size_t worst = topo.largest_component_without(v);
      if (worst < best_worst) {
        best_worst = worst;
        best = v;
      }
    }
    CrashEvent e;
    e.round = 2;
    e.process = best;
    e.point = CrashPoint::kAfterSend;
    events.push_back(e);
    return events;
  }
  if (name == "all-cut-vertices") {
    // Multi-kill escalation of articulation-point: EVERY cut vertex dies
    // after its round-2 send, shattering the graph into its biconnected
    // leaves simultaneously (a line keeps only its two endpoints).  Like
    // the single-cut generator this expands to the empty schedule on
    // 2-connected shapes -- min-vertex-cut is the generator that reaches
    // those.
    if (spec.n < 3) return std::vector<CrashEvent>{};
    const Topology topo = WorldFactory::make_topology(spec);
    return kill_after_round2(topo.articulation_points());
  }
  if (name == "min-vertex-cut") {
    // A minimum vertex cut of the materialized topology (size capped at 3),
    // all killed after their round-2 sends.  On graphs with an articulation
    // point this degenerates to the single worst cut vertex; on 2-connected
    // graphs it is the size->=2 separator the articulation-point generator
    // cannot find (a ring loses two nodes, a grid a small column).  Cliques
    // have no vertex cut at all and stay failure-free.
    if (spec.n < 3) return std::vector<CrashEvent>{};
    const Topology topo = WorldFactory::make_topology(spec);
    return kill_after_round2(topo.min_vertex_cut());
  }
  return std::nullopt;
}

std::vector<CrashEvent> resolved_crash_schedule(const ScenarioSpec& spec) {
  if (!spec.crash_schedule_name.empty()) {
    if (auto events = generate_crash_schedule(spec.crash_schedule_name, spec)) {
      return *events;
    }
    // Unknown name: rejected upstream by both ScenarioSpec::from_json and
    // SweepGrid::validate, so this is only reachable from hand-built specs.
    return {};
  }
  return spec.crash_schedule;
}

}  // namespace ccd::exp
