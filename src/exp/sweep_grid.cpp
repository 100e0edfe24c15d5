#include "exp/sweep_grid.hpp"

#include <algorithm>
#include <type_traits>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace ccd::exp {

namespace {

template <typename T>
std::size_t radix(const std::vector<T>& axis) {
  return axis.empty() ? 1 : axis.size();
}

/// Peel one mixed-radix digit off `index` and apply the axis value (if the
/// axis is non-empty) to `field`.
template <typename T, typename F>
void apply_axis(std::size_t& index, const std::vector<T>& axis, F& field) {
  const std::size_t r = radix(axis);
  const std::size_t digit = index % r;
  index /= r;
  if (!axis.empty()) field = static_cast<F>(axis[digit]);
}

}  // namespace

std::size_t SweepGrid::num_cells() const {
  return radix(algs) * radix(detectors) * radix(policies) * radix(cms) *
         radix(losses) * radix(faults) * radix(ns) * radix(value_spaces) *
         radix(csts) * radix(topologies) * radix(densities) *
         radix(workloads) * radix(crash_schedules);
}

ScenarioSpec SweepGrid::spec_for_cell(std::size_t cell_index) const {
  ScenarioSpec spec = base;
  std::size_t index = cell_index;
  // Innermost axis first; the order here fixes the enumeration order and is
  // part of the on-disk cell numbering, so do not reorder casually.  (The
  // multihop axes sit innermost of the new digits / outermost overall so
  // that grids without them keep their PR-1 cell numbering: an empty axis
  // has radix 1 and peels nothing.)
  apply_axis(index, csts, spec.cst_target);
  apply_axis(index, value_spaces, spec.num_values);
  apply_axis(index, ns, spec.n);
  apply_axis(index, faults, spec.fault);
  apply_axis(index, losses, spec.loss);
  apply_axis(index, cms, spec.cm);
  apply_axis(index, policies, spec.policy);
  apply_axis(index, detectors, spec.detector);
  apply_axis(index, algs, spec.alg);
  apply_axis(index, densities, spec.density);
  apply_axis(index, topologies, spec.topology);
  apply_axis(index, workloads, spec.workload);
  apply_axis(index, crash_schedules, spec.crash_schedule_name);
  spec.seed = 0;
  return spec;
}

std::uint64_t SweepGrid::seed_for_run(std::size_t run_index) const {
  return hash_mix(hash_mix(grid_seed) ^ static_cast<std::uint64_t>(run_index));
}

ScenarioSpec SweepGrid::spec_for_run(std::size_t run_index) const {
  ScenarioSpec spec = spec_for_cell(cell_of_run(run_index));
  spec.seed = seed_for_run(run_index);
  return spec;
}

std::optional<std::string> SweepGrid::validate() const {
  // Consensus x non-singlehop topology was rejected here before the
  // RoundEngine unification; it is now a first-class combination (the
  // engine drives the same loss/cm/detector/fault stack over any graph
  // with per-neighborhood collision semantics), so no topology constraint
  // remains.

  // Scheduled-crash cells must have a schedule to run, and every named
  // generator -- swept or set on the base -- must exist.
  const auto known = crash_schedule_names();
  auto known_name = [&](const std::string& name) {
    return std::find(known.begin(), known.end(), name) != known.end();
  };
  std::string known_list;
  for (const std::string& name : known) {
    if (!known_list.empty()) known_list += ", ";
    known_list += name;
  }
  for (const std::string& name : crash_schedules) {
    if (!known_name(name)) {
      return "bad value '" + name +
             "' for axis 'crash_schedules' (known generators: " + known_list +
             ")";
    }
  }
  if (!base.crash_schedule_name.empty() &&
      !known_name(base.crash_schedule_name)) {
    return "bad value '" + base.crash_schedule_name +
           "' for key 'crash_schedule_name' (known generators: " +
           known_list + ")";
  }
  const bool any_scheduled =
      faults.empty() ? base.fault == FaultKind::kScheduled
                     : std::find(faults.begin(), faults.end(),
                                 FaultKind::kScheduled) != faults.end();
  const bool have_schedule = !crash_schedules.empty() ||
                             !base.crash_schedule_name.empty() ||
                             !base.crash_schedule.empty();
  if (any_scheduled && !have_schedule) {
    return "fault=scheduled cells need a crash schedule: set a "
           "crash_schedules axis, base.crash_schedule_name, or an explicit "
           "base.crash_schedule";
  }
  return std::nullopt;
}

std::optional<SweepGrid> SweepGrid::named(const std::string& name) {
  SweepGrid grid;
  if (name == "smoke") {
    // Fast sanity product: every algorithm in its friendliest world.
    grid.algs = {AlgKind::kAlg1, AlgKind::kAlg2, AlgKind::kAlg4};
    grid.detectors = {DetectorKind::kMajOAC};
    grid.cms = {CmKind::kWakeup};
    grid.losses = {LossKind::kEcf};
    grid.ns = {4, 8};
    grid.base.num_values = 16;
    grid.base.cst_target = 5;
    grid.seeds_per_cell = 3;
    return grid;
  }
  if (name == "default") {
    // The broad robustness product: 5 algs x 5 detector classes x 2 CMs x
    // 3 loss adversaries = 150 cells.  Cells pairing an algorithm with a
    // detector class weaker than its theorem requires are informative,
    // not errors: the aggregator counts their property failures.
    grid.algs = {AlgKind::kAlg1, AlgKind::kAlg2, AlgKind::kAlg3,
                 AlgKind::kAlg4, AlgKind::kNaive};
    grid.detectors = {DetectorKind::kAC, DetectorKind::kMajOAC,
                      DetectorKind::kZeroOAC, DetectorKind::kZeroAC,
                      DetectorKind::kNoCd};
    grid.cms = {CmKind::kWakeup, CmKind::kBackoff};
    grid.losses = {LossKind::kEcf, LossKind::kProbabilistic,
                   LossKind::kNoLoss};
    grid.base.n = 8;
    grid.base.num_values = 16;
    grid.base.cst_target = 8;
    grid.base.p_deliver = 0.6;
    grid.seeds_per_cell = 2;
    return grid;
  }
  if (name == "policies") {
    // Detector-behaviour ablation (the bench_policy_ablation shape):
    // behaviour inside a class envelope vs the class itself.
    grid.algs = {AlgKind::kAlg1, AlgKind::kAlg2};
    grid.detectors = {DetectorKind::kOAC, DetectorKind::kMajOAC,
                      DetectorKind::kHalfOAC, DetectorKind::kZeroOAC};
    grid.policies = {PolicyKind::kTruthful, PolicyKind::kPreferNull,
                     PolicyKind::kPreferCollision, PolicyKind::kSpurious,
                     PolicyKind::kFlakyMajority};
    grid.cms = {CmKind::kWakeup};
    grid.losses = {LossKind::kEcf};
    grid.base.n = 8;
    grid.base.num_values = 256;
    grid.base.cst_target = 10;
    grid.seeds_per_cell = 4;
    return grid;
  }
  if (name == "crash") {
    // Crash-failure sweep across algorithms and process counts.
    grid.algs = {AlgKind::kAlg1, AlgKind::kAlg2, AlgKind::kAlg4};
    grid.detectors = {DetectorKind::kMajOAC, DetectorKind::kZeroOAC};
    grid.cms = {CmKind::kWakeup};
    grid.losses = {LossKind::kEcf};
    grid.faults = {FaultKind::kNone, FaultKind::kRandomCrash,
                   FaultKind::kScheduled};
    grid.ns = {4, 8, 16, 32};
    grid.base.num_values = 64;
    grid.base.cst_target = 12;
    grid.base.crash_p = 0.05;
    grid.base.crash_schedule_name = "leaf-then-die";
    grid.base.chaos = ChaosKind::kChaotic;
    grid.seeds_per_cell = 4;
    return grid;
  }
  if (name == "mhloss") {
    // The unification's acceptance grid: the paper's CONSENSUS stack --
    // loss adversaries (including loss != none), contention managers and
    // detector envelopes -- composed with non-clique topologies through
    // the one engine path.  Per-neighborhood collision detection over
    // sparse graphs starves the anonymous protocols of global information,
    // so failure rows here are data (how far does single-hop consensus
    // degrade beyond one hop?), not errors.
    grid.topologies = {TopologyKind::kLine, TopologyKind::kRing,
                       TopologyKind::kGrid, TopologyKind::kRandomGeometric};
    grid.losses = {LossKind::kEcf, LossKind::kProbabilistic,
                   LossKind::kUnrestricted};
    grid.cms = {CmKind::kNoCm, CmKind::kWakeup};
    grid.ns = {8, 16};
    grid.base.alg = AlgKind::kAlg2;
    grid.base.detector = DetectorKind::kZeroAC;
    grid.base.num_values = 16;
    grid.base.cst_target = 5;
    grid.base.p_deliver = 0.6;
    grid.seeds_per_cell = 2;
    return grid;
  }
  if (name == "multihop") {
    // The conclusion's extension as a grid: every multihop workload over
    // every topology shape, friendly and capture-effect link physics, and
    // two RGG densities (the density axis is inert for non-rgg cells).
    // A zero-complete accurate detector is the carrier-sense-grade local
    // detection the deployment story assumes; sweep --detectors nocd to
    // ablate the collision feedback away.
    grid.workloads = {WorkloadKind::kFlood, WorkloadKind::kMis,
                      WorkloadKind::kMisThenConsensus};
    grid.topologies = {TopologyKind::kLine, TopologyKind::kRing,
                       TopologyKind::kGrid, TopologyKind::kRandomGeometric};
    grid.densities = {2.0, 3.0};
    grid.losses = {LossKind::kNoLoss, LossKind::kEcf};
    grid.ns = {8, 16, 32};
    // Crash axis: failure-free, iid crashes through CST, and Theorem 3's
    // worst-case leaf-then-die schedule (sweep --crash-schedules to try
    // other generators, e.g. source-dies).
    grid.faults = {FaultKind::kNone, FaultKind::kRandomCrash,
                   FaultKind::kScheduled};
    grid.crash_schedules = {"leaf-then-die"};
    grid.base.detector = DetectorKind::kZeroAC;
    grid.base.num_values = 16;
    grid.base.cst_target = 5;
    grid.base.crash_p = 0.05;
    grid.seeds_per_cell = 3;
    return grid;
  }
  return std::nullopt;
}

std::vector<std::string> SweepGrid::grid_names() {
  return {"smoke", "default", "policies", "crash", "multihop", "mhloss"};
}

namespace {

template <typename T>
void append_enum_axis(std::string& out, const char* key,
                      const std::vector<T>& axis) {
  out += "\"";
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < axis.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"";
    out += to_string(axis[i]);
    out += "\"";
  }
  out += "],";
}

void append_string_axis(std::string& out, const char* key,
                        const std::vector<std::string>& axis) {
  out += "\"";
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < axis.size(); ++i) {
    if (i > 0) out += ",";
    out += jsonu::quote(axis[i]);
  }
  out += "],";
}

template <typename T>
void append_uint_axis(std::string& out, const char* key,
                      const std::vector<T>& axis) {
  out += "\"";
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < axis.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(axis[i]);
  }
  out += "],";
}

}  // namespace

std::string SweepGrid::to_json() const {
  // Fixed key order; every axis present even when empty.  This exact byte
  // sequence is the fingerprint() preimage, so the order is part of the
  // shard-compatibility contract -- do not reorder.
  std::string out = "{";
  out += "\"grid_seed\":" + std::to_string(grid_seed);
  out += ",\"seeds_per_cell\":" + std::to_string(seeds_per_cell);
  out += ",\"base\":" + base.to_json();
  out += ",";
  append_enum_axis(out, "algs", algs);
  append_enum_axis(out, "detectors", detectors);
  append_enum_axis(out, "policies", policies);
  append_enum_axis(out, "cms", cms);
  append_enum_axis(out, "losses", losses);
  append_enum_axis(out, "faults", faults);
  append_uint_axis(out, "ns", ns);
  append_uint_axis(out, "value_spaces", value_spaces);
  append_uint_axis(out, "csts", csts);
  append_enum_axis(out, "topologies", topologies);
  out += "\"densities\":[";
  for (std::size_t i = 0; i < densities.size(); ++i) {
    if (i > 0) out += ",";
    out += jsonu::format_double(densities[i]);
  }
  out += "],";
  append_enum_axis(out, "workloads", workloads);
  append_string_axis(out, "crash_schedules", crash_schedules);
  out.back() = '}';
  return out;
}

std::optional<SweepGrid> SweepGrid::from_json(const std::string& json,
                                              std::string* error) {
  jsonu::Reader r(json);
  SweepGrid grid;
  if (read_json(r, &grid) && r.end()) return grid;
  if (error) *error = r.error();
  return std::nullopt;
}

bool SweepGrid::read_json(jsonu::Reader& r, SweepGrid* out) {
  // to_json's key order; the hint makes in-order input one compare a key.
  static constexpr std::string_view kKeys[] = {
      "grid_seed",  "seeds_per_cell", "base",       "algs",
      "detectors",  "policies",       "cms",        "losses",
      "faults",     "ns",             "value_spaces", "csts",
      "topologies", "densities",      "workloads",  "crash_schedules"};
  constexpr std::size_t kCount = sizeof(kKeys) / sizeof(kKeys[0]);
  SweepGrid grid;
  auto read_enum_axis = [&r](std::string_view key, auto parse_fn,
                             auto& axis) {
    if (!r.begin_array()) return false;
    axis.clear();
    std::string_view value;
    while (r.next_element()) {
      if (!r.string(&value)) return false;
      auto parsed = parse_fn(std::string(value));
      if (!parsed) {
        return r.fail("bad value '" + std::string(value) + "' for axis '" +
                      std::string(key) + "' at " + r.path());
      }
      axis.push_back(*parsed);
    }
    return r.ok();
  };
  auto read_uint_axis = [&r](auto& axis) {
    if (!r.begin_array()) return false;
    axis.clear();
    while (r.next_element()) {
      typename std::remove_reference_t<decltype(axis)>::value_type v{};
      if (!jsonu::read_uint(r, &v)) return false;
      axis.push_back(v);
    }
    return r.ok();
  };

  if (!r.begin_object()) return false;
  std::uint64_t seen = 0;
  std::size_t hint = 0;
  std::string_view key;
  while (r.next_member(&key)) {
    const int slot = jsonu::find_key(key, kKeys, kCount, hint);
    // A typo'd axis name must not silently sweep nothing.
    if (slot < 0) return r.unknown_key();
    if (!r.claim(&seen, static_cast<unsigned>(slot))) return false;
    hint = static_cast<std::size_t>(slot) + 1;
    bool ok = true;
    switch (slot) {
      case 0: ok = r.u64(&grid.grid_seed); break;
      case 1: ok = jsonu::read_uint(r, &grid.seeds_per_cell); break;
      case 2: ok = ScenarioSpec::read_json(r, &grid.base); break;
      case 3: ok = read_enum_axis(key, parse_alg, grid.algs); break;
      case 4: ok = read_enum_axis(key, parse_detector, grid.detectors); break;
      case 5: ok = read_enum_axis(key, parse_policy, grid.policies); break;
      case 6: ok = read_enum_axis(key, parse_cm, grid.cms); break;
      case 7: ok = read_enum_axis(key, parse_loss, grid.losses); break;
      case 8: ok = read_enum_axis(key, parse_fault, grid.faults); break;
      case 9: ok = read_uint_axis(grid.ns); break;
      case 10: ok = read_uint_axis(grid.value_spaces); break;
      case 11: ok = read_uint_axis(grid.csts); break;
      case 12: ok = read_enum_axis(key, parse_topology, grid.topologies); break;
      case 13: {
        ok = r.begin_array();
        grid.densities.clear();
        while (ok && r.next_element()) {
          double d = 0;
          ok = r.f64(&d);
          grid.densities.push_back(d);
        }
        ok = ok && r.ok();
        break;
      }
      case 14: ok = read_enum_axis(key, parse_workload, grid.workloads); break;
      default: {
        // Names are validated by validate(), like every other axis value.
        ok = r.begin_array();
        grid.crash_schedules.clear();
        std::string_view name;
        while (ok && r.next_element()) {
          ok = r.string(&name);
          grid.crash_schedules.emplace_back(name);
        }
        ok = ok && r.ok();
        break;
      }
    }
    if (!ok) return false;
  }
  if (!r.ok()) return false;
  *out = std::move(grid);
  return true;
}

std::uint64_t SweepGrid::fingerprint() const {
  // FNV-1a 64 over the canonical JSON.
  const std::string canon = to_json();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : canon) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace ccd::exp
