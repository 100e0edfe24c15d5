#include "exp/lane_executor.hpp"

#include <cassert>

#include "consensus/harness.hpp"
#include "engine/lane_engine.hpp"
#include "multihop/flood.hpp"
#include "multihop/mis.hpp"
#include "util/rng.hpp"

namespace ccd::exp {

namespace {

/// Every spec in a block must agree on the axes that fix the execution
/// structure (one shared topology, one round budget, one lockstep loop).
[[maybe_unused]] bool block_is_uniform(const std::vector<ScenarioSpec>& s) {
  for (std::size_t k = 1; k < s.size(); ++k) {
    if (s[k].workload != s[0].workload || s[k].topology != s[0].topology ||
        s[k].n != s[0].n) {
      return false;
    }
  }
  return true;
}

/// Trace capture records every round and view; sweeps record only the
/// decisions and crashes the verdicts read.
EngineOptions engine_options(const RunScenarioOptions& options,
                             bool stop_when_all_decided) {
  return {options.capture_log, options.capture_log, stop_when_all_decided,
          options.phases};
}

/// Graph-level metrics, shared by every lane of a block (one topology).
MultihopSummary graph_summary(const Topology& topo) {
  MultihopSummary mh;
  mh.ran = true;
  const std::uint32_t d = topo.diameter();
  mh.connected = d != Topology::kUnreachable;
  mh.diameter = mh.connected ? d : 0;
  return mh;
}

void finish_mh(MultihopSummary& out, const LaneEngine& eng, std::size_t l) {
  out.rounds_executed = eng.result(l).rounds_executed;
  out.broadcasts = eng.total_broadcasts(l);
  out.messages_per_node =
      eng.size() > 0 ? static_cast<double>(eng.total_broadcasts(l)) /
                           static_cast<double>(eng.size())
                     : 0.0;
  out.crashes_applied = eng.crashes_applied(l);
  out.survivors = eng.num_alive(l);
}

/// Every lane's last word: its counters, and under trace capture its log.
void finish_lane(ScenarioOutcome& out, LaneEngine& eng, std::size_t l,
                 const RunScenarioOptions& options) {
  out.counters.add(eng.counters(l));
  if (options.capture_log) out.log = eng.take_log(l);
}

/// Consensus: WorldFactory::make's component stack (algorithm, cm,
/// detector, loss, fault, initial values) over the spec's graph -- the
/// paper's model proper on the single-hop clique, per-neighborhood
/// collision semantics and an adjacency-masked loss adversary elsewhere.
void run_consensus_block(const std::vector<ScenarioSpec>& specs,
                         const RunScenarioOptions& options,
                         std::vector<ScenarioOutcome>& outs) {
  const ScenarioSpec& head = specs[0];
  const bool singlehop = head.topology == TopologyKind::kSingleHop;
  const Topology topo = WorldFactory::make_topology(head);
  const MultihopSummary graph =
      singlehop ? MultihopSummary{} : graph_summary(topo);

  std::vector<EngineWorld> worlds;
  worlds.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) {
    EngineWorld ew;
    ew.world = WorldFactory::make(spec);
    ew.topology = topo;
    ew.channel = ChannelModel::kMatrix;
    ew.scope = singlehop ? CollisionScope::kGlobal : CollisionScope::kLocal;
    worlds.push_back(std::move(ew));
  }
  LaneEngine eng(std::move(worlds), engine_options(options, true));
  eng.run(WorldFactory::max_rounds(head));
  for (std::size_t l = 0; l < specs.size(); ++l) {
    ScenarioOutcome& out = outs[l];
    out.summary = summarize_lane(eng, l);
    if (!singlehop) {
      out.mh = graph;
      finish_mh(out.mh, eng, l);
    }
    finish_lane(out, eng, l, options);
  }
}

/// Capture-channel assembly for flood / MIS: per lane the workload
/// processes (seeded from mh_proc_seed), the spec's detector and fault
/// adversary, and the kMhLinkSalt link stream.  quiesce[l] is lane l's
/// last crash round.
LaneEngine make_capture_lanes(const std::vector<ScenarioSpec>& specs,
                              const Topology& topo,
                              const RunScenarioOptions& options,
                              std::vector<Round>& quiesce, bool mis) {
  const Round budget = WorldFactory::multihop_max_rounds(specs[0]);
  std::vector<EngineWorld> worlds;
  worlds.reserve(specs.size());
  quiesce.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) {
    const std::size_t n = topo.size();
    const std::uint64_t proc_base = WorldFactory::mh_proc_seed(spec);
    EngineWorld ew;
    ew.world.processes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t seed =
          hash_mix(proc_base ^ static_cast<std::uint64_t>(i));
      if (mis) {
        MisProcess::Options o;
        o.seed = seed;
        ew.world.processes.push_back(std::make_unique<MisProcess>(o));
      } else {
        FloodProcess::Options o;
        o.is_source = i == 0;
        // Always the CD-backoff policy: under a NoCD detector it
        // degenerates to fixed-probability flooding, so the detector axis
        // itself carries the with/without-collision-feedback contrast.
        o.policy = FloodPolicy::kCdBackoff;
        o.fresh_rounds = budget;
        o.seed = seed;
        ew.world.processes.push_back(std::make_unique<FloodProcess>(o));
      }
    }
    ew.world.cd = WorldFactory::make_detector(spec);
    ew.world.fault = WorldFactory::make_fault(spec);
    // Theorem 3 accounting: success criteria are judged against the
    // survivor set AFTER failures cease, so completion cannot be declared
    // while the adversary still has crashes pending.
    quiesce.push_back(ew.world.fault->last_crash_round());
    ew.topology = topo;
    ew.channel = ChannelModel::kCapture;
    ew.scope = CollisionScope::kLocal;
    ew.link = WorldFactory::make_link(spec);
    ew.link_seed = WorldFactory::mh_link_seed(spec);
    worlds.push_back(std::move(ew));
  }
  return LaneEngine(std::move(worlds), engine_options(options, false));
}

void run_flood_block(const std::vector<ScenarioSpec>& specs,
                     const RunScenarioOptions& options,
                     std::vector<ScenarioOutcome>& outs) {
  const Topology topo = WorldFactory::make_topology(specs[0]);
  const std::size_t n = topo.size();
  const MultihopSummary graph = graph_summary(topo);
  for (ScenarioOutcome& out : outs) out.mh = graph;
  if (n == 0) return;

  std::vector<Round> quiesce;
  LaneEngine eng = make_capture_lanes(specs, topo, options, quiesce, false);
  const Round budget = WorldFactory::multihop_max_rounds(specs[0]);
  eng.run_until(budget, [&](std::size_t l, Round r) {
    // Coverage is over survivors: a copy held only by the dead serves
    // nobody.
    std::size_t covered = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (eng.alive(l, i) &&
          static_cast<FloodProcess&>(eng.process(l, i)).has_message()) {
        ++covered;
      }
    }
    outs[l].mh.covered = covered;
    if (eng.num_alive(l) > 0 && covered == eng.num_alive(l) &&
        r >= quiesce[l]) {
      outs[l].mh.full_coverage_round = r;
      return true;
    }
    return false;
  });
  for (std::size_t l = 0; l < specs.size(); ++l) {
    finish_mh(outs[l].mh, eng, l);
    finish_lane(outs[l], eng, l, options);
  }
}

/// MIS; heads[l] receives lane l's SURVIVING heads (dead heads are out).
void run_mis_block(const std::vector<ScenarioSpec>& specs,
                   const RunScenarioOptions& options,
                   std::vector<ScenarioOutcome>& outs,
                   std::vector<std::vector<bool>>& heads) {
  const Topology topo = WorldFactory::make_topology(specs[0]);
  const std::size_t n = topo.size();
  const MultihopSummary graph = graph_summary(topo);
  for (ScenarioOutcome& out : outs) out.mh = graph;
  heads.assign(specs.size(), std::vector<bool>(n, false));
  if (n == 0) return;

  std::vector<Round> quiesce;
  LaneEngine eng = make_capture_lanes(specs, topo, options, quiesce, true);
  const Round budget = WorldFactory::multihop_max_rounds(specs[0]);
  eng.run_until(budget, [&](std::size_t l, Round r) {
    // Settlement over survivors, only after failures cease: a crash can
    // un-dominate a node, so an early all-settled snapshot would overstate
    // the clustering.
    for (std::size_t i = 0; i < n; ++i) {
      if (eng.alive(l, i) &&
          !static_cast<MisProcess&>(eng.process(l, i)).settled()) {
        return false;
      }
    }
    if (r < quiesce[l]) return false;
    outs[l].mh.mis_settle_round = r;
    return true;
  });
  for (std::size_t l = 0; l < specs.size(); ++l) {
    MultihopSummary& out = outs[l].mh;
    // Heads and the independence/maximality verdicts are conditioned on
    // the surviving subgraph: dead heads elect nobody and dominate nobody.
    std::vector<bool>& head = heads[l];
    for (std::size_t i = 0; i < n; ++i) {
      head[i] = eng.alive(l, i) &&
                static_cast<MisProcess&>(eng.process(l, i)).state() ==
                    MisProcess::State::kHead;
      if (head[i]) ++out.mis_size;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!eng.alive(l, i)) continue;
      if (head[i]) {
        for (std::uint32_t j : topo.neighbors(i)) {
          if (head[j]) out.mis_independent = false;
        }
      } else {
        bool dominated = false;
        for (std::uint32_t j : topo.neighbors(i)) {
          if (head[j]) dominated = true;
        }
        if (!dominated) out.mis_maximal = false;
      }
    }
    finish_mh(out, eng, l);
    finish_lane(outs[l], eng, l, options);
  }
}

}  // namespace

bool LaneExecutor::eligible(const ScenarioSpec& spec,
                            const RunScenarioOptions& options) {
  // Trace capture re-executes one seed at a time (rerun_cell).
  if (options.capture_log) return false;
  // n = 0 executes no round at all: nothing to share.
  if (spec.n == 0) return false;
  // Round-sync sits below the round abstraction entirely.
  if (spec.workload == WorkloadKind::kRoundSync) return false;
  // A random-geometric graph is seed-dependent; lanes share one topology.
  if (spec.topology == TopologyKind::kRandomGeometric) return false;
  return true;
}

std::vector<ScenarioOutcome> LaneExecutor::run_block(
    const std::vector<ScenarioSpec>& specs,
    const RunScenarioOptions& options) {
  assert(!specs.empty() && specs.size() <= kLaneWidth);
  assert(block_is_uniform(specs));
  for ([[maybe_unused]] const ScenarioSpec& spec : specs) {
    assert(specs.size() == 1 || eligible(spec, options));
    assert(spec.workload != WorkloadKind::kRoundSync);
  }
  std::vector<ScenarioOutcome> outs(specs.size());
  switch (specs[0].workload) {
    case WorkloadKind::kConsensus:
      run_consensus_block(specs, options, outs);
      break;
    case WorkloadKind::kFlood:
      run_flood_block(specs, options, outs);
      break;
    case WorkloadKind::kMis: {
      std::vector<std::vector<bool>> heads;
      run_mis_block(specs, options, outs, heads);
      break;
    }
    case WorkloadKind::kMisThenConsensus: {
      std::vector<std::vector<bool>> heads;
      run_mis_block(specs, options, outs, heads);
      for (std::size_t l = 0; l < specs.size(); ++l) {
        std::size_t k = 0;
        for (bool h : heads[l]) k += h;
        if (k == 0) {
          outs[l].mh.phase2_skipped = true;
          continue;
        }
        // Phase 2: the surviving clusterheads form the single-hop
        // backbone; run the spec's consensus stack among them with a
        // derived seed (see phase2_spec for the fault-axis carry rules).
        ScenarioOutcome phase2 = std::move(run_block(
            {WorldFactory::phase2_spec(specs[l],
                                       static_cast<std::uint32_t>(k))},
            options)[0]);
        outs[l].mh.consensus = phase2.summary;
        outs[l].summary = std::move(phase2.summary);
        outs[l].counters.add(phase2.counters);
        outs[l].phase2_log = std::move(phase2.log);
      }
      break;
    }
    case WorkloadKind::kRoundSync:
      break;  // WorldFactory::run_scenario handles round-sync itself
  }
  return outs;
}

}  // namespace ccd::exp
