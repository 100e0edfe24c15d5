// LaneEngine semantics at width 1 (the per-run executor): the
// configuration axes (channel, scope) and their interaction with topology
// and crash points, round recording, and the empty world.  The byte-level
// equivalence with the retired per-run engine is pinned by the
// fixture-backed lane_differential / lane_multiword / lane_tail tests and
// exp/golden_report_test; the adapter-level behaviour by the executor /
// mh_executor tests (which drive the engine through sim::Executor /
// MultihopExecutor).
#include "engine/lane_engine.hpp"

#include <gtest/gtest.h>

#include "cm/no_cm.hpp"
#include "consensus/alg2_zero_oac.hpp"
#include "consensus/harness.hpp"
#include "net/no_loss.hpp"

namespace ccd {
namespace {

/// Broadcasts every round (or never); records its observations.
class BeaconProcess final : public Process {
 public:
  explicit BeaconProcess(bool talk) : talk_(talk) {}
  std::optional<Message> on_send(Round, CmAdvice) override {
    if (talk_) return Message{Message::Kind::kPayload, 7, 0};
    return std::nullopt;
  }
  void on_receive(Round, std::span<const Message> received, CdAdvice,
                  CmAdvice) override {
    last_count_ = received.size();
    ++transitions_;
  }
  std::size_t last_count_ = 0;
  std::uint32_t transitions_ = 0;

 private:
  bool talk_;
};

EngineWorld beacon_world(Topology topo, std::vector<bool> talk,
                         ChannelModel channel, CollisionScope scope,
                         std::unique_ptr<FailureAdversary> fault = nullptr) {
  EngineWorld ew;
  for (bool b : talk) {
    ew.world.processes.push_back(std::make_unique<BeaconProcess>(b));
  }
  // Pin the detector: the engine's null-substitution default is NoCD (the
  // constant "+-" detector), which would drown the advice assertions.
  ew.world.cd = std::make_unique<OracleDetector>(DetectorSpec::ZeroAC(),
                                                 make_truthful_policy());
  ew.world.fault = std::move(fault);
  ew.topology = std::move(topo);
  ew.channel = channel;
  ew.scope = scope;
  ew.link = {1.0, 1.0};
  return ew;
}

EngineOptions quiet_options() {
  EngineOptions options;
  options.record_views = false;
  options.record_rounds = false;
  options.stop_when_all_decided = false;
  return options;
}

// Lane 0 of a width-1 engine is the execution under test.
constexpr std::size_t kLane = 0;

TEST(LaneEngineWidth1, MatrixChannelMasksDeliveryByAdjacency) {
  // Line 0-1-2, perfect matrix channel (NoLoss fills the whole matrix):
  // node 0 broadcasts; node 1 is adjacent and receives, node 2 is NOT
  // adjacent -- the adjacency mask must drop the matrix entry, and its
  // local c must be 0 (accuracy: no collision to report two hops away).
  auto ew = beacon_world(Topology::line(3), {true, false, false},
                         ChannelModel::kMatrix, CollisionScope::kLocal);
  LaneEngine engine(std::move(ew), quiet_options());
  engine.step();
  EXPECT_EQ(engine.last_receive_count(kLane, 0), 1u);  // self-delivery
  EXPECT_EQ(engine.last_local_broadcasters(kLane, 0), 1u);
  EXPECT_EQ(engine.last_receive_count(kLane, 1), 1u);
  EXPECT_EQ(engine.last_local_broadcasters(kLane, 1), 1u);
  EXPECT_EQ(engine.last_receive_count(kLane, 2), 0u);
  EXPECT_EQ(engine.last_local_broadcasters(kLane, 2), 0u);
  EXPECT_EQ(engine.last_cd(kLane, 2), CdAdvice::kNull);
}

TEST(LaneEngineWidth1, GlobalAndLocalScopeAgreeOnACliqueDeterministically) {
  // On a clique, per-neighborhood counts degenerate to the global count,
  // so with RNG-free components (truthful detector, NoLoss, NoCm) the two
  // scopes must produce the SAME consensus execution.
  auto build = [](CollisionScope scope) {
    Alg2Algorithm alg(16);
    EngineWorld ew;
    ew.world = make_world(alg, {3, 9, 9, 3, 7, 1},
                          std::make_unique<NoCm>(),
                          std::make_unique<OracleDetector>(
                              DetectorSpec::ZeroAC(), make_truthful_policy()),
                          std::make_unique<NoLoss>(),
                          std::make_unique<NoFailures>());
    ew.topology = Topology::clique(6);
    ew.channel = ChannelModel::kMatrix;
    ew.scope = scope;
    return LaneEngine(std::move(ew), EngineOptions{});
  };
  LaneEngine global = build(CollisionScope::kGlobal);
  LaneEngine local = build(CollisionScope::kLocal);
  global.run(500);
  local.run(500);
  const RunResult& rg = global.result(kLane);
  const RunResult& rl = local.result(kLane);
  EXPECT_EQ(rg.all_correct_decided, rl.all_correct_decided);
  EXPECT_EQ(rg.rounds_executed, rl.rounds_executed);
  EXPECT_EQ(rg.last_decision_round, rl.last_decision_round);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(global.decision(kLane, i), local.decision(kLane, i)) << i;
  }
}

TEST(LaneEngineWidth1, AfterSendCrashVisibilityFollowsScope) {
  // Process 0 broadcasts and crashes after its round-1 send.  Both scopes
  // deliver the message and skip the crasher's transition; they differ in
  // whether the corpse's own view still forms (kGlobal: Definition 11's
  // literal reading) or it leaves the channel immediately (kLocal).
  auto crash0 = [] {
    return std::make_unique<ScheduledCrash>(
        std::vector<CrashEvent>{{1, 0, CrashPoint::kAfterSend}});
  };
  for (CollisionScope scope :
       {CollisionScope::kGlobal, CollisionScope::kLocal}) {
    auto ew = beacon_world(Topology::clique(2), {true, false},
                           ChannelModel::kMatrix, scope, crash0());
    LaneEngine engine(std::move(ew), quiet_options());
    auto& crasher = static_cast<BeaconProcess&>(engine.process(kLane, 0));
    auto& survivor = static_cast<BeaconProcess&>(engine.process(kLane, 1));
    engine.step();
    EXPECT_FALSE(engine.alive(kLane, 0));
    EXPECT_EQ(engine.num_alive(kLane), 1u);
    EXPECT_EQ(engine.crashes_applied(kLane), 1u);
    // The round-1 message went out either way (Definition 11: the message
    // derives from the pre-crash state)...
    EXPECT_EQ(survivor.last_count_, 1u);
    EXPECT_EQ(survivor.transitions_, 1u);
    // ...and the crasher never takes its round-1 transition.
    EXPECT_EQ(crasher.transitions_, 0u);
    // Scope-dependent: does the crasher's round-1 view still form?
    if (scope == CollisionScope::kGlobal) {
      // Self-delivery observed.
      EXPECT_EQ(engine.last_receive_count(kLane, 0), 1u);
    } else {
      // Out of the channel.
      EXPECT_EQ(engine.last_receive_count(kLane, 0), 0u);
    }
  }
}

TEST(LaneEngineWidth1, CaptureChannelCountsBroadcastsAndKeepsTopology) {
  auto ew = beacon_world(Topology::ring(5), {true, true, false, false, false},
                         ChannelModel::kCapture, CollisionScope::kLocal);
  ew.link_seed = 42;
  LaneEngine engine(std::move(ew), quiet_options());
  for (int r = 0; r < 3; ++r) engine.step();
  EXPECT_EQ(engine.total_broadcasts(kLane), 6u);  // 2 talkers x 3 rounds
  EXPECT_EQ(engine.topology().size(), 5u);
  EXPECT_EQ(engine.current_round(), 3u);
  EXPECT_TRUE(engine.all_correct_decided(kLane) == false ||
              engine.size() == 0);  // beacons never decide
}

TEST(LaneEngineWidth1, RecordsRoundsOnlyWhenAsked) {
  auto make = [](bool record_rounds) {
    auto ew = beacon_world(Topology::clique(3), {true, false, false},
                           ChannelModel::kMatrix, CollisionScope::kGlobal);
    EngineOptions options;
    options.record_views = record_rounds;
    options.record_rounds = record_rounds;
    options.stop_when_all_decided = false;
    return LaneEngine(std::move(ew), options);
  };
  LaneEngine quiet = make(false);
  LaneEngine logged = make(true);
  for (int r = 0; r < 4; ++r) {
    quiet.step();
    logged.step();
  }
  EXPECT_EQ(quiet.log(kLane).num_rounds(), 0u);
  EXPECT_EQ(logged.log(kLane).num_rounds(), 4u);
  EXPECT_EQ(logged.log(kLane).transmission().at(2).broadcaster_count, 1u);
  EXPECT_TRUE(logged.log(kLane).views_recorded());
}

TEST(LaneEngineWidth1, EmptyWorldRunsNoRoundsAndIsAllDecided) {
  // n = 0: no process can send, decide or crash, so every consensus
  // property holds vacuously -- run() must return at once, even with
  // stop_when_all_decided off (which would otherwise spin empty rounds).
  for (const bool stop : {true, false}) {
    EngineOptions options;
    options.stop_when_all_decided = stop;
    LaneEngine engine(beacon_world(Topology::clique(0), {},
                                   ChannelModel::kMatrix,
                                   CollisionScope::kGlobal),
                      options);
    engine.run(50);
    EXPECT_EQ(engine.size(), 0u);
    EXPECT_EQ(engine.current_round(), 0u);
    EXPECT_EQ(engine.active_mask(), 0u);
    const RunResult& result = engine.result(kLane);
    EXPECT_TRUE(result.all_correct_decided);
    EXPECT_EQ(result.rounds_executed, 0u);
    EXPECT_EQ(result.last_decision_round, 0u);
    EXPECT_EQ(result.num_crashed, 0u);
    EXPECT_EQ(engine.counters(kLane), obs::EngineCounters{});
    EXPECT_EQ(engine.log(kLane).num_rounds(), 0u);
  }
}

TEST(LaneEngineWidth1, StepAfterRunIsANoOp) {
  // run() retires the lane; a later step() must neither execute a round
  // nor advance the clock.
  auto ew = beacon_world(Topology::clique(3), {true, false, false},
                         ChannelModel::kMatrix, CollisionScope::kGlobal);
  EngineOptions options;
  options.stop_when_all_decided = false;
  LaneEngine engine(std::move(ew), options);
  engine.run(3);
  ASSERT_EQ(engine.active_mask(), 0u);
  const obs::EngineCounters before = engine.counters(kLane);
  engine.step();
  EXPECT_EQ(engine.current_round(), 3u);
  EXPECT_EQ(engine.result(kLane).rounds_executed, 3u);
  EXPECT_EQ(engine.log(kLane).num_rounds(), 3u);
  EXPECT_EQ(engine.counters(kLane), before);
}

}  // namespace
}  // namespace ccd
