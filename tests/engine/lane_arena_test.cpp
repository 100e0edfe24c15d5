// The receive arena's contract with on_receive: every span a process is
// handed is sorted (the multiset's canonical order, which reports and the
// golden hashes depend on) and exactly last_receive_count long -- on every
// delivery path (the loss-free clique's shared range, lossy clique rows,
// adjacency-masked kLocal rows, capture-channel receivers), at width 1 and
// 64, with process masks of one word (n = 8) and two (n = 65).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/lane_engine.hpp"
#include "fault/failure_adversary.hpp"
#include "net/ecf_adversary.hpp"
#include "net/no_loss.hpp"
#include "net/probabilistic_loss.hpp"
#include "util/rng.hpp"

namespace ccd {
namespace {

/// Broadcasts a random message from a small alphabet (so multisets hold
/// duplicates and arrive from the channel unsorted); records what each
/// transition was handed.
class RecordingProcess final : public Process {
 public:
  RecordingProcess(std::uint64_t seed, std::uint64_t id)
      : rng_(seed), id_(id) {}

  std::optional<Message> on_send(Round, CmAdvice) override {
    if (!rng_.chance(0.6)) return std::nullopt;
    return Message{static_cast<Message::Kind>(rng_.below(3)), rng_.below(4),
                   id_ % 3};
  }
  void on_receive(Round round, std::span<const Message> received, CdAdvice,
                  CmAdvice) override {
    last_round = round;
    last_size = received.size();
    max_size = std::max(max_size, last_size);
    if (!std::is_sorted(received.begin(), received.end())) ++unsorted;
  }

  Round last_round = 0;
  std::size_t last_size = 0;
  std::size_t max_size = 0;
  std::uint32_t unsorted = 0;

 private:
  Rng rng_;
  std::uint64_t id_;
};

struct Channel {
  const char* name;
  bool graph;  ///< grid topology (kLocal scope) instead of the clique
  ChannelModel channel;
  std::function<std::unique_ptr<LossAdversary>(std::uint64_t seed)> loss;
  bool crash_after_send;
  /// Receivers hear at most their own broadcast and one captured sender,
  /// so every range takes the compare-swap path instead of std::sort.
  bool capture;
};

std::vector<Channel> channels() {
  auto noloss = [](std::uint64_t) { return std::make_unique<NoLoss>(); };
  auto prob = [](std::uint64_t seed) {
    return std::make_unique<ProbabilisticLoss>(
        ProbabilisticLoss::Options{0.5, kNeverRound, seed});
  };
  auto ecf_capture = [](std::uint64_t seed) {
    EcfAdversary::Options o;
    o.r_cf = 20;
    o.pre = EcfAdversary::PreMode::kCapture;
    o.contention = EcfAdversary::ContentionMode::kCapture;
    o.p_deliver = 0.7;
    o.seed = seed;
    return std::make_unique<EcfAdversary>(o);
  };
  return {
      {"noloss_clique", false, ChannelModel::kMatrix, noloss, true, false},
      {"ecf_capture_clique", false, ChannelModel::kMatrix, ecf_capture, false,
       true},
      {"prob_clique", false, ChannelModel::kMatrix, prob, true, false},
      {"noloss_local_grid", true, ChannelModel::kMatrix, noloss, false, false},
      {"prob_local_grid", true, ChannelModel::kMatrix, prob, true, false},
      {"capture_grid", true, ChannelModel::kCapture, noloss, true, true},
  };
}

EngineWorld make_world(const Channel& c, std::size_t n, std::uint64_t seed) {
  EngineWorld ew;
  for (std::size_t i = 0; i < n; ++i) {
    ew.world.processes.push_back(
        std::make_unique<RecordingProcess>(hash_mix(seed * 1000 + i), i));
  }
  ew.world.loss = c.loss(seed);
  if (c.crash_after_send) {
    // kGlobal keeps an after-send crasher's round view; kLocal drops it.
    const auto last = static_cast<ProcessId>(n - 1);
    ew.world.fault = std::make_unique<ScheduledCrash>(std::vector<CrashEvent>{
        {2, 1, CrashPoint::kAfterSend}, {3, last, CrashPoint::kBeforeSend}});
  }
  ew.topology = c.graph ? Topology::grid_n(n) : Topology::clique(n);
  ew.channel = c.channel;
  ew.scope = c.graph ? CollisionScope::kLocal : CollisionScope::kGlobal;
  ew.link = {0.8, 0.6};
  ew.link_seed = seed;
  return ew;
}

TEST(LaneArena, EverySpanIsSortedAndMatchesTheReceiveCount) {
  constexpr Round kRounds = 30;
  for (const Channel& c : channels()) {
    for (std::size_t n : {std::size_t{8}, std::size_t{65}}) {
      for (std::size_t width : {std::size_t{1}, kLaneWidth}) {
        SCOPED_TRACE(std::string(c.name) + " n=" + std::to_string(n) +
                     " width=" + std::to_string(width));
        std::vector<EngineWorld> worlds;
        for (std::size_t l = 0; l < width; ++l) {
          worlds.push_back(make_world(c, n, 11 + l));
        }
        EngineOptions options;
        options.record_views = false;
        options.record_rounds = false;
        options.stop_when_all_decided = false;
        LaneEngine eng(std::move(worlds), options);
        std::size_t checked = 0;
        std::size_t max_size = 0;
        for (Round r = 1; r <= kRounds; ++r) {
          eng.step();
          for (std::size_t l = 0; l < width; ++l) {
            for (std::size_t i = 0; i < n; ++i) {
              auto& p = static_cast<RecordingProcess&>(eng.process(l, i));
              if (p.last_round != r) continue;  // no transition this round
              ASSERT_EQ(p.last_size, eng.last_receive_count(l, i))
                  << "lane " << l << " process " << i << " round " << r;
              ++checked;
            }
          }
        }
        for (std::size_t l = 0; l < width; ++l) {
          for (std::size_t i = 0; i < n; ++i) {
            auto& p = static_cast<RecordingProcess&>(eng.process(l, i));
            EXPECT_EQ(p.unsorted, 0u) << "lane " << l << " process " << i;
            max_size = std::max(max_size, p.max_size);
          }
        }
        EXPECT_GT(checked, 0u);
        // Capture receivers hold at most two messages; every other
        // channel must also exercise the full sort.
        if (c.capture) {
          EXPECT_EQ(max_size, 2u);
        } else {
          EXPECT_GT(max_size, 2u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace ccd
