#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/capture_effect.hpp"
#include "net/ecf_adversary.hpp"
#include "net/no_loss.hpp"
#include "net/partition_adversary.hpp"
#include "net/probabilistic_loss.hpp"
#include "net/unrestricted_loss.hpp"

namespace ccd {
namespace {

std::uint32_t received_count(const DeliveryMatrix& m, const ProcessSet& sent,
                             std::size_t receiver) {
  std::uint32_t n = 0;
  sent.for_each([&](std::size_t j) { n += m.delivered(receiver, j) ? 1 : 0; });
  return n;
}

TEST(NoLoss, DeliversEverythingToEveryone) {
  NoLoss loss;
  const ProcessSet sent = ProcessSet::of({true, false, true, true});
  DeliveryMatrix m;
  m.reset(4, false);
  loss.decide_delivery(1, sent, m);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(received_count(m, sent, i), 3u);
  }
  EXPECT_EQ(loss.r_cf(), 1u);
}

TEST(EcfAdversary, HonorsEcfObligationAfterRcf) {
  EcfAdversary::Options opts;
  opts.r_cf = 10;
  opts.pre = EcfAdversary::PreMode::kDropOthers;
  EcfAdversary loss(opts);
  const ProcessSet sent = ProcessSet::of({false, true, false});
  DeliveryMatrix m;
  // Before r_cf a lone broadcast may vanish entirely.
  m.reset(3, false);
  loss.decide_delivery(9, sent, m);
  EXPECT_EQ(received_count(m, sent, 0), 0u);
  // From r_cf on everyone hears the lone broadcaster.
  m.reset(3, false);
  loss.decide_delivery(10, sent, m);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(m.delivered(i, 1));
  }
}

TEST(EcfAdversary, ContentionRemainsUnconstrainedAfterRcf) {
  EcfAdversary::Options opts;
  opts.r_cf = 1;
  opts.contention = EcfAdversary::ContentionMode::kOwnOnly;
  EcfAdversary loss(opts);
  const ProcessSet sent = ProcessSet::of({true, true, false});
  DeliveryMatrix m;
  m.reset(3, false);
  loss.decide_delivery(5, sent, m);
  // Two broadcasters: adversary may drop everything (executor adds
  // self-delivery afterwards).
  EXPECT_EQ(received_count(m, sent, 2), 0u);
}

TEST(EcfAdversary, DeliverAllContentionMode) {
  EcfAdversary::Options opts;
  opts.r_cf = 1;
  opts.contention = EcfAdversary::ContentionMode::kDeliverAll;
  EcfAdversary loss(opts);
  const ProcessSet sent = ProcessSet::of({true, true, true});
  DeliveryMatrix m;
  m.reset(3, false);
  loss.decide_delivery(2, sent, m);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(received_count(m, sent, i), 3u);
  }
}

TEST(UnrestrictedLoss, DropOthersNeverDelivers) {
  UnrestrictedLoss loss({UnrestrictedLoss::Mode::kDropOthers, 0.5, 1});
  const ProcessSet sent = ProcessSet::of({true, true});
  DeliveryMatrix m;
  for (Round r = 1; r <= 100; ++r) {
    m.reset(2, false);
    loss.decide_delivery(r, sent, m);
    EXPECT_FALSE(m.delivered(0, 1));
    EXPECT_FALSE(m.delivered(1, 0));
  }
  EXPECT_EQ(loss.r_cf(), kNeverRound);
}

TEST(UnrestrictedLoss, RandomModeDeliversSelfAlways) {
  UnrestrictedLoss loss({UnrestrictedLoss::Mode::kRandom, 0.5, 2});
  const ProcessSet sent = ProcessSet::of({true, true, true});
  DeliveryMatrix m;
  m.reset(3, false);
  loss.decide_delivery(1, sent, m);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_TRUE(m.delivered(i, i));
}

TEST(PartitionAdversary, CrossGroupAlwaysLostBeforeHeal) {
  PartitionAdversary loss({.split = 2, .heal_round = 10});
  const ProcessSet sent = ProcessSet::of({true, false, true, false});
  DeliveryMatrix m;
  m.reset(4, false);
  loss.decide_delivery(5, sent, m);
  // Lone broadcaster per group: delivered within the group only.
  EXPECT_TRUE(m.delivered(0, 0));
  EXPECT_TRUE(m.delivered(1, 0));
  EXPECT_FALSE(m.delivered(2, 0));
  EXPECT_FALSE(m.delivered(3, 0));
  EXPECT_TRUE(m.delivered(2, 2));
  EXPECT_TRUE(m.delivered(3, 2));
  EXPECT_FALSE(m.delivered(0, 2));
}

TEST(PartitionAdversary, ContentionWithinGroupOnlySelf) {
  PartitionAdversary loss({.split = 2, .heal_round = kNeverRound});
  const ProcessSet sent = ProcessSet::of({true, true, false, false});
  DeliveryMatrix m;
  m.reset(4, false);
  loss.decide_delivery(3, sent, m);
  // Two broadcasters in group A: nothing delivered (self-delivery is the
  // executor's job).
  EXPECT_FALSE(m.delivered(1, 0));
  EXPECT_FALSE(m.delivered(0, 1));
}

TEST(PartitionAdversary, HealedChannelIsPerfect) {
  PartitionAdversary loss({.split = 2, .heal_round = 4});
  const ProcessSet sent = ProcessSet::of({true, true, true, true});
  DeliveryMatrix m;
  m.reset(4, false);
  loss.decide_delivery(4, sent, m);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(received_count(m, sent, i), 4u);
  }
  EXPECT_EQ(loss.r_cf(), 4u);
}

TEST(CaptureEffect, AtMostOneCaptureUnderContention) {
  CaptureEffectLoss loss({.p_capture = 1.0, .p_single_deliver = 1.0,
                          .r_cf = 1, .seed = 3});
  const ProcessSet sent = ProcessSet::of({true, true, true, false});
  DeliveryMatrix m;
  for (Round r = 1; r <= 50; ++r) {
    m.reset(4, false);
    loss.decide_delivery(r, sent, m);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_LE(received_count(m, sent, i), 1u) << "receiver " << i;
    }
  }
}

TEST(CaptureEffect, LoneBroadcastGuaranteedAfterRcf) {
  CaptureEffectLoss loss({.p_capture = 0.5, .p_single_deliver = 0.0,
                          .r_cf = 7, .seed = 4});
  const ProcessSet sent = ProcessSet::of({true, false});
  DeliveryMatrix m;
  m.reset(2, false);
  loss.decide_delivery(6, sent, m);
  EXPECT_FALSE(m.delivered(1, 0));  // p_single_deliver = 0 before r_cf
  m.reset(2, false);
  loss.decide_delivery(7, sent, m);
  EXPECT_TRUE(m.delivered(1, 0));
}

TEST(ProbabilisticLoss, RateRoughlyMatchesP) {
  ProbabilisticLoss loss({.p_deliver = 0.7, .r_cf = kNeverRound, .seed = 9});
  const ProcessSet sent = ProcessSet::of({true, false});
  DeliveryMatrix m;
  int delivered = 0;
  const int trials = 5000;
  for (int r = 1; r <= trials; ++r) {
    m.reset(2, false);
    loss.decide_delivery(static_cast<Round>(r), sent, m);
    delivered += m.delivered(1, 0) ? 1 : 0;
  }
  EXPECT_NEAR(delivered / static_cast<double>(trials), 0.7, 0.03);
}

TEST(ProbabilisticLoss, EcfVariantGuaranteesLoneBroadcast) {
  ProbabilisticLoss loss({.p_deliver = 0.0, .r_cf = 3, .seed = 10});
  const ProcessSet sent = ProcessSet::of({true, false});
  DeliveryMatrix m;
  m.reset(2, false);
  loss.decide_delivery(3, sent, m);
  EXPECT_TRUE(m.delivered(1, 0));
}

// ---- DeliveryMatrix word rows at the word boundaries ----------------------

constexpr std::size_t kSizes[] = {1, 63, 64, 65, 130};

/// Bits of row(i)'s last word at sender positions >= n.
std::uint64_t row_tail(const DeliveryMatrix& m, std::size_t i) {
  const std::size_t n = m.size();
  if (n % 64 == 0) return 0;
  return m.row(i)[m.words() - 1] >> (n % 64);
}

TEST(DeliveryMatrix, SetDeliveredAndRowAgreeAtWordBoundaries) {
  for (std::size_t n : kSizes) {
    DeliveryMatrix m;
    m.reset(n, false);
    EXPECT_EQ(m.size(), n);
    EXPECT_EQ(m.words(), (n + 63) / 64);
    auto want = [](std::size_t i, std::size_t j) { return (i + j) % 3 == 0; };
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (want(i, j)) m.set(i, j, true);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const bool row_bit = (m.row(i)[j / 64] >> (j % 64)) & 1u;
        ASSERT_EQ(m.delivered(i, j), want(i, j)) << n << " " << i << " " << j;
        ASSERT_EQ(row_bit, want(i, j)) << n << " " << i << " " << j;
      }
      EXPECT_EQ(row_tail(m, i), 0u) << n;
    }
    // Clearing one entry touches exactly that bit.
    m.set(n - 1, n - 1, true);
    m.set(n - 1, n - 1, false);
    EXPECT_FALSE(m.delivered(n - 1, n - 1));
  }
}

TEST(DeliveryMatrix, ResetClearsBitsPastSize) {
  for (std::size_t n : kSizes) {
    DeliveryMatrix m;
    m.reset(130, true);
    m.reset(n, true);
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t ones = 0;
      for (std::size_t w = 0; w < m.words(); ++w) {
        ones += static_cast<std::size_t>(std::popcount(m.row(i)[w]));
      }
      EXPECT_EQ(ones, n) << "n=" << n << " row " << i;
      EXPECT_EQ(row_tail(m, i), 0u) << n;
    }
    m.reset(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t w = 0; w < m.words(); ++w) {
        EXPECT_EQ(m.row(i)[w], 0u) << n;
      }
    }
  }
}

TEST(DeliveryMatrix, DeliverAllAndRowIterationAreAscending) {
  for (std::size_t n : kSizes) {
    ProcessSet senders(n);
    for (std::size_t j = 0; j < n; j += 2) senders.set(j);
    senders.set(n - 1);
    DeliveryMatrix m;
    m.reset(n, false);
    m.deliver_all(senders);
    std::vector<std::size_t> expected;
    senders.for_each([&](std::size_t j) { expected.push_back(j); });
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<std::size_t> heard;
      for (std::size_t w = 0; w < m.words(); ++w) {
        for_each_bit(senders.data()[w] & m.row(i)[w], w * 64,
                     [&](std::size_t j) { heard.push_back(j); });
      }
      ASSERT_EQ(heard, expected) << "n=" << n << " receiver " << i;
    }
  }
}

// ---- every LossAdversary at n = 65 (one bit into the second word) ---------

TEST(LossAdversaries, LeaveNonSenderColumnsEmptyAcrossTheWordBoundary) {
  constexpr std::size_t kN = 65;
  using Factory = std::function<std::unique_ptr<LossAdversary>()>;
  std::vector<std::pair<std::string, Factory>> adversaries = {
      {"NoLoss", [] { return std::make_unique<NoLoss>(); }},
      {"ProbabilisticLoss",
       [] {
         return std::make_unique<ProbabilisticLoss>(
             ProbabilisticLoss::Options{.p_deliver = 0.5, .r_cf = 3,
                                        .seed = 21});
       }},
      {"UnrestrictedLoss/random",
       [] {
         return std::make_unique<UnrestrictedLoss>(UnrestrictedLoss::Options{
             UnrestrictedLoss::Mode::kRandom, 0.5, 22});
       }},
      {"UnrestrictedLoss/drop",
       [] {
         return std::make_unique<UnrestrictedLoss>(UnrestrictedLoss::Options{
             UnrestrictedLoss::Mode::kDropOthers, 0.5, 23});
       }},
      {"PartitionAdversary/split",
       [] {
         return std::make_unique<PartitionAdversary>(
             PartitionAdversary::Options{.split = 64, .heal_round = 4});
       }},
      {"CaptureEffectLoss",
       [] {
         return std::make_unique<CaptureEffectLoss>(CaptureEffectLoss::Options{
             .p_capture = 0.7, .p_single_deliver = 0.5, .r_cf = 3,
             .seed = 24});
       }},
  };
  using Pre = EcfAdversary::PreMode;
  using Contention = EcfAdversary::ContentionMode;
  for (Pre pre : {Pre::kDropOthers, Pre::kRandom, Pre::kCapture}) {
    for (Contention c : {Contention::kOwnOnly, Contention::kRandom,
                         Contention::kCapture, Contention::kDeliverAll}) {
      adversaries.push_back(
          {"EcfAdversary/" + std::to_string(static_cast<int>(pre)) + "/" +
               std::to_string(static_cast<int>(c)),
           [pre, c] {
             return std::make_unique<EcfAdversary>(EcfAdversary::Options{
                 .r_cf = 3, .pre = pre, .contention = c, .p_deliver = 0.5,
                 .seed = 25});
           }});
    }
  }

  // Senders straddling the boundary, a lone sender in the second word, a
  // lone sender in the first, nobody, and everybody but the boundary pair.
  std::vector<ProcessSet> patterns;
  {
    ProcessSet straddle(kN);
    for (std::size_t j : {0u, 31u, 63u, 64u}) straddle.set(j);
    patterns.push_back(straddle);
    ProcessSet lone_high(kN);
    lone_high.set(64);
    patterns.push_back(lone_high);
    ProcessSet lone_low(kN);
    lone_low.set(5);
    patterns.push_back(lone_low);
    patterns.push_back(ProcessSet(kN));
    ProcessSet most(kN, true);
    most.unset(63);
    most.unset(64);
    patterns.push_back(most);
  }

  for (const auto& [name, make] : adversaries) {
    std::unique_ptr<LossAdversary> loss = make();
    DeliveryMatrix m;
    for (Round r = 1; r <= 6; ++r) {
      for (const ProcessSet& sent : patterns) {
        m.reset(kN, false);
        loss->decide_delivery(r, sent, m);
        for (std::size_t i = 0; i < kN; ++i) {
          EXPECT_EQ(row_tail(m, i), 0u) << name << " round " << r;
          for (std::size_t j = 0; j < kN; ++j) {
            if (sent[j]) continue;
            ASSERT_FALSE(m.delivered(i, j))
                << name << " round " << r << ": receiver " << i
                << " heard non-sender " << j;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ccd
