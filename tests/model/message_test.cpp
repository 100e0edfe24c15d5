#include "model/message.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ccd {
namespace {

TEST(Message, SummaryCountsDistinctAndTakesMin) {
  // Unsorted input: the min is not first, duplicates are not adjacent.
  std::vector<Message> recv = {
      {Message::Kind::kEstimate, 5, 0}, {Message::Kind::kEstimate, 2, 0},
      {Message::Kind::kEstimate, 5, 0}, {Message::Kind::kVeto, 0, 0},
      {Message::Kind::kEstimate, 9, 0}};
  const ValueSummary s = summarize_values(recv, Message::Kind::kEstimate);
  EXPECT_EQ(s.distinct, 2u);  // three distinct values, capped at 2
  EXPECT_EQ(s.min, 2u);       // the min{} the algorithms adopt
  EXPECT_FALSE(s.empty());
}

TEST(Message, SummaryCapsAtTwoWhateverTheOrder) {
  // The min arrives last, after the cap was already reached.
  std::vector<Message> recv = {{Message::Kind::kEstimate, 7, 0},
                               {Message::Kind::kEstimate, 8, 0},
                               {Message::Kind::kEstimate, 9, 0},
                               {Message::Kind::kEstimate, 1, 0}};
  const ValueSummary s = summarize_values(recv, Message::Kind::kEstimate);
  EXPECT_EQ(s.distinct, 2u);
  EXPECT_EQ(s.min, 1u);
}

TEST(Message, SummaryOfOneRepeatedValueIsOne) {
  // Copies of one value (a broadcaster's own message plus an echo) are
  // one element of SET(M), whatever else the multiset holds.
  std::vector<Message> recv = {{Message::Kind::kEstimate, 4, 0},
                               {Message::Kind::kVeto, 0, 0},
                               {Message::Kind::kEstimate, 4, 0}};
  const ValueSummary s = summarize_values(recv, Message::Kind::kEstimate);
  EXPECT_EQ(s.distinct, 1u);
  EXPECT_EQ(s.min, 4u);
}

TEST(Message, SummaryFiltersByKind) {
  std::vector<Message> recv = {{Message::Kind::kLeaderValue, 7, 0},
                               {Message::Kind::kEstimate, 3, 0}};
  const ValueSummary leader =
      summarize_values(recv, Message::Kind::kLeaderValue);
  EXPECT_EQ(leader.distinct, 1u);
  EXPECT_EQ(leader.min, 7u);
  const ValueSummary estimate =
      summarize_values(recv, Message::Kind::kEstimate);
  EXPECT_EQ(estimate.distinct, 1u);
  EXPECT_EQ(estimate.min, 3u);
  EXPECT_TRUE(summarize_values(recv, Message::Kind::kVote).empty());
}

TEST(Message, CountKind) {
  std::vector<Message> recv = {{Message::Kind::kVeto, 0, 0},
                               {Message::Kind::kVeto, 0, 0},
                               {Message::Kind::kVote, 0, 0}};
  EXPECT_EQ(count_kind(recv, Message::Kind::kVeto), 2u);
  EXPECT_EQ(count_kind(recv, Message::Kind::kVote), 1u);
  EXPECT_EQ(count_kind(recv, Message::Kind::kEstimate), 0u);
}

TEST(Message, EmptyMultiset) {
  std::vector<Message> recv;
  const ValueSummary s = summarize_values(recv, Message::Kind::kEstimate);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.distinct, 0u);
  EXPECT_EQ(count_kind(recv, Message::Kind::kVeto), 0u);
}

TEST(Message, OrderingIsStructural) {
  const Message a{Message::Kind::kEstimate, 1, 0};
  const Message b{Message::Kind::kEstimate, 2, 0};
  const Message c{Message::Kind::kVeto, 0, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);  // kind is the most significant field
  EXPECT_EQ(a, (Message{Message::Kind::kEstimate, 1, 0}));
}

TEST(Message, ToStringCoversKinds) {
  EXPECT_EQ(to_string(Message{Message::Kind::kEstimate, 4, 0}), "est(4)");
  EXPECT_EQ(to_string(Message{Message::Kind::kVeto, 0, 0}), "veto");
  EXPECT_EQ(to_string(Message{Message::Kind::kVote, 0, 0}), "vote");
  EXPECT_EQ(to_string(Message{Message::Kind::kLeaderValue, 8, 0}),
            "leader(8)");
}

}  // namespace
}  // namespace ccd
