// ExactHistogram and the histogram-backed Stats mode: merge laws
// (associativity, commutativity over random splits) and exact equivalence
// with the raw sample-buffer path over randomized integer/real mixes.
#include "util/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ccd {
namespace {

TEST(ExactHistogram, AddAndRankedAccess) {
  ExactHistogram h;
  EXPECT_TRUE(h.empty());
  h.add(5);
  h.add(-3, 2);
  h.add(5, 3);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.min_key(), -3);
  EXPECT_EQ(h.max_key(), 5);
  // Sorted multiset view: -3,-3,5,5,5,5.
  EXPECT_EQ(h.value_at_rank(0), -3);
  EXPECT_EQ(h.value_at_rank(1), -3);
  EXPECT_EQ(h.value_at_rank(2), 5);
  EXPECT_EQ(h.value_at_rank(5), 5);
  EXPECT_EQ(h.bins(),
            (std::vector<ExactHistogram::Bin>{{-3, 2}, {5, 4}}));
}

TEST(ExactHistogram, BytesRetainedTracksDistinctKeys) {
  ExactHistogram h;
  for (int i = 0; i < 100000; ++i) h.add(i % 7);
  EXPECT_EQ(h.total(), 100000u);
  EXPECT_EQ(h.bytes_retained(), 7 * sizeof(ExactHistogram::Bin));
}

TEST(ExactHistogram, SelfMergeDoubles) {
  ExactHistogram h;
  h.add(1, 2);
  h.add(9, 5);
  h.merge_from(h);
  EXPECT_EQ(h.bins(), (std::vector<ExactHistogram::Bin>{{1, 4}, {9, 10}}));
  EXPECT_EQ(h.total(), 14u);
}

/// Random key stream, split into parts, merged in every grouping/order:
/// the result must be one exact multiset, independent of the split.
TEST(ExactHistogram, MergeIsAssociativeAndCommutativeOverRandomSplits) {
  Rng rng(2026);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.below(400);
    std::vector<std::int64_t> keys(n);
    ExactHistogram whole;
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = static_cast<std::int64_t>(rng.below(50)) - 25;
      whole.add(keys[i]);
    }
    // Random 3-way split.
    ExactHistogram part[3];
    for (std::size_t i = 0; i < n; ++i) {
      part[rng.below(3)].add(keys[i]);
    }
    // (0+1)+2
    ExactHistogram left = part[0];
    left.merge_from(part[1]);
    left.merge_from(part[2]);
    // 0+(1+2), built right-to-left
    ExactHistogram right = part[2];
    right.merge_from(part[1]);
    right.merge_from(part[0]);
    EXPECT_EQ(left.bins(), whole.bins());
    EXPECT_EQ(right.bins(), whole.bins());
    EXPECT_EQ(left.total(), whole.total());
  }
}

/// The heart of the tentpole: over randomized integer streams, the
/// histogram-backed Stats must agree BIT-IDENTICALLY with a raw
/// sample-buffer Stats on every rendered quantity.
TEST(StatsHistogram, ExactlyMatchesRawPathOnIntegerStreams) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    Stats hist_mode;  // default: histogram until a non-integer arrives
    Stats raw_mode{Stats::Mode::kRawSamples};
    const std::size_t n = 1 + rng.below(3000);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(
          static_cast<std::int64_t>(rng.below(1000)) - 500);
      hist_mode.add(x);
      raw_mode.add(x);
    }
    ASSERT_TRUE(hist_mode.histogram_active());
    EXPECT_EQ(hist_mode.count(), raw_mode.count());
    EXPECT_EQ(hist_mode.min(), raw_mode.min());
    EXPECT_EQ(hist_mode.max(), raw_mode.max());
    EXPECT_EQ(hist_mode.mean(), raw_mode.mean());
    for (double p : {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      EXPECT_EQ(hist_mode.percentile(p), raw_mode.percentile(p))
          << "p" << p << " trial " << trial;
    }
  }
}

/// Mixed integer/real streams force a mid-stream demotion to the raw
/// buffer; the demoted Stats must still agree exactly with an
/// always-raw Stats fed the same values in the same order.
TEST(StatsHistogram, DemotionMatchesRawPathOnMixedStreams) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    Stats auto_mode;
    Stats raw_mode{Stats::Mode::kRawSamples};
    const std::size_t n = 1 + rng.below(500);
    for (std::size_t i = 0; i < n; ++i) {
      double x = static_cast<double>(
          static_cast<std::int64_t>(rng.below(100)) - 50);
      if (rng.below(4) == 0) x += 0.5;  // sprinkle non-integers
      auto_mode.add(x);
      raw_mode.add(x);
    }
    EXPECT_EQ(auto_mode.count(), raw_mode.count());
    EXPECT_EQ(auto_mode.min(), raw_mode.min());
    EXPECT_EQ(auto_mode.max(), raw_mode.max());
    // Mean/percentiles: bit-identical while histogram-backed; after a
    // demotion the replay is the sorted multiset, so order-sensitive
    // float sums can differ in the last ulp -- rendered values (%.4f)
    // cannot.  Demand near-equality at far below rendering precision.
    EXPECT_NEAR(auto_mode.mean(), raw_mode.mean(),
                1e-9 * std::abs(raw_mode.mean()) + 1e-12);
    for (double p : {0.0, 50.0, 99.0, 100.0}) {
      EXPECT_EQ(auto_mode.percentile(p), raw_mode.percentile(p));
    }
  }
}

/// Histogram-mode merge equals the single-pass fold exactly, over random
/// splits of random integer streams (the shard-merge byte-identity law,
/// at the Stats level).
TEST(StatsHistogram, MergeEqualsSinglePassFoldOnRandomSplits) {
  Rng rng(1234);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 1 + rng.below(2000);
    std::vector<double> values(n);
    Stats whole;
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = static_cast<double>(rng.below(64));
      whole.add(values[i]);
    }
    Stats parts[4];
    for (std::size_t i = 0; i < n; ++i) {
      parts[rng.below(4)].add(values[i]);
    }
    Stats merged;
    for (Stats& part : parts) merged.merge_from(part);
    ASSERT_TRUE(merged.histogram_active());
    EXPECT_EQ(stats_to_json(merged), stats_to_json(whole));
    EXPECT_EQ(merged.mean(), whole.mean());
    EXPECT_EQ(merged.percentile(99), whole.percentile(99));
  }
}

/// Serialization round trip in both modes.
TEST(StatsHistogram, JsonRoundTrip) {
  Stats hist;
  for (double x : {4.0, 4.0, 7.0, -2.0}) hist.add(x);
  EXPECT_EQ(stats_to_json(hist), "{\"h\":[-2,1,4,2,7,1]}");
  Stats hist_back;
  std::string error;
  ASSERT_TRUE(stats_from_json(stats_to_json(hist), &hist_back, &error))
      << error;
  EXPECT_EQ(stats_to_json(hist_back), stats_to_json(hist));

  Stats raw;
  for (double x : {0.25, 4.0}) raw.add(x);
  EXPECT_EQ(stats_to_json(raw), "{\"raw\":[0.25,4]}");
  Stats raw_back;
  ASSERT_TRUE(stats_from_json(stats_to_json(raw), &raw_back, &error))
      << error;
  EXPECT_FALSE(raw_back.histogram_active());
  EXPECT_EQ(stats_to_json(raw_back), stats_to_json(raw));
}

/// Out-of-window and signed-zero values must demote rather than corrupt
/// the integer key space.
TEST(StatsHistogram, EdgeValuesDemote) {
  Stats s;
  s.add(1.0);
  ASSERT_TRUE(s.histogram_active());
  s.add(-0.0);  // signbit must not be erased by an integer key
  EXPECT_FALSE(s.histogram_active());
  EXPECT_TRUE(std::signbit(s.samples()[1]));

  Stats big;
  big.add(18446744073709551616.0);  // 2^64: outside the exact window
  EXPECT_FALSE(big.histogram_active());
  EXPECT_EQ(big.max(), 18446744073709551616.0);
}

}  // namespace
}  // namespace ccd
