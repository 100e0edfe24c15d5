// ProcessSet at the word boundaries: one word exactly full (64), one bit
// short of it (63), one bit into the next word (65), a single process (1)
// and a partial third word (130).  Membership, the raw words and the
// ascending iteration order the components' RNG draws depend on must all
// agree, and no bit at a position >= size() may ever be set.
#include "model/process_set.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ccd {
namespace {

constexpr std::size_t kSizes[] = {1, 63, 64, 65, 130};

/// Members every third index, plus the last index (a word's top bit at 64
/// and the first bit of a new word at 65 / 130).
std::vector<bool> pattern(std::size_t n) {
  std::vector<bool> bits(n, false);
  for (std::size_t i = 0; i < n; i += 3) bits[i] = true;
  bits[n - 1] = true;
  return bits;
}

/// Bits of the last word at positions >= n (0 when n fills the word).
std::uint64_t tail_bits(const ProcessSet& s) {
  const std::size_t n = s.size();
  if (n % 64 == 0) return 0;
  return s.data()[s.words() - 1] >> (n % 64);
}

TEST(ProcessSet, SetTestAndWordsAgreeAtWordBoundaries) {
  for (std::size_t n : kSizes) {
    const std::vector<bool> want = pattern(n);
    ProcessSet s(n);
    EXPECT_EQ(s.words(), (n + 63) / 64) << n;
    std::size_t members = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (want[i]) {
        s.set(i);
        ++members;
      }
    }
    EXPECT_EQ(s.count(), members) << n;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(s.test(i), want[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(s[i], want[i]);
      const bool word_bit = (s.data()[i / 64] >> (i % 64)) & 1u;
      EXPECT_EQ(word_bit, want[i]) << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(tail_bits(s), 0u) << n;

    s.unset(n - 1);
    EXPECT_FALSE(s.test(n - 1));
    s.set(n - 1, true);
    EXPECT_TRUE(s.test(n - 1));
    s.set(0, false);
    EXPECT_FALSE(s.test(0));
    EXPECT_EQ(s.count(), members - 1) << n;
  }
}

TEST(ProcessSet, ResetClearsBitsPastSize) {
  for (std::size_t n : kSizes) {
    ProcessSet s(130, true);  // every bit of three words live
    s.reset(n, true);
    EXPECT_EQ(s.size(), n);
    EXPECT_EQ(s.words(), (n + 63) / 64);
    EXPECT_EQ(s.count(), n) << n;
    EXPECT_EQ(tail_bits(s), 0u) << n;
    EXPECT_EQ(s, ProcessSet(n, true)) << n;

    s.reset(n);
    EXPECT_FALSE(s.any()) << n;
    EXPECT_EQ(s.first(), n);

    ProcessSet full(n, true);
    full.clear();
    EXPECT_EQ(full.size(), n);
    EXPECT_FALSE(full.any()) << n;
  }
}

TEST(ProcessSet, IterationIsAscendingAndComplete) {
  for (std::size_t n : kSizes) {
    const std::vector<bool> want = pattern(n);
    ProcessSet s(n);
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < n; ++i) {
      if (want[i]) {
        s.set(i);
        expected.push_back(i);
      }
    }
    std::vector<std::size_t> seen;
    s.for_each([&](std::size_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, expected) << n;
    EXPECT_EQ(s.first(), expected.front());

    // The free word walker visits the same members in the same order.
    std::vector<std::size_t> walked;
    for (std::size_t w = 0; w < s.words(); ++w) {
      for_each_bit(s.data()[w], w * 64,
                   [&](std::size_t i) { walked.push_back(i); });
    }
    EXPECT_EQ(walked, expected) << n;
  }
}

TEST(ProcessSet, OfBuildsTheListedMembers) {
  const ProcessSet s = ProcessSet::of({false, true, true, false});
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_FALSE(s[0]);
  EXPECT_TRUE(s[1]);
  EXPECT_TRUE(s[2]);
  EXPECT_FALSE(s[3]);
  EXPECT_EQ(s.first(), 1u);

  const ProcessSet empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.words(), 0u);
  EXPECT_FALSE(empty.any());
  EXPECT_EQ(empty.count(), 0u);
}

}  // namespace
}  // namespace ccd
