// ProcessSet: a set of process indices 0..n-1 as an n-bit word mask.
//
// Every per-round process mask of Definition 11 -- who is alive, who
// participates (alive and not halted), who sent, whom the failure
// adversary crashes -- crosses the component interfaces (ContentionManager
// ::advise, FailureAdversary::crash_*, LossAdversary::decide_delivery) as a
// ProcessSet.  Bit i % 64 of word i / 64 is process i; the ceil(n/64)
// words are exposed so engines combine masks a word at a time (sent &
// row, alive & ~halted) without a second, per-process copy.
//
// Invariant: bits at positions >= size() are always clear, so count(),
// any() and word-wise combinations never see phantom processes.
//
// Iteration contract: for_each() and for_each_bit() visit set bits in
// ASCENDING index order.  Components that draw randomness per process
// (RandomCrash, WakeupService, the loss adversaries) walk their masks this
// way, so the order of RNG draws -- and with it every golden report hash --
// is the same as a plain 0..n-1 scan.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace ccd {

/// Words needed to hold n bits.
inline constexpr std::size_t mask_words(std::size_t n) {
  return (n + 63) / 64;
}

/// The bits of the last of mask_words(n) words that hold positions < n.
inline constexpr std::uint64_t last_word_mask(std::size_t n) {
  return n % 64 == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << (n % 64)) - 1;
}

/// Call fn(base + b) for every set bit b of `word`, ascending.
template <typename Fn>
inline void for_each_bit(std::uint64_t word, std::size_t base, Fn&& fn) {
  while (word) {
    fn(base + static_cast<std::size_t>(std::countr_zero(word)));
    word &= word - 1;
  }
}

class ProcessSet {
 public:
  ProcessSet() = default;
  explicit ProcessSet(std::size_t n, bool value = false) { reset(n, value); }

  /// The set {i : bits[i]} over bits.size() processes (tests, scripts).
  static ProcessSet of(std::initializer_list<bool> bits) {
    ProcessSet s(bits.size());
    std::size_t i = 0;
    for (bool b : bits) s.set(i++, b);
    return s;
  }

  /// Resize to n processes with every member bit = value.
  void reset(std::size_t n, bool value = false) {
    n_ = n;
    words_.assign(mask_words(n), value ? ~std::uint64_t{0} : 0);
    if (value && n > 0) words_.back() = last_word_mask(n);
  }
  /// Empty the set, keeping its size.
  void clear() { std::fill(words_.begin(), words_.end(), 0); }

  std::size_t size() const { return n_; }
  std::size_t words() const { return words_.size(); }
  std::uint64_t* data() { return words_.data(); }
  const std::uint64_t* data() const { return words_.data(); }

  bool test(std::size_t i) const { return (words_[i / 64] >> (i % 64)) & 1u; }
  bool operator[](std::size_t i) const { return test(i); }
  void set(std::size_t i) { words_[i / 64] |= bit(i); }
  void set(std::size_t i, bool value) { value ? set(i) : unset(i); }
  void unset(std::size_t i) { words_[i / 64] &= ~bit(i); }

  std::size_t count() const {
    std::size_t c = 0;
    for (std::uint64_t w : words_) {
      c += static_cast<std::size_t>(std::popcount(w));
    }
    return c;
  }
  bool any() const {
    return std::any_of(words_.begin(), words_.end(),
                       [](std::uint64_t w) { return w != 0; });
  }
  /// Lowest member, or size() when empty.
  std::size_t first() const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if (words_[w]) {
        return w * 64 +
               static_cast<std::size_t>(std::countr_zero(words_[w]));
      }
    }
    return n_;
  }

  /// Call fn(i) for every member i, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for_each_bit(words_[w], w * 64, fn);
    }
  }

  friend bool operator==(const ProcessSet&, const ProcessSet&) = default;

 private:
  static std::uint64_t bit(std::size_t i) {
    return std::uint64_t{1} << (i % 64);
  }

  std::size_t n_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace ccd
