// Message-loss adversaries.
//
// The execution definition (Definition 11, constraints 4-5) places almost
// no limit on loss: any process may lose any subset of the messages sent by
// OTHERS in any round; broadcasters always receive their own message.  The
// only positive property the paper ever assumes is Eventual Collision
// Freedom (Property 1): there is a round r_cf after which a LONE
// broadcaster is heard by everybody.
//
// An adversary fills a delivery matrix each round; the executor enforces
// self-delivery and derives receive multisets and the transmission trace
// from it.
#pragma once

#include <cstdint>
#include <vector>

#include "model/process_set.hpp"
#include "model/types.hpp"

namespace ccd {

/// n x n delivery bits, entry (receiver, sender), stored as word rows:
/// row(i) is mask_words(n) words whose bit j is delivered(i, j).  Engines
/// read a receiver's deliveries as `sent & row(i)` -- set-bit iteration in
/// ascending sender order -- instead of probing all n senders; bits at
/// sender positions >= n are always clear.
class DeliveryMatrix {
 public:
  void reset(std::size_t n, bool value);
  bool delivered(std::size_t receiver, std::size_t sender) const {
    return (row(receiver)[sender / 64] >> (sender % 64)) & 1u;
  }
  void set(std::size_t receiver, std::size_t sender, bool value) {
    std::uint64_t& word = bits_[receiver * words_ + sender / 64];
    const std::uint64_t bit = std::uint64_t{1} << (sender % 64);
    word = value ? word | bit : word & ~bit;
  }
  /// Every receiver gets the message of every member of `senders`.
  void deliver_all(const ProcessSet& senders);
  const std::uint64_t* row(std::size_t receiver) const {
    return &bits_[receiver * words_];
  }
  std::size_t size() const { return n_; }
  std::size_t words() const { return words_; }

 private:
  std::size_t n_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;  // [n][words_]
};

class LossAdversary {
 public:
  virtual ~LossAdversary() = default;

  /// Decide delivery for round `round`.  `sent` holds process j iff j
  /// broadcast (crashed processes never do).  `out` arrives reset to
  /// all-false; set (i, j) for every message of j that i receives.
  /// Self-delivery for senders is enforced by the executor afterwards, so
  /// adversaries need not (but may) set the diagonal.  Adversaries that
  /// draw randomness walk senders and receivers in ascending index order.
  virtual void decide_delivery(Round round, const ProcessSet& sent,
                               DeliveryMatrix& out) = 0;

  /// The r_cf posited by eventual collision freedom, or kNeverRound if this
  /// adversary offers no such guarantee (NoCF executions).
  virtual Round r_cf() const = 0;

  /// True iff this adversary statically delivers EVERYTHING: every
  /// decide_delivery call fills the full matrix, consumes no randomness, and
  /// mutates no state.  Engines may then skip the call (and the matrix)
  /// entirely without observable effect.  Only NoLoss qualifies; any
  /// adversary with an RNG or history must return false.
  virtual bool always_delivers() const { return false; }

  virtual const char* name() const = 0;
};

}  // namespace ccd
