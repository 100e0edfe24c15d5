// The fixed message alphabet M (Section 3.1).
//
// The algorithms in the paper only ever broadcast a handful of message
// shapes: a value estimate, a one-bit "veto" mark, a one-bit "vote" mark,
// and (for the non-anonymous Section 7.3 protocol) a leader announcement
// carrying a value.  We encode them in one POD struct so receive sets are
// cheap flat ranges (a receive set is a *multiset* over M; Definition 11,
// constraint 4).
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>

#include "model/types.hpp"

namespace ccd {

struct Message {
  enum class Kind : std::uint8_t {
    kEstimate = 0,     ///< Algorithm 1/2 prepare|proposal broadcast of estimate
    kVeto = 1,         ///< negative acknowledgement mark
    kVote = 2,         ///< Algorithm 3 BST vote mark
    kLeaderValue = 3,  ///< Section 7.3 phase-2 leader value announcement
    kPayload = 4,      ///< generic application payload (examples)
  };

  Kind kind = Kind::kPayload;
  Value value = 0;          ///< meaningful for kEstimate/kLeaderValue/kPayload
  std::uint64_t tag = 0;    ///< algorithm-specific discriminator (e.g. epoch)

  friend auto operator<=>(const Message&, const Message&) = default;
};

/// SET(M) of the paper's preliminaries, reduced to what the algorithms
/// read of it: whether the receive multiset holds no, one, or several
/// distinct values of the given kind, and the least of them (the min{}
/// Algorithms 1/2 adopt).  One pass, no allocation.
struct ValueSummary {
  std::uint32_t distinct = 0;  ///< min(|SET(M)|, 2)
  Value min = kNoValue;        ///< min SET(M); meaningful iff distinct > 0
  bool empty() const { return distinct == 0; }
};

inline ValueSummary summarize_values(std::span<const Message> received,
                                     Message::Kind kind) {
  ValueSummary s;
  for (const Message& m : received) {
    if (m.kind != kind) continue;
    if (s.distinct == 0) {
      s.distinct = 1;
      s.min = m.value;
    } else if (m.value != s.min) {
      // A value other than the running min: at least two distinct values.
      s.distinct = 2;
      if (m.value < s.min) s.min = m.value;
    }
  }
  return s;
}

/// Count messages of a given kind in a receive multiset.
std::size_t count_kind(std::span<const Message> received, Message::Kind kind);

std::string to_string(const Message& m);

}  // namespace ccd
