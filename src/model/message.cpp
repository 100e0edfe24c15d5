#include "model/message.hpp"

namespace ccd {

std::size_t count_kind(std::span<const Message> received, Message::Kind kind) {
  std::size_t n = 0;
  for (const Message& m : received) {
    if (m.kind == kind) ++n;
  }
  return n;
}

std::string to_string(const Message& m) {
  switch (m.kind) {
    case Message::Kind::kEstimate:
      return "est(" + std::to_string(m.value) + ")";
    case Message::Kind::kVeto:
      return "veto";
    case Message::Kind::kVote:
      return "vote";
    case Message::Kind::kLeaderValue:
      return "leader(" + std::to_string(m.value) + ")";
    case Message::Kind::kPayload:
      return "payload(" + std::to_string(m.value) + ")";
  }
  return "?";
}

}  // namespace ccd
