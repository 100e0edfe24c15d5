#include "consensus/alg4_non_anonymous.hpp"

#include <cassert>

namespace ccd {

namespace {
// Tags distinguish the embedded election traffic from value announcements;
// both ride the same rounds-of-three schedule so no cross-talk is possible
// by slot, but the tag keeps message logs self-describing.
constexpr std::uint64_t kElectionTag = 1;
}  // namespace

Alg4Process::Alg4Process(std::uint64_t num_values, std::uint64_t id_space_size,
                         std::uint64_t my_id, Value initial_value,
                         Alg4DecisionRule rule)
    : ConsensusProcess(initial_value),
      direct_mode_(num_values <= id_space_size),
      value_core_(num_values, initial_value),
      election_core_(id_space_size, my_id, Message::Kind::kEstimate,
                     kElectionTag),
      my_id_(my_id),
      rule_(rule),
      announce_(initial_value) {
  assert(my_id < id_space_size);
}

std::optional<Message> Alg4Process::send_election(CmAdvice cm) {
  // Cycle-boundary reset: a process that detected the leader's failure
  // rejoins contention with its own ID.  Resets happen only at prepare so
  // every process's embedded core stays in phase lockstep.
  if (pending_reset_ && election_core_.in_prepare()) {
    election_core_.reset(my_id_);
    election_decided_ = false;
    am_leader_ = false;
    heard_current_ = false;
    pending_reset_ = false;
  }
  if (election_decided_) {
    // Election settled from this process's perspective: it stops
    // contending.  (Its silence cannot strand others: the decision round
    // was a silent accept round, which certifies everyone already shares
    // the decided estimate.)
    return std::nullopt;
  }
  // The paper's recovery gate: while a process still believes a leader
  // exists it must not broadcast in prepare.  In our state machine that is
  // automatic -- believing a leader implies election_decided_ -- so the
  // mute flag is only needed for the window between detection and the
  // cycle-boundary reset, where we are un-decided but must stay quiet.
  const bool muted = pending_reset_;
  return election_core_.step_send(cm, muted);
}

void Alg4Process::receive_election(std::span<const Message> received,
                                   CdAdvice cd) {
  if (election_decided_) return;
  election_core_.step_receive(received, cd);
  if (election_core_.decided()) {
    election_decided_ = true;
    leader_id_ = election_core_.decision();
    am_leader_ = leader_id_ == my_id_;
    // The leader trivially "hears" its own announcement.
    heard_current_ = am_leader_;
  }
}

std::optional<Message> Alg4Process::on_send(Round round, CmAdvice cm) {
  if (direct_mode_) return value_core_.step_send(cm);

  switch (slot_of(round)) {
    case Slot::kElection:
      return send_election(cm);
    case Slot::kAnnounce:
      announced_this_cycle_ = false;
      if (am_leader_) {
        announced_this_cycle_ = true;
        return Message{Message::Kind::kLeaderValue, announce_, 0};
      }
      return std::nullopt;
    case Slot::kVeto:
      if (!heard_current_) return Message{Message::Kind::kVeto, 0, 0};
      return std::nullopt;
  }
  return std::nullopt;
}

void Alg4Process::receive_announce(std::span<const Message> received,
                                   CdAdvice cd) {
  const ValueSummary announced =
      summarize_values(received, Message::Kind::kLeaderValue);

  // Clean reception: exactly one announced value and no collision.
  if (announced.distinct == 1 && cd != CdAdvice::kCollision) {
    heard_current_ = true;
    if (rule_ == Alg4DecisionRule::kHardened) {
      announce_ = announced.min;  // adopt: a re-elected leader must
                                      // re-broadcast a possibly-decided value
    } else if (!am_leader_) {
      // Literal Section 7.3 text: decide on first receipt.  UNSAFE -- see
      // header comment; kept to let tests/benches exhibit the violation.
      decide(announced.min);
      halt();
    }
    return;
  }

  const bool silent = received.empty() && cd != CdAdvice::kCollision;

  if (rule_ == Alg4DecisionRule::kHardened) {
    // Any announcement round this process did NOT cleanly hear (silence,
    // collision, or ambiguity) invalidates heard_current_: a newer
    // announcement may have been missed, so the process must veto until it
    // cleanly hears again.  This keeps "heard" synchronized to the LATEST
    // announcement round, which is what makes a silent phase 3 certify
    // that everyone adopted the same value.
    heard_current_ = false;
  }

  // Leader-failure detection: after an election has decided, a silent
  // phase-2 round (nothing received, no collision) proves -- by Corollary 1
  // for zero-complete detectors -- that no process broadcast, i.e. the
  // leader did not announce.  It must have crashed or halted.
  if (silent && election_decided_ && !am_leader_) {
    pending_reset_ = true;
  }
}

void Alg4Process::receive_veto(std::span<const Message> received,
                               CdAdvice cd) {
  const bool silent = received.empty() && cd != CdAdvice::kCollision;
  if (!silent) return;
  switch (rule_) {
    case Alg4DecisionRule::kHardened:
      // Silence proves no process vetoed, hence every alive process has
      // cleanly heard (and adopted) the current announcement -- including
      // this one.
      if (heard_current_) {
        decide(announce_);
        halt();
      }
      return;
    case Alg4DecisionRule::kLiteral:
      // Only the leader decides here: its own value, after a silent veto
      // round following a round in which it announced.
      if (am_leader_ && announced_this_cycle_) {
        decide(announce_);
        halt();
      }
      return;
  }
}

void Alg4Process::on_receive(Round round, std::span<const Message> received,
                             CdAdvice cd, CmAdvice /*cm*/) {
  if (direct_mode_) {
    value_core_.step_receive(received, cd);
    if (value_core_.decided()) {
      decide(value_core_.decision());
      halt();
    }
    return;
  }

  switch (slot_of(round)) {
    case Slot::kElection:
      receive_election(received, cd);
      return;
    case Slot::kAnnounce:
      receive_announce(received, cd);
      return;
    case Slot::kVeto:
      receive_veto(received, cd);
      return;
  }
}

std::unique_ptr<Process> Alg4Algorithm::make_process(
    const ProcessIdentity& identity, Value initial_value) const {
  assert(identity.has_unique_id);
  return std::make_unique<Alg4Process>(num_values_, id_space_, identity.id,
                                       initial_value, rule_);
}

}  // namespace ccd
