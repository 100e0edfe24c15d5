#include "consensus/alg1_maj_oac.hpp"

namespace ccd {

Alg1Process::Alg1Process(Value initial_value)
    : ConsensusProcess(initial_value), estimate_(initial_value) {}

std::optional<Message> Alg1Process::on_send(Round /*round*/, CmAdvice cm) {
  if (phase_ == Phase::kProposal) {
    if (cm == CmAdvice::kActive) {
      return Message{Message::Kind::kEstimate, estimate_, 0};
    }
    return std::nullopt;
  }
  // Veto phase: complain iff the proposal round looked inconsistent
  // (pseudocode line 14).
  if (proposal_cd_ == CdAdvice::kCollision || proposal_unique_values_ > 1) {
    return Message{Message::Kind::kVeto, 0, 0};
  }
  return std::nullopt;
}

void Alg1Process::on_receive(Round /*round*/,
                             std::span<const Message> received, CdAdvice cd,
                             CmAdvice /*cm*/) {
  if (phase_ == Phase::kProposal) {
    const ValueSummary messages =
        summarize_values(received, Message::Kind::kEstimate);
    if (cd != CdAdvice::kCollision && !messages.empty()) {
      estimate_ = messages.min;  // min{messages_i} (line 11)
    }
    proposal_unique_values_ = messages.distinct;
    proposal_cd_ = cd;
    phase_ = Phase::kVeto;
    return;
  }

  // Veto phase (lines 16-20).  Only vetoes are broadcast in this round, so
  // any received message is a veto; a broadcaster hears its own veto and
  // therefore never decides in the same round it complains.
  const bool silent_veto_round = received.empty() && cd != CdAdvice::kCollision;
  if (silent_veto_round && proposal_unique_values_ == 1) {
    decide(estimate_);
    halt();
  }
  phase_ = Phase::kProposal;
}

std::unique_ptr<Process> Alg1Algorithm::make_process(
    const ProcessIdentity& /*identity*/, Value initial_value) const {
  return std::make_unique<Alg1Process>(initial_value);
}

}  // namespace ccd
