#include "consensus/naive_no_cd.hpp"

namespace ccd {

NaiveNoCdProcess::NaiveNoCdProcess(Value initial_value, Round patience)
    : ConsensusProcess(initial_value),
      estimate_(initial_value),
      patience_(patience) {}

std::optional<Message> NaiveNoCdProcess::on_send(Round /*round*/,
                                                 CmAdvice cm) {
  if (cm == CmAdvice::kActive) {
    return Message{Message::Kind::kEstimate, estimate_, 0};
  }
  return std::nullopt;
}

void NaiveNoCdProcess::on_receive(Round /*round*/,
                                  std::span<const Message> received,
                                  CdAdvice /*cd -- deliberately ignored*/,
                                  CmAdvice /*cm*/) {
  const ValueSummary estimates =
      summarize_values(received, Message::Kind::kEstimate);
  if (!estimates.empty()) {
    estimate_ = estimates.min;
    decide(estimate_);
    halt();
    return;
  }
  if (++silent_rounds_ >= patience_) {
    decide(estimate_);
    halt();
  }
}

std::unique_ptr<Process> NaiveNoCdAlgorithm::make_process(
    const ProcessIdentity& /*identity*/, Value initial_value) const {
  return std::make_unique<NaiveNoCdProcess>(initial_value, patience_);
}

}  // namespace ccd
