#include "sim/execution_log.hpp"

#include <cassert>

namespace ccd {

ExecutionLog::ExecutionLog(std::size_t num_processes, bool record_views)
    : num_processes_(num_processes), record_views_(record_views) {
  if (record_views_) views_.resize(num_processes);
  // A process decides at most once and crashes at most once, so logging
  // either never grows these past their reservation.
  decisions_.reserve(num_processes);
  crashes_.reserve(num_processes);
}

void ExecutionLog::set_initial_value(ProcessId i, Value v) {
  if (record_views_) views_.at(i).initial_value = v;
}

void ExecutionLog::push_round(TransmissionRound tr, std::vector<CdAdvice> cd,
                              std::vector<CmAdvice> cm,
                              std::vector<RoundView> views) {
  assert(tr.receive_count.size() == num_processes_);
  transmission_.push(std::move(tr));
  cd_.push(std::move(cd));
  cm_.push(std::move(cm));
  if (record_views_) {
    assert(views.size() == num_processes_);
    for (std::size_t i = 0; i < num_processes_; ++i) {
      views_[i].rounds.push_back(std::move(views[i]));
    }
  }
}

void ExecutionLog::record_decision(ProcessId i, Round r, Value v) {
  decisions_.push_back({i, r, v});
}

void ExecutionLog::record_crash(ProcessId i, Round r) {
  crashes_.push_back({i, r});
}

}  // namespace ccd
