#include "cm/backoff_cm.hpp"

namespace ccd {

BackoffCm::BackoffCm(Options opts) : opts_(opts), rng_(opts.seed) {}

void BackoffCm::advise(Round round, const ProcessSet& alive,
                       std::vector<CmAdvice>& out) {
  const auto n = alive.size();
  out.assign(n, CmAdvice::kPassive);
  if (window_.size() < n) {
    window_.resize(n, opts_.initial_window);
  }
  last_active_.reset(n);

  if (locked_process_ != kNoLock) {
    if (locked_process_ < n && alive[locked_process_]) {
      out[locked_process_] = CmAdvice::kActive;
      last_active_.set(locked_process_);
      return;
    }
    // Locked leader crashed; resume contention.
    locked_process_ = kNoLock;
  }

  std::uint32_t active_count = 0;
  std::uint32_t last = 0;
  alive.for_each([&](std::size_t i) {
    if (rng_.below(window_[i]) == 0) {
      out[i] = CmAdvice::kActive;
      last_active_.set(i);
      ++active_count;
      last = static_cast<std::uint32_t>(i);
    }
  });

  if (active_count == 1) {
    locked_process_ = last;
    if (locked_round_ == kNeverRound) locked_round_ = round;
  } else if (active_count >= 2) {
    last_active_.for_each([&](std::size_t i) {
      if (window_[i] < opts_.max_window) window_[i] *= 2;
    });
  } else {
    // Silence: speed everyone back up a little so the channel is not idle.
    alive.for_each([&](std::size_t i) {
      if (window_[i] > 1) window_[i] -= 1;
    });
  }
}

void BackoffCm::observe(Round /*round*/, std::uint32_t /*broadcasters*/) {
  // Advice-count based locking is handled in advise(); channel feedback is
  // not needed for this variant but the hook is kept for extensions.
}

}  // namespace ccd
