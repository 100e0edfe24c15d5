#include "net/capture_effect.hpp"

namespace ccd {

CaptureEffectLoss::CaptureEffectLoss(Options opts)
    : opts_(opts), rng_(opts.seed) {}

void CaptureEffectLoss::decide_delivery(Round round, const ProcessSet& sent,
                                        DeliveryMatrix& out) {
  broadcasters_.clear();
  sent.for_each([&](std::size_t j) {
    broadcasters_.push_back(static_cast<std::uint32_t>(j));
  });
  if (broadcasters_.empty()) return;

  if (broadcasters_.size() == 1) {
    const std::uint32_t j = broadcasters_.front();
    const bool guaranteed = opts_.r_cf != kNeverRound && round >= opts_.r_cf;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      if (guaranteed || rng_.chance(opts_.p_single_deliver)) {
        out.set(i, j, true);
      }
    }
    return;
  }

  // Contention: each receiver captures at most one transmission.
  for (std::size_t i = 0; i < sent.size(); ++i) {
    if (rng_.chance(opts_.p_capture)) {
      out.set(i, broadcasters_[rng_.below(broadcasters_.size())], true);
    }
  }
}

}  // namespace ccd
