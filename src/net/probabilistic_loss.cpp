#include "net/probabilistic_loss.hpp"

namespace ccd {

ProbabilisticLoss::ProbabilisticLoss(Options opts)
    : opts_(opts), rng_(opts.seed) {}

void ProbabilisticLoss::decide_delivery(Round round, const ProcessSet& sent,
                                        DeliveryMatrix& out) {
  const std::size_t n = sent.size();
  const bool ecf_now =
      opts_.r_cf != kNeverRound && round >= opts_.r_cf && sent.count() == 1;
  sent.for_each([&](std::size_t j) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i == j || ecf_now || rng_.chance(opts_.p_deliver)) {
        out.set(i, j, true);
      }
    }
  });
}

}  // namespace ccd
