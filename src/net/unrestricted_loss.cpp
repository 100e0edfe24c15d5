#include "net/unrestricted_loss.hpp"

namespace ccd {

UnrestrictedLoss::UnrestrictedLoss(Options opts)
    : opts_(opts), rng_(opts.seed) {}

void UnrestrictedLoss::decide_delivery(Round /*round*/, const ProcessSet& sent,
                                       DeliveryMatrix& out) {
  if (opts_.mode == Mode::kDropOthers) return;  // only self-delivery survives
  const std::size_t n = sent.size();
  sent.for_each([&](std::size_t j) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i == j || rng_.chance(opts_.p_deliver)) out.set(i, j, true);
    }
  });
}

}  // namespace ccd
