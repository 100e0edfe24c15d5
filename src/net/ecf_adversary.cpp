#include "net/ecf_adversary.hpp"

namespace ccd {

EcfAdversary::EcfAdversary(Options opts) : opts_(opts), rng_(opts.seed) {}

void EcfAdversary::fill_random(const ProcessSet& sent, DeliveryMatrix& out) {
  const std::size_t n = sent.size();
  sent.for_each([&](std::size_t j) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i == j || rng_.chance(opts_.p_deliver)) out.set(i, j, true);
    }
  });
}

void EcfAdversary::fill_capture(const ProcessSet& sent, DeliveryMatrix& out) {
  broadcasters_.clear();
  sent.for_each([&](std::size_t j) {
    broadcasters_.push_back(static_cast<std::uint32_t>(j));
  });
  if (broadcasters_.empty()) return;
  // Each receiver independently captures one random transmission with
  // probability p_deliver (the capture effect of Section 1.1 [71]); the
  // rest of the simultaneous transmissions are lost at that receiver.
  for (std::size_t i = 0; i < sent.size(); ++i) {
    if (rng_.chance(opts_.p_deliver)) {
      const std::uint32_t j =
          broadcasters_[rng_.below(broadcasters_.size())];
      out.set(i, j, true);
    }
  }
}

void EcfAdversary::decide_delivery(Round round, const ProcessSet& sent,
                                   DeliveryMatrix& out) {
  const std::size_t c = sent.count();
  if (c == 0) return;

  if (round >= opts_.r_cf && c == 1) {
    // ECF obligation: the lone broadcaster is heard by everyone.
    out.deliver_all(sent);
    return;
  }

  if (round < opts_.r_cf) {
    switch (opts_.pre) {
      case PreMode::kDropOthers:
        return;  // self-delivery is enforced by the executor
      case PreMode::kRandom:
        fill_random(sent, out);
        return;
      case PreMode::kCapture:
        fill_capture(sent, out);
        return;
    }
    return;
  }

  // round >= r_cf with contention (c >= 2): unconstrained.
  switch (opts_.contention) {
    case ContentionMode::kOwnOnly:
      return;
    case ContentionMode::kRandom:
      fill_random(sent, out);
      return;
    case ContentionMode::kCapture:
      fill_capture(sent, out);
      return;
    case ContentionMode::kDeliverAll:
      out.deliver_all(sent);
      return;
  }
}

}  // namespace ccd
