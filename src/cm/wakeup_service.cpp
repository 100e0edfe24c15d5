#include "cm/wakeup_service.hpp"

namespace ccd {

WakeupService::WakeupService(Options opts) : opts_(opts), rng_(opts.seed) {}

void WakeupService::advise(Round round, const ProcessSet& alive,
                           std::vector<CmAdvice>& out) {
  const auto n = alive.size();
  out.assign(n, CmAdvice::kPassive);

  if (round < opts_.r_wake) {
    switch (opts_.pre) {
      case PreStabilization::kAllActive:
        out.assign(n, CmAdvice::kActive);
        break;
      case PreStabilization::kAllPassive:
        break;
      case PreStabilization::kRandomSubset:
        for (std::size_t i = 0; i < n; ++i) {
          if (rng_.chance(0.5)) out[i] = CmAdvice::kActive;
        }
        break;
      case PreStabilization::kAlternating:
        if (round % 2 == 1) out.assign(n, CmAdvice::kActive);
        break;
    }
    return;
  }

  // Stabilized: exactly one process is advised active.
  switch (opts_.post) {
    case PostStabilization::kMinAlive: {
      // All crashed: advising nobody is vacuously fine.
      const std::size_t first = alive.first();
      if (first < n) out[first] = CmAdvice::kActive;
      break;
    }
    case PostStabilization::kRotateAlive: {
      const auto alive_count = static_cast<std::uint32_t>(alive.count());
      if (alive_count == 0) break;
      const std::uint32_t pick = rotate_cursor_ % alive_count;
      ++rotate_cursor_;
      std::uint32_t k = 0;
      alive.for_each([&](std::size_t i) {
        if (k++ == pick) out[i] = CmAdvice::kActive;
      });
      break;
    }
    case PostStabilization::kFixedMin: {
      if (n > 0) out[0] = CmAdvice::kActive;
      break;
    }
  }
}

}  // namespace ccd
