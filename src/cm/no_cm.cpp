#include "cm/no_cm.hpp"

namespace ccd {

void NoCm::advise(Round /*round*/, const ProcessSet& alive,
                  std::vector<CmAdvice>& out) {
  out.assign(alive.size(), CmAdvice::kActive);
}

}  // namespace ccd
