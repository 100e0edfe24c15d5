#include "net/no_loss.hpp"

namespace ccd {

void NoLoss::decide_delivery(Round /*round*/, const ProcessSet& sent,
                             DeliveryMatrix& out) {
  out.deliver_all(sent);
}

}  // namespace ccd
