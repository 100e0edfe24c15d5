// Base class for consensus protocol automata (Section 6).
//
// A consensus process starts with an initial value from V (one start state
// per value), eventually enters a decide state for some value, and -- in
// all three of the paper's algorithms -- halts after deciding.
#pragma once

#include "model/process.hpp"

namespace ccd {

class ConsensusProcess : public Process {
 public:
  explicit ConsensusProcess(Value initial_value)
      : initial_value_(initial_value) {}

  Value initial_value() const { return initial_value_; }

 private:
  Value initial_value_;
};

}  // namespace ccd
