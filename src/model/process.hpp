// The process automaton (Definition 1) as a C++ interface.
//
// A process is a state machine with a message-generation function
// msg: states x {active, passive} -> M u {null} and a transition function
// trans: states x Multi(M) x {+-, null} x {active, passive} -> states.
// The simulator drives each round as: on_send (msg function), then message
// delivery by the loss adversary, then on_receive (transition function).
//
// Crash failures are modelled by the *simulator* (fault adversary), not by
// the process: once crashed, the executor never calls the process again,
// which is observationally identical to the paper's absorbing fail state.
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "model/message.hpp"
#include "model/types.hpp"

namespace ccd {

class Process {
 public:
  virtual ~Process() = default;

  /// The msg function: what (if anything) to broadcast this round, given
  /// the contention manager's advice.  Returning nullopt is the paper's
  /// "null" (no broadcast).  Must be a pure function of internal state +
  /// advice; the round number is supplied for convenience/logging only.
  virtual std::optional<Message> on_send(Round round, CmAdvice cm) = 0;

  /// The trans function: consume the receive multiset, the collision
  /// detector advice and the contention manager advice for this round.
  virtual void on_receive(Round round, std::span<const Message> received,
                          CdAdvice cd, CmAdvice cm) = 0;

  /// Decision/halting status (the paper models deciding as entering
  /// decide states; we expose it as queries).  Plain loads, not virtual
  /// hooks: the engine reads them for every process every round.
  bool decided() const { return decided_; }
  Value decision() const { return decision_; }

  /// A halted process stays silent forever (Algorithms 1-3 "halt" after
  /// deciding).  The executor stops invoking a halted process.
  bool halted() const { return halted_; }

 protected:
  /// Enter the decide state for v (idempotent; first decision wins, which
  /// matches the automaton formalization where decide states absorb).
  void decide(Value v) {
    if (!decided_) {
      decided_ = true;
      decision_ = v;
    }
  }

  void halt() { halted_ = true; }

 private:
  bool decided_ = false;
  bool halted_ = false;
  Value decision_ = kNoValue;
};

/// An algorithm (Definition 2) maps process indices to processes.  For
/// consensus, the factory also receives the initial value (the initial
/// state init_i(v)) and the identity (anonymous algorithms must ignore
/// identity.id; Definition 3).
class ConsensusAlgorithm {
 public:
  virtual ~ConsensusAlgorithm() = default;

  virtual std::unique_ptr<Process> make_process(
      const ProcessIdentity& identity, Value initial_value) const = 0;

  /// True iff the algorithm is anonymous: A(i) = A(j) for all i, j.
  virtual bool anonymous() const = 0;

  virtual const char* name() const = 0;
};

}  // namespace ccd
