// Good fixture: std::vector<bool> outside a virtual interface is fine --
// engine-private scratch state, a non-virtual helper, and this comment.
#pragma once

#include <vector>

class FixtureEngine {
 public:
  virtual ~FixtureEngine() = default;
  virtual unsigned size() const { return static_cast<unsigned>(seen_.size()); }
  void mark(const std::vector<bool>& seen) { seen_ = seen; }

 private:
  std::vector<bool> seen_;
};
