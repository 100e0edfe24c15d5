// R5.masks fixture: a component interface taking a per-process mask as
// std::vector<bool> instead of a ProcessSet.
#pragma once

#include <vector>

class FixtureManager {
 public:
  virtual ~FixtureManager() = default;
  virtual void advise(unsigned round, const std::vector< bool >& alive) = 0;
};
