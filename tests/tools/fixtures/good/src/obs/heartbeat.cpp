// Good fixture: wall clock is permitted in src/obs/ heartbeat code, and
// obs/ may reach DOWN the DAG into util/.
#include "util/json.hpp"

#include <chrono>

long long fixture_wall_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}
