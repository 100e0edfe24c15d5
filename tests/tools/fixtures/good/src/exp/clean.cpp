// Good fixture: forbidden tokens in comments, strings and raw strings
// must never fire: rand() srand(1) std::random_device std::mt19937
// time(nullptr) std::chrono::system_clock std::unordered_map
// #include "exp/does_not_exist.hpp"
#include <map>
#include <string>

namespace fixture {

const char* kDoc = "rand() and std::mt19937 and time(0) in a string";
const char* kRaw = R"lint(
  std::random_device inside a raw string; system_clock too
  #include "engine/lane_engine.hpp"
  std::unordered_map<int, int> ghosts;
)lint";

// Integer folds are fine anywhere; only float/double ones are flagged.
long long accumulate_runs(const long long* xs, int n) {
  long long total = 0;
  for (int i = 0; i < n; ++i) total += xs[i];
  return total;
}

// Declaring a double without accumulating into it is fine.
double scaled_mean(double mean) { return mean * 0.5; }

// Sorted emission: std::map iteration order is deterministic.
std::string emit(const std::map<int, int>& cells) {
  std::string out;
  for (const auto& [k, v] : cells) out += std::to_string(k + v);
  return out;
}

}  // namespace fixture
