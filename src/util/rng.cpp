#include "util/rng.hpp"

namespace ccd {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_mix(std::uint64_t x) {
  std::uint64_t s = x;
  return splitmix64(s);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : s_) word = splitmix64(s);
}

std::uint64_t Rng::between(std::uint64_t lo, std::uint64_t hi) {
  return lo + below(hi - lo + 1);
}

Rng Rng::split() { return Rng((*this)() ^ 0x9e3779b97f4a7c15ULL); }

}  // namespace ccd
