// What the engine phase timers cost, and what they report.
//
// Runs the `crash` grid (64-wide lane blocks, kGlobal scope, crash
// adversaries) on one thread in alternating pairs -- timers off, timers on,
// first side flipped every pair -- from ONE binary, so the only difference
// between the sides is SweepOptions::time_engine_phases.  Each side is
// charged the process CPU time of its sweep (getrusage), which time spent
// descheduled on a shared host does not inflate.  Prints each pair, the
// median per-pair overhead with its quartiles, the overhead of the sides'
// fastest runs, and the sampled phase split of the timed reps (ns per
// sampled lane-round, and shares).
//
//   ./build/bench_phase_timers [pairs=100] [seeds_per_cell=64]
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"
#include "obs/engine_phases.hpp"
#include "obs/perf_sidecar.hpp"

namespace ccd {
namespace {

using namespace ccd::exp;

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// CPU seconds of one single-threaded sweep; phases land in `phases`.
double timed_sweep(const SweepGrid& grid, bool timers,
                   obs::EnginePhases& phases) {
  obs::SweepPerf perf;
  SweepOptions options;
  options.threads = 1;
  options.perf = &perf;
  options.time_engine_phases = timers;
  const double start = cpu_seconds();
  run_sweep(grid, options);
  const double cpu = cpu_seconds() - start;
  if (perf.engine_phases) phases.add(*perf.engine_phases);
  return cpu;
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

int run(int pairs, std::uint32_t seeds) {
  SweepGrid grid = *SweepGrid::named("crash");
  grid.seeds_per_cell = seeds;
  obs::EnginePhases phases;
  obs::EnginePhases discard;
  timed_sweep(grid, true, discard);  // warm-up
  std::vector<double> overhead_pct;
  double best_off = 0, best_on = 0;
  for (int p = 0; p < pairs; ++p) {
    double off = 0, on = 0;
    if (p % 2 == 0) {
      off = timed_sweep(grid, false, discard);
      on = timed_sweep(grid, true, phases);
    } else {
      on = timed_sweep(grid, true, phases);
      off = timed_sweep(grid, false, discard);
    }
    overhead_pct.push_back((on / off - 1.0) * 100.0);
    best_off = p == 0 ? off : std::min(best_off, off);
    best_on = p == 0 ? on : std::min(best_on, on);
    std::printf("pair %3d  off %.3f s  on %.3f s  %+6.2f%%\n", p, off, on,
                overhead_pct.back());
  }
  std::printf("overhead median %+.2f%% (quartiles %+.2f%% .. %+.2f%%), "
              "fastest-run %+.2f%%, %d pairs, crash grid x %u seeds, "
              "1 thread, CPU time\n",
              quantile(overhead_pct, 0.5), quantile(overhead_pct, 0.25),
              quantile(overhead_pct, 0.75), (best_on / best_off - 1.0) * 100.0,
              pairs, seeds);

  std::uint64_t total = 0;
  for (std::uint64_t ns : phases.ns) total += ns;
  std::printf("phase split over %llu sampled lane-rounds, %llu sweeps:\n",
              static_cast<unsigned long long>(phases.sampled_rounds),
              static_cast<unsigned long long>(phases.sampled_sweeps));
  for (std::size_t i = 0; i < obs::kNumEnginePhases; ++i) {
    const bool sweep = i == static_cast<std::size_t>(
                                obs::EnginePhase::kTermination);
    const std::uint64_t den =
        sweep ? phases.sampled_sweeps : phases.sampled_rounds;
    std::printf("  %-15s %7.0f ns per sampled %-10s %5.1f%%\n",
                obs::kEnginePhaseKeys[i],
                den ? static_cast<double>(phases.ns[i]) /
                          static_cast<double>(den)
                    : 0.0,
                sweep ? "sweep" : "lane-round",
                total ? 100.0 * static_cast<double>(phases.ns[i]) /
                            static_cast<double>(total)
                      : 0.0);
  }
  return 0;
}

}  // namespace
}  // namespace ccd

int main(int argc, char** argv) {
  const int pairs = argc > 1 ? std::atoi(argv[1]) : 100;
  const long seeds = argc > 2 ? std::atol(argv[2]) : 64;
  if (pairs < 1 || seeds < 1 || seeds > 1 << 20) {
    std::fprintf(stderr,
                 "usage: bench_phase_timers [pairs>=1] [seeds_per_cell]\n");
    return 2;
  }
  return ccd::run(pairs, static_cast<std::uint32_t>(seeds));
}
