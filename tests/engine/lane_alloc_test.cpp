// The sweep-mode engine allocates nothing in steady state: once a block
// has run a few rounds (buffers at their high-water marks), step() makes
// no heap allocation -- not in delivery (the receive arena), not in the
// algorithms' receive steps (SET(M) is a one-pass summary), not in the
// decision / crash log (reserved for one entry per process), and not with
// the phase timers on.  A counting global operator new checks it on a
// 64-wide block of the crash grid's Alg2 x ECF x random-crash cell.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "engine/lane_engine.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/world_factory.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Out of line: inlined into a delete-expression, free() would pair with a
// new-expression in GCC's -Wmismatched-new-delete analysis.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ccd::exp {
namespace {

/// Heap allocations made by fn().
template <typename Fn>
std::size_t allocations_in(Fn&& fn) {
  g_allocations.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load();
}

/// A 64-seed block of the crash grid's first Alg2 x random-crash cell at
/// the largest n, assembled the way the lane executor assembles it.
std::vector<EngineWorld> crash_block() {
  SweepGrid grid = *SweepGrid::named("crash");
  grid.seeds_per_cell = static_cast<std::uint32_t>(kLaneWidth);
  for (std::size_t c = 0; c < grid.num_cells(); ++c) {
    const std::size_t first = c * grid.seeds_per_cell;
    const ScenarioSpec head = grid.spec_for_run(first);
    if (head.alg != AlgKind::kAlg2 || head.fault != FaultKind::kRandomCrash ||
        head.loss != LossKind::kEcf || head.n != 32) {
      continue;
    }
    std::vector<EngineWorld> worlds;
    for (std::size_t k = 0; k < kLaneWidth; ++k) {
      EngineWorld ew;
      ew.world = WorldFactory::make(grid.spec_for_run(first + k));
      ew.topology = Topology::clique(head.n);
      worlds.push_back(std::move(ew));
    }
    return worlds;
  }
  ADD_FAILURE() << "crash grid has no Alg2 x ECF x random-crash cell at n=32";
  return {};
}

EngineOptions sweep_options(obs::PhaseSampler* phases) {
  EngineOptions options;
  options.record_views = false;
  options.record_rounds = false;
  options.stop_when_all_decided = false;
  options.phases = phases;
  return options;
}

TEST(LaneAlloc, SteadyStateStepMakesNoHeapAllocation) {
  constexpr Round kWarmup = 8;
  constexpr Round kMeasured = 200;
  obs::PhaseSampler phases;
  for (obs::PhaseSampler* sink : {static_cast<obs::PhaseSampler*>(nullptr),
                                  &phases}) {
    SCOPED_TRACE(sink ? "phase timers on" : "phase timers off");
    std::vector<EngineWorld> worlds = crash_block();
    ASSERT_EQ(worlds.size(), kLaneWidth);
    LaneEngine eng(std::move(worlds), sweep_options(sink));
    auto logged = [&] {
      std::size_t events = 0;
      for (std::size_t l = 0; l < kLaneWidth; ++l) {
        events += eng.log(l).decisions().size() + eng.log(l).crashes().size();
      }
      return events;
    };
    for (Round r = 0; r < kWarmup; ++r) eng.step();
    const std::size_t before = logged();
    EXPECT_EQ(allocations_in([&] {
                for (Round r = 0; r < kMeasured; ++r) eng.step();
              }),
              0u);
    // The measured window logged decisions and crashes, so those paths
    // really ran inside it.
    EXPECT_GT(logged(), before);
  }
  EXPECT_GT(phases.totals().sampled_rounds, 0u);
}

}  // namespace
}  // namespace ccd::exp
