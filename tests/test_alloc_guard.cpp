// Allocation guard for the Monte-Carlo interval kernel: a steady-state
// i.i.d. interval must allocate O(1) times, not O(faults), and a scenario
// interval (transient flips plus stuck cells) must stay under a fixed
// bound. The executable
// replaces the global operator new/delete with versions that count calls
// and forward to malloc/free, so it also runs under AddressSanitizer.
//
// For each scheme, per-interval allocations are measured as the difference
// between two identical runs of kWarmup and kWarmup + kMeasured intervals
// (same seed, so the first kWarmup intervals replay exactly), divided by
// kMeasured. This is done at two BERs 4x apart; the fault count per
// interval grows 4x, and the allocations per interval may not follow it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>

#include "baselines/ecck_cache.h"
#include "baselines/hiecc_cache.h"
#include "baselines/mc_runner.h"
#include "faults/scenario.h"
#include "reliability/montecarlo.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  // aligned_alloc needs a size that is a multiple of the alignment.
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  return p;
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every replaceable form, so that no allocation bypasses the count and no
// pointer reaches a deallocator of another allocator (which ASan reports).
void* operator new(std::size_t n) { return checked(counted_alloc(n, 0)); }
void* operator new[](std::size_t n) { return checked(counted_alloc(n, 0)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return checked(counted_alloc(n, static_cast<std::size_t>(a)));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return checked(counted_alloc(n, static_cast<std::size_t>(a)));
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sudoku {
namespace {

constexpr std::uint64_t kLines = 1024;
constexpr std::uint32_t kGroup = 16;
constexpr std::uint64_t kWarmup = 50;
constexpr std::uint64_t kMeasured = 400;
constexpr double kLowBer = 2.5e-5;  // ~14 faults per interval on SuDoku lines
constexpr double kHighBer = 4 * kLowBer;
// The bounds. A steady-state interval makes about two allocations (the
// draw's dedup table and the scrub report's repaired-line list); going to
// 4x the faults may add at most one more on average, left for the rare
// DUE refill. A kernel that groups each interval's faults into a
// FaultBatch (a node and a vector per faulty line) makes 38 and 135
// allocations per interval here for SuDoku, 46 and 173 for ECC-4.
constexpr double kMaxAllocsPerInterval = 4.0;
constexpr double kMaxExtraAllocsPerInterval = 1.0;

struct Rates {
  double allocs_per_interval;
  double faults_per_interval;
};

// run(intervals) runs one Monte-Carlo of `intervals` intervals on a fresh
// scheme and returns its fault count.
Rates steady_state(const std::function<std::uint64_t(std::uint64_t)>& run) {
  run(kWarmup);  // first use of process-wide and per-thread scratch
  const std::uint64_t a0 = g_allocs.load();
  const std::uint64_t f0 = run(kWarmup);
  const std::uint64_t a1 = g_allocs.load();
  const std::uint64_t f1 = run(kWarmup + kMeasured);
  const std::uint64_t a2 = g_allocs.load();
  const auto extra = static_cast<double>((a2 - a1) - (a1 - a0));
  return {extra / kMeasured, static_cast<double>(f1 - f0) / kMeasured};
}

std::function<std::uint64_t(std::uint64_t)> sudoku_run(SudokuLevel level, double ber) {
  return [level, ber](std::uint64_t intervals) {
    reliability::McConfig c;
    c.cache.num_lines = kLines;
    c.cache.group_size = kGroup;
    c.cache.ber = ber;
    c.level = level;
    c.seed = 11;
    c.max_intervals = intervals;
    return reliability::run_montecarlo(c).faults_injected;
  };
}

std::function<std::uint64_t(std::uint64_t)> ecc4_run(double ber) {
  return [ber](std::uint64_t intervals) {
    baselines::EccKCache scheme(kLines, 4);
    baselines::BaselineMcConfig c;
    c.ber = ber;
    c.seed = 11;
    c.max_intervals = intervals;
    return baselines::run_baseline_mc(scheme, c).faults_injected;
  };
}

void expect_flat(const char* name,
                 const std::function<std::function<std::uint64_t(std::uint64_t)>(double)>& make) {
  const Rates low = steady_state(make(kLowBer));
  const Rates high = steady_state(make(kHighBer));
  std::printf("%-9s BER %.1e: %6.2f faults, %6.2f allocs per interval\n", name, kLowBer,
              low.faults_per_interval, low.allocs_per_interval);
  std::printf("%-9s BER %.1e: %6.2f faults, %6.2f allocs per interval\n", name, kHighBer,
              high.faults_per_interval, high.allocs_per_interval);
  // The measurement is meaningful only if the faults really grew.
  ASSERT_GT(high.faults_per_interval, 3 * low.faults_per_interval) << name;
  EXPECT_LE(high.allocs_per_interval, low.allocs_per_interval + kMaxExtraAllocsPerInterval)
      << name << ": allocations per interval grow with the fault count";
  EXPECT_LE(high.allocs_per_interval, kMaxAllocsPerInterval) << name;
}

TEST(AllocGuard, SudokuXIntervalsAllocateIndependentlyOfFaults) {
  expect_flat("SuDoku-X", [](double ber) { return sudoku_run(SudokuLevel::kX, ber); });
}

TEST(AllocGuard, SudokuYIntervalsAllocateIndependentlyOfFaults) {
  expect_flat("SuDoku-Y", [](double ber) { return sudoku_run(SudokuLevel::kY, ber); });
}

TEST(AllocGuard, SudokuZIntervalsAllocateIndependentlyOfFaults) {
  expect_flat("SuDoku-Z", [](double ber) { return sudoku_run(SudokuLevel::kZ, ber); });
}

TEST(AllocGuard, Ecc4IntervalsAllocateIndependentlyOfFaults) {
  expect_flat("ECC-4", ecc4_run);
}

// Hi-ECC scrubs whole 1 KB regions through the same per-unit decode.
std::function<std::uint64_t(std::uint64_t)> hiecc_run(double ber) {
  return [ber](std::uint64_t intervals) {
    baselines::HiEccCache scheme(kLines);
    baselines::BaselineMcConfig c;
    c.ber = ber;
    c.seed = 11;
    c.max_intervals = intervals;
    return baselines::run_baseline_mc(scheme, c).faults_injected;
  };
}

TEST(AllocGuard, HiEccIntervalsAllocateIndependentlyOfFaults) {
  expect_flat("Hi-ECC", hiecc_run);
}

// The scenario branch, under the `mixed` preset (stuck and intermittent
// cells, row clusters and an i.i.d. floor) at 4x its rates and cell counts.
// Its fault count does not scale with one knob, so the bound is the
// absolute one: the interval's stuck set is refilled in place and the
// classify step compares around stuck cells without a copy. A kernel that
// builds a fresh stuck set every interval, and copies a unit to compare it,
// makes 51 allocations per interval here for SuDoku-Z and 48 for ECC-4.
faults::ScenarioSpec accelerated_mixed() {
  faults::ScenarioSpec spec = faults::ScenarioSpec::builtin("mixed");
  for (auto& s : spec.sources) {
    s.ber *= 4;
    s.events_per_interval *= 4;
    s.cells *= 4;
  }
  return spec;
}

void expect_scenario_bounded(const char* name,
                             const std::function<std::uint64_t(std::uint64_t)>& run) {
  const Rates r = steady_state(run);
  std::printf("%-9s mixed: %6.2f faults, %6.2f allocs per interval\n", name,
              r.faults_per_interval, r.allocs_per_interval);
  ASSERT_GT(r.faults_per_interval, 4.0) << name;
  EXPECT_LE(r.allocs_per_interval, kMaxAllocsPerInterval) << name;
}

TEST(AllocGuard, SudokuZScenarioIntervalsStayUnderTheBound) {
  const auto scenario = std::make_shared<faults::FaultScenario>(
      accelerated_mixed(), faults::Geometry{kLines, reliability::kSudokuLineBits}, 11);
  expect_scenario_bounded("SuDoku-Z", [scenario](std::uint64_t intervals) {
    reliability::McConfig c;
    c.cache.num_lines = kLines;
    c.cache.group_size = kGroup;
    c.level = SudokuLevel::kZ;
    c.seed = 11;
    c.max_intervals = intervals;
    c.per_trial_seed_streams = true;
    c.scenario = scenario.get();
    return reliability::run_montecarlo(c).faults_injected;
  });
}

TEST(AllocGuard, Ecc4ScenarioIntervalsStayUnderTheBound) {
  const baselines::EccKCache probe(kLines, 4);
  const auto scenario = std::make_shared<faults::FaultScenario>(
      accelerated_mixed(), faults::Geometry{probe.num_units(), probe.bits_per_unit()}, 11);
  expect_scenario_bounded("ECC-4", [scenario](std::uint64_t intervals) {
    baselines::EccKCache scheme(kLines, 4);
    baselines::BaselineMcConfig c;
    c.seed = 11;
    c.max_intervals = intervals;
    c.per_trial_seed_streams = true;
    c.scenario = scenario.get();
    return baselines::run_baseline_mc(scheme, c).faults_injected;
  });
}

TEST(AllocGuard, HiEccScenarioIntervalsStayUnderTheBound) {
  const baselines::HiEccCache probe(kLines);
  const auto scenario = std::make_shared<faults::FaultScenario>(
      accelerated_mixed(), faults::Geometry{probe.num_units(), probe.bits_per_unit()}, 11);
  expect_scenario_bounded("Hi-ECC", [scenario](std::uint64_t intervals) {
    baselines::HiEccCache scheme(kLines);
    baselines::BaselineMcConfig c;
    c.seed = 11;
    c.max_intervals = intervals;
    c.per_trial_seed_streams = true;
    c.scenario = scenario.get();
    return baselines::run_baseline_mc(scheme, c).faults_injected;
  });
}

}  // namespace
}  // namespace sudoku
