// The Monte-Carlo fault-interval kernel (FaultSim-style, paper §VII-A) and
// its baseline front-end. One kernel drives every protection scheme,
// SuDoku included (via SudokuScheme); each interval runs five stages:
//
//   sample    draw the interval's faults: a Binomial(total_bits, BER) count
//             (FaultInjector::sample_interval), an exact count
//             (sample_exact) or a fault scenario (transient + stuck);
//   apply     flip them into the scheme's array; a scenario's stuck cells
//             are asserted after the transient flips. An optional host-write
//             step (SuDoku's §VIII-B write errors) runs here, i.i.d. only;
//   scrub     scheme.scrub_units over the touched units;
//   classify  DUE = units the scrub declared uncorrectable; SDC = any other
//             touched unit that differs from the golden snapshot (outside
//             stuck cells, in a scenario);
//   restore   i.i.d.: SDC units are healed from golden in place and DUE
//             units refilled via scheme.restore_unit; scenario: every
//             touched unit is written back to golden, so each interval
//             starts and ends in canonical state.
//
// reliability::run_montecarlo (SuDoku) and run_baseline_mc (below) are thin
// front-ends over run_interval_kernel: they fill its inputs and map its
// counts onto their result structs.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "baselines/scheme.h"
#include "faults/scenario.h"
#include "obs/metrics.h"

namespace sudoku::baselines {

struct BaselineMcConfig {
  double ber = 1e-4;  // per scrub interval
  std::uint64_t max_intervals = 1000;
  std::uint64_t target_failures = 0;  // stop early after N failing intervals
  std::uint64_t seed = 1;

  // Experiment-engine hooks. In per-trial-stream mode interval t draws all
  // of its randomness from an Rng seeded with
  // Rng::derive_stream_seed(seed, first_trial + t), and formatting uses the
  // reserved kFormatStream. A shard covering trials [first_trial,
  // first_trial + max_intervals) then depends only on (seed, trial
  // indices), not on thread count or on how earlier shards went, which is
  // the engine's bit-reproducibility contract.
  bool per_trial_seed_streams = false;
  std::uint64_t first_trial = 0;
  // Checked before each interval; return true to abandon the run. The
  // engine only fires this for shards whose results its deterministic
  // merge will discard, so cancellation can never change a merged result.
  std::function<bool()> stop_hook;

  // Mixed-fault mode (src/faults): when set, interval t's faults come from
  // the scenario, keyed by the global trial index, instead of the i.i.d.
  // injector; `ber` is ignored. Stuck cells are re-asserted after the
  // scrub, and each interval ends restored to canonical state (array ==
  // golden, parities untouched), so shard splits stay bit-reproducible.
  // The scenario's geometry must match the scheme's (num_units x
  // bits_per_unit). Immutable and shared by all shards of a parallel run.
  const faults::FaultScenario* scenario = nullptr;
};

struct BaselineMcResult {
  std::uint64_t intervals = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t corrected = 0;
  std::uint64_t due_units = 0;
  std::uint64_t sdc_units = 0;
  std::uint64_t failure_intervals = 0;

  // baseline.* event series (deterministic counts only; bit-identical
  // under the engine's ordered shard merge, like the fields above).
  obs::MetricsRegistry metrics;

  double p_failure_per_interval() const {
    return intervals ? static_cast<double>(failure_intervals) / intervals : 0.0;
  }
  double fit(double interval_s) const;

  // Shard-merge reduction for the experiment engine: plain sums.
  BaselineMcResult& operator+=(const BaselineMcResult& other);
};

BaselineMcResult run_baseline_mc(CacheScheme& scheme, const BaselineMcConfig& config);

// ---- the kernel ----------------------------------------------------------

// Kernel inputs that only some front-ends use; the defaults run the plain
// i.i.d. / scenario loop.
struct KernelHooks {
  // >= 0: every i.i.d. interval injects exactly this many faults at uniform
  // distinct positions (FaultInjector::sample_exact) instead of a Binomial
  // count. Ignored in scenario mode.
  std::int64_t fixed_fault_count = -1;
  // Runs between apply and scrub on i.i.d. intervals with the interval's
  // Rng. It may mutate the scheme and the golden snapshot, must append
  // every unit it faulted to `touched`, and returns the faults it injected.
  std::function<std::uint64_t(Rng& rng, SttramArray& golden,
                              std::vector<std::uint64_t>& touched)>
      host_writes;
  // Instruments the kernel records into; a null handle records nothing.
  // With a scenario, the faults.* series are created in `registry`.
  obs::MetricsRegistry* registry = nullptr;
  obs::Counter* intervals = nullptr;
  obs::Counter* corrected = nullptr;
  obs::Counter* due_units = nullptr;
  obs::Counter* sdc_units = nullptr;
  obs::Counter* failure_intervals = nullptr;
  obs::Histogram* faults_per_interval = nullptr;
};

// Bucket edges of the front-ends' faults_per_interval histograms.
inline const std::vector<double> kFaultsPerIntervalEdges = {1.0,  2.0,  4.0,  8.0,
                                                            16.0, 32.0, 64.0, 128.0};

// The kernel's counts; the front-ends map them onto their result structs.
struct IntervalCounts {
  std::uint64_t intervals = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t corrected = 0;
  std::uint64_t due_units = 0;
  std::uint64_t sdc_units = 0;
  std::uint64_t failure_intervals = 0;
};

// Formats the scheme, snapshots golden, then runs up to
// config.max_intervals intervals (see the stage list at the top). Aborts
// when a scenario's geometry does not match the scheme.
IntervalCounts run_interval_kernel(CacheScheme& scheme, const BaselineMcConfig& config,
                                   const KernelHooks& hooks);

}  // namespace sudoku::baselines
