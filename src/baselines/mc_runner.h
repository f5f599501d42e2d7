// The Monte-Carlo fault-interval kernel (FaultSim-style, paper §VII-A) and
// its baseline front-end. One kernel drives every protection scheme,
// SuDoku included (via SudokuScheme); each interval runs five stages:
//
//   sample    flat fault positions: FaultInjector::draw_count (Binomial)
//             or a fixed count, then draw_positions — sample_interval's and
//             sample_exact's draws, with no FaultBatch — or a scenario's
//             transient_positions + stuck;
//   apply     flip them into the scheme's array, touched units in
//             FaultBatch order (batch_order; a scenario's ascending, its
//             stuck cells asserted after the flips). An optional host-write
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
// One formatted image per experiment: a run starts from a prototype scheme
// that format_for_run formatted, and works on a clone of it. The
// prototype's array is the run's golden snapshot and is only read, so the
// shards of one experiment (src/exp) share one prototype and none of them
// formats or copies a golden of its own.
//
// The two front-ends, reliability::run_montecarlo (SuDoku) and
// run_baseline_mc (below), share everything but their result types: one
// shard entry (run_mc), one format helper (format_for_run), and in src/exp
// one engine adapter and one checkpoint codec. A result type names its
// counters once (fields()); that list drives its shard merge here and its
// checkpoint payload in src/exp.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "baselines/scheme.h"
#include "faults/scenario.h"
#include "obs/macros.h"
#include "obs/metrics.h"

namespace sudoku::baselines {

struct BaselineMcConfig {
  double ber = 1e-4;  // per scrub interval
  std::uint64_t max_intervals = 1000;
  std::uint64_t target_failures = 0;  // stop early after N failing intervals
  std::uint64_t seed = 1;

  // >= 0: every i.i.d. interval injects exactly this many faults at uniform
  // distinct positions (as FaultInjector::sample_exact) instead of a
  // Binomial(total bits, ber) count, i.e. the conditional fault law given
  // the count. The count-stratified rare-event sampler (exp/rare_event.h)
  // runs one such campaign per count. Ignored in scenario mode. -1 = off.
  std::int64_t fixed_fault_count = -1;

  // Experiment-engine hooks. In per-trial-stream mode interval t draws all
  // of its randomness from an Rng seeded with
  // Rng::derive_stream_seed(seed, first_trial + t), and formatting uses the
  // reserved kFormatStream, so the format does not depend on first_trial
  // and one prototype serves every shard. A shard covering trials
  // [first_trial, first_trial + max_intervals) then depends only on (seed,
  // trial indices), not on thread count or on how earlier shards went,
  // which is the engine's bit-reproducibility contract.
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

// ---- the kernel ----------------------------------------------------------

// Kernel inputs beyond the config: SuDoku's §VIII-B host writes, and the
// instruments a result type records into. The defaults run the plain
// i.i.d. / scenario loop and record nothing.
struct KernelHooks {
  // Runs between apply and scrub on i.i.d. intervals with the interval's
  // Rng. It may mutate the scheme and the golden snapshot (the run's
  // private copy of it), must append every unit it faulted to `touched`,
  // and returns the faults it injected.
  std::function<std::uint64_t(CacheScheme& scheme, Rng& rng, SttramArray& golden,
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

// Runs up to config.max_intervals intervals (see the stage list at the
// top) on `scheme`, whose array starts equal to `golden`: a clone of the
// prototype whose array `golden` is. `golden` is only read and may be
// shared by concurrent runs; a run with host writes works on a private
// copy. `rng` is format_for_run's result (reseeded per interval in
// per-trial-stream mode). Aborts when a scenario's geometry does not match
// the scheme.
IntervalCounts run_interval_kernel(CacheScheme& scheme, const SttramArray& golden,
                                   Rng& rng, const BaselineMcConfig& config,
                                   const KernelHooks& hooks);

// ---- the shared front-end ------------------------------------------------

// A result type's counters, by payload key, in payload order.
template <typename Result>
using McFields = std::vector<std::pair<const char*, std::uint64_t Result::*>>;

// Shard-merge reduction of a result type: plain sums of its fields() and
// its registry.
template <typename Result>
Result& add_fields(Result& into, const Result& from) {
  into.metrics += from.metrics;
  for (const auto& [key, field] : Result::fields()) into.*field += from.*field;
  return into;
}

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

  static const McFields<BaselineMcResult>& fields();
  // run_mc's two steps: create the baseline.* series in `metrics` and hand
  // them to the kernel, then take the kernel's counts.
  void instrument(CacheScheme& clone, KernelHooks& hooks);
  void collect(const IntervalCounts& counts, const CacheScheme& clone);

  double p_failure_per_interval() const {
    return intervals ? static_cast<double>(failure_intervals) / intervals : 0.0;
  }
  double fit(double interval_s) const;

  BaselineMcResult& operator+=(const BaselineMcResult& other) {
    return add_fields(*this, other);
  }
};

// Formats `scheme` the way every run of `config` starts: from the reserved
// kFormatStream in per-trial-stream mode, else from Rng(config.seed).
// Returns that Rng; a run without per-trial streams draws its intervals
// from where the format left it.
Rng format_for_run(CacheScheme& scheme, const BaselineMcConfig& config);

// The shard entry of both front-ends: runs `config` with `hooks` on a
// clone of `prototype`, which format_for_run formatted for a config with
// the same seed and stream mode and which returned `rng`. Result
// instruments the clone and the kernel, then collects the kernel's counts
// and whatever the clone kept (SuDoku's repair split). The prototype is
// only read, so concurrent shards may share it.
template <typename Result>
Result run_mc(const CacheScheme& prototype, Rng rng, const BaselineMcConfig& config,
              KernelHooks hooks = {}) {
  const std::unique_ptr<CacheScheme> scheme = prototype.clone();
  Result result;
#if SUDOKU_OBS_ENABLED
  result.instrument(*scheme, hooks);
#endif
  result.collect(run_interval_kernel(*scheme, prototype.array(), rng, config, hooks),
                 *scheme);
  return result;
}

// format_for_run(scheme, config), then run_mc with `scheme` as the
// prototype: `scheme` ends formatted, the faults land on its clone.
BaselineMcResult run_baseline_mc(CacheScheme& scheme, const BaselineMcConfig& config);

}  // namespace sudoku::baselines
