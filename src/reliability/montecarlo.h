// Monte-Carlo reliability harness for SuDoku (FaultSim-style, paper
// §VII-A). Unlike the analytical models, this drives the *functional*
// SuDoku controller: real CRC-31/ECC-1 codecs, real PLTs, real SDR trial
// flips. run_montecarlo is a front-end over the one fault-interval kernel
// (baselines/mc_runner.h, which lists its stages): it wraps the controller
// in a baselines::SudokuScheme, passes the SuDoku-only inputs (fixed fault
// counts, §VIII-B host writes) and maps the kernel's counts, plus the
// scheme's repair split, onto McResult. Per interval the kernel injects
// faults, scrubs the touched lines and classifies the outcome against
// golden data:
//   * DUE  — controller declared a line uncorrectable (data loss, detected)
//   * SDC  — controller believed a line fine/corrected but it mismatches
//            golden (silent corruption)
// Lost lines are refilled from golden so the simulation continues (models
// a refill from the next memory level).
//
// At the paper's operating point SuDoku-Z events are unobservably rare;
// validation runs at accelerated BER where analytical and MC regimes
// overlap (see bench_montecarlo_validation).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "baselines/sudoku_scheme.h"
#include "common/rng.h"
#include "faults/scenario.h"
#include "obs/metrics.h"
#include "reliability/analytical.h"
#include "sudoku/controller.h"

namespace sudoku::reliability {

struct McConfig {
  reliability::CacheParams cache;
  SudokuLevel level = SudokuLevel::kZ;
  std::uint64_t seed = 1;
  std::uint64_t max_intervals = 10000;
  // Stop early once this many DUE/SDC intervals were observed (0 = never).
  std::uint64_t target_failures = 0;

  // Rare-event hook (exp/rare_event): when >= 0, every interval injects
  // exactly this many faults at uniform distinct positions instead of a
  // Binomial(total_bits, BER) count — i.e. the conditional fault law given
  // the count. The stratified estimator runs one such conditional MC per
  // fault count and reweights with the exact Binomial pmf. -1 = off.
  std::int64_t fixed_fault_count = -1;

  // §VIII-B write-error mode: host writes per interval, each of which
  // flips every written bit with probability `wer` (write error rate).
  // SuDoku does not distinguish write errors from retention errors; with
  // wer ≈ retention BER the reliability should be similar (exercised by
  // the tests; no bench sets it).
  std::uint64_t host_writes_per_interval = 0;
  double wer = 0.0;

  // Mixed-fault mode (src/faults): when set, interval t's faults come from
  // the scenario instead of the i.i.d. injector: transient flips
  // (XOR-merged across sources) plus stuck cells that are re-asserted after
  // every repair. Same contract as baselines::BaselineMcConfig::scenario;
  // fixed_fault_count and host_writes_per_interval are ignored in scenario
  // mode.
  const faults::FaultScenario* scenario = nullptr;

  // Experiment-engine hooks (src/exp); same contract as the fields of the
  // same names in baselines::BaselineMcConfig.
  bool per_trial_seed_streams = false;
  std::uint64_t first_trial = 0;
  std::function<bool()> stop_hook;
};

struct McResult {
  std::uint64_t intervals = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t ecc1_corrections = 0;
  std::uint64_t raid4_repairs = 0;
  std::uint64_t sdr_repairs = 0;
  std::uint64_t hash2_invocations = 0;
  std::uint64_t groups_repaired = 0;
  std::uint64_t due_lines = 0;
  std::uint64_t sdc_lines = 0;
  std::uint64_t failure_intervals = 0;  // intervals with >= 1 DUE or SDC

  // Full event mix recorded by the run: the controller's sudoku.* series
  // plus the harness's mc.* series (see docs/observability.md). Only
  // deterministic event counts are recorded here, so the registry obeys
  // the same bit-identical shard-merge contract as the plain counters.
  obs::MetricsRegistry metrics;

  double p_failure_per_interval() const {
    return intervals ? static_cast<double>(failure_intervals) / intervals : 0.0;
  }
  double fit(double interval_s) const;
  double mttf_seconds(double interval_s) const;

  std::string summary() const;

  // Shard-merge reduction for the experiment engine: plain sums.
  McResult& operator+=(const McResult& other);
};

// The formatted SuDoku scheme every run of `config` starts from, and the
// Rng its format left (see baselines::format_for_run). The experiment
// engine formats one per experiment and runs every shard on a copy.
struct McPrototype {
  baselines::SudokuScheme scheme;
  Rng rng;
};
McPrototype format_prototype(const McConfig& config);

// Runs `config` on a copy of `prototype`, which format_prototype made for a
// config with the same cache, level, seed and stream mode. The prototype is
// only read, so concurrent shards may share it.
McResult run_montecarlo(const McConfig& config, const McPrototype& prototype);

// run_montecarlo(config, format_prototype(config)).
McResult run_montecarlo(const McConfig& config);

}  // namespace sudoku::reliability
