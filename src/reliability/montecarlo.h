// Monte-Carlo reliability harness for SuDoku (FaultSim-style, paper
// §VII-A). Unlike the analytical models, this drives the *functional*
// SuDoku controller: real CRC-31/ECC-1 codecs, real PLTs, real SDR trial
// flips. SuDoku is one CacheScheme on the path every baseline takes
// (baselines/mc_runner.h, which lists the kernel's stages): format_for_run,
// the shard entry run_mc and, in src/exp, one engine adapter and one
// checkpoint codec. This front-end only builds a SudokuScheme from
// McConfig::cache/level (make_scheme), maps McConfig onto the kernel's run
// config (kernel_config) and §VIII-B host writes (kernel_hooks), and maps
// the clone's repair split onto McResult. Per interval the kernel injects
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
#include <memory>
#include <string>

#include "baselines/mc_runner.h"
#include "baselines/sudoku_scheme.h"
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
  // host_writes_per_interval is ignored in scenario mode.
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

  static const baselines::McFields<McResult>& fields();
  // baselines::run_mc's two steps: attach the clone's controller and the
  // mc.* series to `metrics`, then take the kernel's counts and the
  // clone's repair split.
  void instrument(baselines::CacheScheme& clone, baselines::KernelHooks& hooks);
  void collect(const baselines::IntervalCounts& counts, const baselines::CacheScheme& clone);

  double p_failure_per_interval() const {
    return intervals ? static_cast<double>(failure_intervals) / intervals : 0.0;
  }
  double fit(double interval_s) const;
  double mttf_seconds(double interval_s) const;

  std::string summary() const;

  McResult& operator+=(const McResult& other) { return baselines::add_fields(*this, other); }
};

// The SuDoku scheme every run of `config` drives: config.cache's geometry
// and inner code at config.level, unformatted.
std::unique_ptr<baselines::SudokuScheme> make_scheme(const McConfig& config);

// config's kernel inputs: everything but the scheme and the host writes.
baselines::BaselineMcConfig kernel_config(const McConfig& config);

// config's §VIII-B host writes as a kernel hook (none when
// host_writes_per_interval is 0).
baselines::KernelHooks kernel_hooks(const McConfig& config);

// Formats make_scheme(config) and runs it through baselines::run_mc.
McResult run_montecarlo(const McConfig& config);

}  // namespace sudoku::reliability
