#include "reliability/montecarlo.h"

#include <sstream>

#include "baselines/mc_runner.h"
#include "baselines/sudoku_scheme.h"
#include "common/prob.h"
#include "obs/macros.h"

namespace sudoku::reliability {

double McResult::fit(double interval_s) const {
  return p_failure_per_interval() * (kSecondsPerBillionHours / interval_s);
}

double McResult::mttf_seconds(double interval_s) const {
  const double p = p_failure_per_interval();
  return p > 0 ? interval_s / p : 1e300;
}

McResult& McResult::operator+=(const McResult& other) {
  metrics += other.metrics;
  intervals += other.intervals;
  faults_injected += other.faults_injected;
  ecc1_corrections += other.ecc1_corrections;
  raid4_repairs += other.raid4_repairs;
  sdr_repairs += other.sdr_repairs;
  hash2_invocations += other.hash2_invocations;
  groups_repaired += other.groups_repaired;
  due_lines += other.due_lines;
  sdc_lines += other.sdc_lines;
  failure_intervals += other.failure_intervals;
  return *this;
}

std::string McResult::summary() const {
  std::ostringstream os;
  os << "intervals=" << intervals << " faults=" << faults_injected
     << " ecc1=" << ecc1_corrections << " raid4=" << raid4_repairs
     << " sdr=" << sdr_repairs << " hash2=" << hash2_invocations
     << " due_lines=" << due_lines << " sdc_lines=" << sdc_lines
     << " failure_intervals=" << failure_intervals;
  return os.str();
}

namespace {

baselines::BaselineMcConfig kernel_config(const McConfig& config) {
  baselines::BaselineMcConfig kernel;
  kernel.ber = config.cache.ber;
  kernel.max_intervals = config.max_intervals;
  kernel.target_failures = config.target_failures;
  kernel.seed = config.seed;
  kernel.per_trial_seed_streams = config.per_trial_seed_streams;
  kernel.first_trial = config.first_trial;
  kernel.stop_hook = config.stop_hook;
  kernel.scenario = config.scenario;
  return kernel;
}

}  // namespace

McPrototype format_prototype(const McConfig& config) {
  SudokuConfig ctrl_cfg;
  ctrl_cfg.geo.num_lines = config.cache.num_lines;
  ctrl_cfg.geo.group_size = config.cache.group_size;
  ctrl_cfg.level = config.level;
  ctrl_cfg.inner_ecc_t = config.cache.inner_ecc_t;
  McPrototype prototype{baselines::SudokuScheme(ctrl_cfg), Rng()};
  prototype.rng = baselines::format_for_run(prototype.scheme, kernel_config(config));
  return prototype;
}

McResult run_montecarlo(const McConfig& config) {
  return run_montecarlo(config, format_prototype(config));
}

McResult run_montecarlo(const McConfig& config, const McPrototype& prototype) {
  baselines::SudokuScheme scheme(prototype.scheme);
  SudokuController& ctrl = scheme.controller();
  Rng rng = prototype.rng;
  const baselines::BaselineMcConfig kernel = kernel_config(config);

  McResult result;
  baselines::KernelHooks hooks;
  hooks.fixed_fault_count = config.fixed_fault_count;
#if SUDOKU_OBS_ENABLED
  // The controller writes its sudoku.* series straight into the result's
  // registry; everything recorded is a deterministic event count, so the
  // engine's shard merge stays bit-identical for any thread count.
  ctrl.attach_metrics(&result.metrics);
  obs::MetricsRegistry& m = result.metrics;
  hooks.registry = &m;
  hooks.intervals = m.counter("mc.intervals");
  hooks.sdc_units = m.counter("mc.sdc_lines");
  hooks.failure_intervals = m.counter("mc.failure_intervals");
  hooks.faults_per_interval =
      m.histogram("mc.faults_per_interval", baselines::kFaultsPerIntervalEdges);
#endif

  // §VIII-B: host write traffic with write errors. Each write stores a
  // fresh payload (mirrored into golden) and then flips written bits with
  // probability `wer`, indistinguishable from retention faults to the
  // controller, which is the paper's point.
  BitVec written;
  if (config.host_writes_per_interval > 0) {
    hooks.host_writes = [&](Rng& rng, SttramArray& golden,
                            std::vector<std::uint64_t>& touched) {
      const std::uint32_t bits = ctrl.codec().total_bits();
      std::uint64_t flips = 0;
      for (std::uint64_t w = 0; w < config.host_writes_per_interval; ++w) {
        const std::uint64_t line = rng.next_below(config.cache.num_lines);
        BitVec data(LineCodec::kDataBits);
        for (auto& word : data.words()) word = rng.next_u64();
        ctrl.write_data(line, data);
        ctrl.array().read_line(line, written);
        golden.write_line(line, written);
        const std::uint64_t nflips = rng.next_binomial(bits, config.wer);
        for (std::uint64_t f = 0; f < nflips; ++f) {
          ctrl.array().flip(line, static_cast<std::uint32_t>(rng.next_below(bits)));
        }
        flips += nflips;
        if (nflips > 0) touched.push_back(line);
      }
      return flips;
    };
  }

  const baselines::IntervalCounts c =
      baselines::run_interval_kernel(scheme, prototype.scheme.array(), rng, kernel, hooks);
  const ScrubStats& repairs = scheme.repairs();
  result.intervals = c.intervals;
  result.faults_injected = c.faults_injected;
  result.ecc1_corrections = repairs.ecc1_corrections;
  result.raid4_repairs = repairs.raid4_repairs;
  result.sdr_repairs = repairs.sdr_repairs;
  result.hash2_invocations = repairs.hash2_invocations;
  result.groups_repaired = repairs.groups_repaired;
  result.due_lines = c.due_units;
  result.sdc_lines = c.sdc_units;
  result.failure_intervals = c.failure_intervals;
  return result;
}

}  // namespace sudoku::reliability
