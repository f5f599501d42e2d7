#include "reliability/montecarlo.h"

#include <sstream>

#include "common/prob.h"

namespace sudoku::reliability {

double McResult::fit(double interval_s) const {
  return p_failure_per_interval() * (kSecondsPerBillionHours / interval_s);
}

double McResult::mttf_seconds(double interval_s) const {
  const double p = p_failure_per_interval();
  return p > 0 ? interval_s / p : 1e300;
}

const baselines::McFields<McResult>& McResult::fields() {
  static const baselines::McFields<McResult> kFields = {
      {"intervals", &McResult::intervals},
      {"faults_injected", &McResult::faults_injected},
      {"ecc1_corrections", &McResult::ecc1_corrections},
      {"raid4_repairs", &McResult::raid4_repairs},
      {"sdr_repairs", &McResult::sdr_repairs},
      {"hash2_invocations", &McResult::hash2_invocations},
      {"groups_repaired", &McResult::groups_repaired},
      {"due_lines", &McResult::due_lines},
      {"sdc_lines", &McResult::sdc_lines},
      {"failure_intervals", &McResult::failure_intervals},
  };
  return kFields;
}

void McResult::instrument(baselines::CacheScheme& clone, baselines::KernelHooks& hooks) {
  // The controller writes its sudoku.* series straight into the result's
  // registry; everything recorded is a deterministic event count, so the
  // engine's shard merge stays bit-identical for any thread count. The
  // casts here and in collect are checked: run_mc<McResult> over any other
  // scheme throws std::bad_cast.
  dynamic_cast<baselines::SudokuScheme&>(clone).attach_metrics(&metrics);
  hooks.registry = &metrics;
  hooks.intervals = metrics.counter("mc.intervals");
  hooks.sdc_units = metrics.counter("mc.sdc_lines");
  hooks.failure_intervals = metrics.counter("mc.failure_intervals");
  hooks.faults_per_interval =
      metrics.histogram("mc.faults_per_interval", baselines::kFaultsPerIntervalEdges);
}

void McResult::collect(const baselines::IntervalCounts& c,
                       const baselines::CacheScheme& clone) {
  const ScrubStats& repairs =
      dynamic_cast<const baselines::SudokuScheme&>(clone).repairs();
  intervals = c.intervals;
  faults_injected = c.faults_injected;
  ecc1_corrections = repairs.ecc1_corrections;
  raid4_repairs = repairs.raid4_repairs;
  sdr_repairs = repairs.sdr_repairs;
  hash2_invocations = repairs.hash2_invocations;
  groups_repaired = repairs.groups_repaired;
  due_lines = c.due_units;
  sdc_lines = c.sdc_units;
  failure_intervals = c.failure_intervals;
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

std::unique_ptr<baselines::SudokuScheme> make_scheme(const McConfig& config) {
  SudokuConfig ctrl_cfg;
  ctrl_cfg.geo.num_lines = config.cache.num_lines;
  ctrl_cfg.geo.group_size = config.cache.group_size;
  ctrl_cfg.level = config.level;
  ctrl_cfg.inner_ecc_t = config.cache.inner_ecc_t;
  return std::make_unique<baselines::SudokuScheme>(ctrl_cfg);
}

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

baselines::KernelHooks kernel_hooks(const McConfig& config) {
  baselines::KernelHooks hooks;
  if (config.host_writes_per_interval == 0) return hooks;
  // §VIII-B: host write traffic with write errors. Each write stores a
  // fresh payload (mirrored into golden) and then flips written bits with
  // probability `wer`, indistinguishable from retention faults to the
  // controller, which is the paper's point.
  const std::uint64_t writes = config.host_writes_per_interval;
  const double wer = config.wer;
  hooks.host_writes = [writes, wer](baselines::CacheScheme& scheme, Rng& rng,
                                    SttramArray& golden,
                                    std::vector<std::uint64_t>& touched) {
    auto& sudoku = dynamic_cast<baselines::SudokuScheme&>(scheme);
    const std::uint32_t bits = sudoku.bits_per_unit();
    BitVec data(LineCodec::kDataBits);
    BitVec written(bits);
    std::uint64_t flips = 0;
    for (std::uint64_t w = 0; w < writes; ++w) {
      const std::uint64_t line = rng.next_below(sudoku.num_lines());
      for (auto& word : data.words()) word = rng.next_u64();
      sudoku.write(line, data);
      sudoku.array().read_line(line, written);
      golden.write_line(line, written);
      const std::uint64_t nflips = rng.next_binomial(bits, wer);
      for (std::uint64_t f = 0; f < nflips; ++f) {
        sudoku.array().flip(line, static_cast<std::uint32_t>(rng.next_below(bits)));
      }
      flips += nflips;
      if (nflips > 0) touched.push_back(line);
    }
    return flips;
  };
  return hooks;
}

McResult run_montecarlo(const McConfig& config) {
  const std::unique_ptr<baselines::SudokuScheme> scheme = make_scheme(config);
  const baselines::BaselineMcConfig kernel = kernel_config(config);
  const Rng rng = baselines::format_for_run(*scheme, kernel);
  return baselines::run_mc<McResult>(*scheme, rng, kernel, kernel_hooks(config));
}

}  // namespace sudoku::reliability
