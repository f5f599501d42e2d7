#include "baselines/mc_runner.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>
#include <vector>

#include "common/prob.h"
#include "obs/macros.h"
#include "sttram/fault_injector.h"

namespace sudoku::baselines {

double BaselineMcResult::fit(double interval_s) const {
  return p_failure_per_interval() * (kSecondsPerBillionHours / interval_s);
}

BaselineMcResult& BaselineMcResult::operator+=(const BaselineMcResult& other) {
  metrics += other.metrics;
  intervals += other.intervals;
  faults_injected += other.faults_injected;
  corrected += other.corrected;
  due_units += other.due_units;
  sdc_units += other.sdc_units;
  failure_intervals += other.failure_intervals;
  return *this;
}

BaselineMcResult run_baseline_mc(CacheScheme& scheme, const BaselineMcConfig& config) {
  Rng rng(config.per_trial_seed_streams
              ? Rng::derive_stream_seed(config.seed, kFormatStream)
              : config.seed);
  scheme.format_random(rng);

  // Golden snapshot for SDC detection and refills.
  SttramArray golden(scheme.num_units(), scheme.bits_per_unit());
  for (std::uint64_t u = 0; u < scheme.num_units(); ++u) {
    golden.write_line(u, scheme.array().read_line(u));
  }

  // Scratch for golden units: the compares below run per touched unit per
  // interval and must not allocate.
  BitVec want(scheme.bits_per_unit());
  BitVec got(scheme.bits_per_unit());

  FaultInjector injector(scheme.num_units(), scheme.bits_per_unit(), config.ber);
  BaselineMcResult result;
  obs::Counter* m_intervals = nullptr;
  obs::Counter* m_corrected = nullptr;
  obs::Counter* m_due = nullptr;
  obs::Counter* m_sdc = nullptr;
  obs::Counter* m_failure_intervals = nullptr;
  obs::Histogram* m_faults_per_interval = nullptr;
  obs::Counter* m_scn_transient = nullptr;
  obs::Counter* m_scn_stuck = nullptr;
  obs::Counter* m_scn_cluster = nullptr;
#if SUDOKU_OBS_ENABLED
  m_intervals = result.metrics.counter("baseline.intervals");
  m_corrected = result.metrics.counter("baseline.corrected");
  m_due = result.metrics.counter("baseline.due_units");
  m_sdc = result.metrics.counter("baseline.sdc_units");
  m_failure_intervals = result.metrics.counter("baseline.failure_intervals");
  m_faults_per_interval = result.metrics.histogram(
      "baseline.faults_per_interval",
      {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
  if (config.scenario) {
    m_scn_transient = result.metrics.counter("faults.transient_bits");
    m_scn_stuck = result.metrics.counter("faults.stuck_cells");
    m_scn_cluster = result.metrics.counter("faults.cluster_events");
  }
#endif
  if (config.scenario) {
    const faults::Geometry& g = config.scenario->geometry();
    if (g.num_units != scheme.num_units() ||
        g.bits_per_unit != scheme.bits_per_unit()) {
      std::fprintf(stderr,
                   "run_baseline_mc: scenario geometry (%llu x %u) does not "
                   "match scheme %s (%llu x %u)\n",
                   static_cast<unsigned long long>(g.num_units), g.bits_per_unit,
                   scheme.name().c_str(),
                   static_cast<unsigned long long>(scheme.num_units()),
                   scheme.bits_per_unit());
      std::abort();
    }
  }
  std::vector<std::uint64_t> touched;

  for (std::uint64_t interval = 0; interval < config.max_intervals; ++interval) {
    if (config.stop_hook && config.stop_hook()) break;
    if (config.per_trial_seed_streams) {
      rng.reseed(
          Rng::derive_stream_seed(config.seed, config.first_trial + interval));
    }

    if (config.scenario) {
      // Mixed-fault interval; mirrors the scenario branch of
      // reliability::run_montecarlo (see that file for the invariants).
      const std::uint64_t t = config.first_trial + interval;
      faults::ScenarioTick tick;
      const auto batch = config.scenario->transient(t, &tick);
      const faults::ActiveStuck stuck = config.scenario->stuck(t);
      result.faults_injected += tick.transient_bits;
      OBS_OBSERVE(m_faults_per_interval, tick.transient_bits);
      OBS_ADD(m_scn_transient, tick.transient_bits);
      OBS_ADD(m_scn_stuck, stuck.cells().size());
      OBS_ADD(m_scn_cluster, tick.cluster_events);
      FaultInjector::apply(batch, scheme.array());
      stuck.assert_on(scheme.array());

      touched.clear();
      touched.reserve(batch.size() + stuck.units().size());
      for (const auto& [unit, bits] : batch) touched.push_back(unit);
      touched.insert(touched.end(), stuck.units().begin(), stuck.units().end());
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

      const auto stats = scheme.scrub_units(touched);
      result.corrected += stats.corrected;
      result.due_units += stats.due_units;
      OBS_ADD(m_corrected, stats.corrected);
      OBS_ADD(m_due, stats.due_units);
      stuck.assert_on(scheme.array());  // repairs don't stick on stuck cells

      bool failed = stats.due_units > 0;
      const std::unordered_set<std::uint64_t> due(stats.due_unit_ids.begin(),
                                                  stats.due_unit_ids.end());
      for (const auto unit : touched) {
        if (due.count(unit)) continue;
        golden.read_line(unit, want);
        if (scheme.array().line_equals(unit, want)) continue;
        scheme.array().read_line(unit, got);
        if (!stuck.equal_outside_stuck(unit, got, want)) {
          ++result.sdc_units;
          OBS_INC(m_sdc);
          failed = true;
        }
      }
      // Canonical-state restore (stuck bits included — they will be
      // re-asserted from the scenario at the next interval).
      for (const auto unit : touched) {
        golden.read_line(unit, want);
        if (!scheme.array().line_equals(unit, want)) scheme.restore_unit(unit, want);
      }

      if (failed) {
        ++result.failure_intervals;
        OBS_INC(m_failure_intervals);
      }
      ++result.intervals;
      OBS_INC(m_intervals);
      if (config.target_failures != 0 &&
          result.failure_intervals >= config.target_failures) {
        break;
      }
      continue;
    }

    const auto batch = injector.sample_interval(rng);
    const std::uint64_t batch_faults = FaultInjector::count(batch);
    result.faults_injected += batch_faults;
    OBS_OBSERVE(m_faults_per_interval, batch_faults);
    FaultInjector::apply(batch, scheme.array());

    touched.clear();
    touched.reserve(batch.size());
    for (const auto& [unit, bits] : batch) touched.push_back(unit);

    const auto stats = scheme.scrub_units(touched);
    result.corrected += stats.corrected;
    result.due_units += stats.due_units;
    OBS_ADD(m_corrected, stats.corrected);
    OBS_ADD(m_due, stats.due_units);

    bool failed = stats.due_units > 0;
    const std::unordered_set<std::uint64_t> due(stats.due_unit_ids.begin(),
                                                stats.due_unit_ids.end());
    for (const auto unit : touched) {
      if (due.count(unit)) continue;
      golden.read_line(unit, want);
      if (!scheme.array().line_equals(unit, want)) {
        ++result.sdc_units;
        OBS_INC(m_sdc);
        failed = true;
        scheme.restore_unit(unit, want);
      }
    }
    for (const auto unit : stats.due_unit_ids) {
      golden.read_line(unit, want);
      scheme.restore_unit(unit, want);
    }

    if (failed) {
      ++result.failure_intervals;
      OBS_INC(m_failure_intervals);
    }
    ++result.intervals;
    OBS_INC(m_intervals);
    if (config.target_failures != 0 && result.failure_intervals >= config.target_failures) {
      break;
    }
  }
  return result;
}

}  // namespace sudoku::baselines
