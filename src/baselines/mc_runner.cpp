#include "baselines/mc_runner.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
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

IntervalCounts run_interval_kernel(CacheScheme& scheme, const BaselineMcConfig& config,
                                   const KernelHooks& hooks) {
  const faults::FaultScenario* scenario = config.scenario;
  if (scenario) {
    const faults::Geometry& g = scenario->geometry();
    if (g.num_units != scheme.num_units() || g.bits_per_unit != scheme.bits_per_unit()) {
      std::fprintf(stderr,
                   "Monte Carlo: scenario geometry (%llu x %u) does not match "
                   "scheme %s (%llu x %u)\n",
                   static_cast<unsigned long long>(g.num_units), g.bits_per_unit,
                   scheme.name().c_str(),
                   static_cast<unsigned long long>(scheme.num_units()),
                   scheme.bits_per_unit());
      std::abort();
    }
  }

  // In per-trial-stream mode formatting uses the reserved stream so every
  // shard of an experiment holds identical golden contents; the same Rng
  // object is then reseeded per interval from that trial's stream.
  Rng rng(config.per_trial_seed_streams
              ? Rng::derive_stream_seed(config.seed, kFormatStream)
              : config.seed);
  scheme.format_random(rng);
  // Golden copy of every stored unit for SDC detection and refill.
  SttramArray golden = scheme.array();
  SttramArray& array = scheme.array();
  // Scratch for golden units: the compares below run per touched unit per
  // interval and must not allocate.
  BitVec want(scheme.bits_per_unit());
  BitVec got(scheme.bits_per_unit());

  FaultInjector injector(scheme.num_units(), scheme.bits_per_unit(), config.ber);
  // Unused when the build compiles observability out (obs/macros.h).
  [[maybe_unused]] obs::Counter* m_transient = nullptr;
  [[maybe_unused]] obs::Counter* m_stuck = nullptr;
  [[maybe_unused]] obs::Counter* m_cluster = nullptr;
  if (scenario && hooks.registry) {
    // Scenario-only series, created only in scenario mode so i.i.d. runs
    // keep their exact artifact schema.
    m_transient = hooks.registry->counter("faults.transient_bits");
    m_stuck = hooks.registry->counter("faults.stuck_cells");
    m_cluster = hooks.registry->counter("faults.cluster_events");
  }

  IntervalCounts counts;
  std::vector<std::uint64_t> touched;
  for (std::uint64_t interval = 0; interval < config.max_intervals; ++interval) {
    if (config.stop_hook && config.stop_hook()) break;
    const std::uint64_t t = config.first_trial + interval;
    if (config.per_trial_seed_streams) rng.reseed(Rng::derive_stream_seed(config.seed, t));

    // ---- sample ----
    // A scenario draws from its own per-(source, interval) streams keyed by
    // the global trial index, so its outcome is independent of sharding.
    FaultBatch batch;
    faults::ActiveStuck stuck;
    std::uint64_t drawn = 0;
    if (scenario) {
      faults::ScenarioTick tick;
      batch = scenario->transient(t, &tick);
      stuck = scenario->stuck(t);
      drawn = tick.transient_bits;
      OBS_ADD(m_transient, tick.transient_bits);
      OBS_ADD(m_stuck, stuck.cells().size());
      OBS_ADD(m_cluster, tick.cluster_events);
    } else {
      batch = hooks.fixed_fault_count >= 0
                  ? injector.sample_exact(
                        rng, static_cast<std::uint64_t>(hooks.fixed_fault_count))
                  : injector.sample_interval(rng);
      drawn = FaultInjector::count(batch);
    }
    counts.faults_injected += drawn;
    OBS_OBSERVE(hooks.faults_per_interval, drawn);

    // ---- apply ----
    FaultInjector::apply(batch, array);
    touched.clear();
    touched.reserve(batch.size() + stuck.units().size());
    for (const auto& [unit, bits] : batch) touched.push_back(unit);
    if (scenario) {
      stuck.assert_on(array);
      touched.insert(touched.end(), stuck.units().begin(), stuck.units().end());
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    } else if (hooks.host_writes) {
      counts.faults_injected += hooks.host_writes(rng, golden, touched);
    }

    // ---- scrub ----
    const BaselineStats stats = scheme.scrub_units(touched);
    counts.corrected += stats.corrected;
    counts.due_units += stats.due_units;
    OBS_ADD(hooks.corrected, stats.corrected);
    OBS_ADD(hooks.due_units, stats.due_units);
    // The scrub wrote good values over stuck cells, but those cells do not
    // hold them: re-assert before classifying, so a stuck bit is never
    // mistaken for repaired state, nor for silent corruption.
    if (scenario) stuck.assert_on(array);

    // ---- classify ----
    bool failed = stats.due_units > 0;
    // DUE units are rare and few per interval; a linear scan of the small
    // id vector beats building a hash set every interval.
    const auto& due_ids = stats.due_unit_ids;
    const auto is_due = [&due_ids](std::uint64_t unit) {
      return std::find(due_ids.begin(), due_ids.end(), unit) != due_ids.end();
    };
    for (const auto unit : touched) {
      if (is_due(unit)) continue;  // already accounted as DUE
      golden.read_line(unit, want);
      if (array.line_equals(unit, want)) continue;
      if (scenario) {
        array.read_line(unit, got);
        if (stuck.equal_outside_stuck(unit, got, want)) continue;
      }
      ++counts.sdc_units;
      OBS_INC(hooks.sdc_units);
      failed = true;
      // Heal silently-corrupted state so later intervals stay valid.
      if (!scenario) array.write_line(unit, want);
    }

    // ---- restore ----
    if (scenario) {
      // Canonical state: every touched unit goes back to golden (stuck bits
      // included; the scenario re-asserts them next interval), which also
      // models the refill of DUE units. Parity needs no rebuild: no
      // interval writes it, so it still matches the golden units.
      for (const auto unit : touched) {
        golden.read_line(unit, want);
        if (!array.line_equals(unit, want)) array.write_line(unit, want);
      }
    } else {
      // Refill DUE units from golden, as from the next memory level.
      for (const auto unit : due_ids) {
        golden.read_line(unit, want);
        scheme.restore_unit(unit, want);
      }
    }

    if (failed) {
      ++counts.failure_intervals;
      OBS_INC(hooks.failure_intervals);
    }
    ++counts.intervals;
    OBS_INC(hooks.intervals);
    if (config.target_failures != 0 && counts.failure_intervals >= config.target_failures) {
      break;
    }
  }
  return counts;
}

BaselineMcResult run_baseline_mc(CacheScheme& scheme, const BaselineMcConfig& config) {
  BaselineMcResult result;
  KernelHooks hooks;
#if SUDOKU_OBS_ENABLED
  obs::MetricsRegistry& m = result.metrics;
  hooks.registry = &m;
  hooks.intervals = m.counter("baseline.intervals");
  hooks.corrected = m.counter("baseline.corrected");
  hooks.due_units = m.counter("baseline.due_units");
  hooks.sdc_units = m.counter("baseline.sdc_units");
  hooks.failure_intervals = m.counter("baseline.failure_intervals");
  hooks.faults_per_interval =
      m.histogram("baseline.faults_per_interval", kFaultsPerIntervalEdges);
#endif
  const IntervalCounts c = run_interval_kernel(scheme, config, hooks);
  result.intervals = c.intervals;
  result.faults_injected = c.faults_injected;
  result.corrected = c.corrected;
  result.due_units = c.due_units;
  result.sdc_units = c.sdc_units;
  result.failure_intervals = c.failure_intervals;
  return result;
}

}  // namespace sudoku::baselines
