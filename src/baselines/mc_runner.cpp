#include "baselines/mc_runner.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <vector>

#include "common/prob.h"
#include "obs/macros.h"
#include "sttram/fault_injector.h"

namespace sudoku::baselines {

double BaselineMcResult::fit(double interval_s) const {
  return p_failure_per_interval() * (kSecondsPerBillionHours / interval_s);
}

const McFields<BaselineMcResult>& BaselineMcResult::fields() {
  static const McFields<BaselineMcResult> kFields = {
      {"intervals", &BaselineMcResult::intervals},
      {"faults_injected", &BaselineMcResult::faults_injected},
      {"corrected", &BaselineMcResult::corrected},
      {"due_units", &BaselineMcResult::due_units},
      {"sdc_units", &BaselineMcResult::sdc_units},
      {"failure_intervals", &BaselineMcResult::failure_intervals},
  };
  return kFields;
}

void BaselineMcResult::instrument(CacheScheme& /*clone*/, KernelHooks& hooks) {
  hooks.registry = &metrics;
  hooks.intervals = metrics.counter("baseline.intervals");
  hooks.corrected = metrics.counter("baseline.corrected");
  hooks.due_units = metrics.counter("baseline.due_units");
  hooks.sdc_units = metrics.counter("baseline.sdc_units");
  hooks.failure_intervals = metrics.counter("baseline.failure_intervals");
  hooks.faults_per_interval =
      metrics.histogram("baseline.faults_per_interval", kFaultsPerIntervalEdges);
}

void BaselineMcResult::collect(const IntervalCounts& c, const CacheScheme& /*clone*/) {
  intervals = c.intervals;
  faults_injected = c.faults_injected;
  corrected = c.corrected;
  due_units = c.due_units;
  sdc_units = c.sdc_units;
  failure_intervals = c.failure_intervals;
}

Rng format_for_run(CacheScheme& scheme, const BaselineMcConfig& config) {
  // In per-trial-stream mode the format draws from the reserved stream, so
  // it does not depend on the shard's trial range and one prototype serves
  // every shard; the kernel then reseeds the returned Rng per interval.
  Rng rng(config.per_trial_seed_streams ? Rng::derive_stream_seed(config.seed, kFormatStream)
                                        : config.seed);
  scheme.format_random(rng);
  return rng;
}

IntervalCounts run_interval_kernel(CacheScheme& scheme, const SttramArray& shared_golden,
                                   Rng& rng, const BaselineMcConfig& config,
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

  // Host writes store new golden data, so only a run with them copies the
  // golden image; every other run reads the shared one.
  std::optional<SttramArray> own_golden;
  if (hooks.host_writes) own_golden.emplace(shared_golden);
  const SttramArray& golden = own_golden ? *own_golden : shared_golden;
  SttramArray& array = scheme.array();
  // Scratch for golden units. Units are compared with the golden image in
  // place; a unit is copied out only to be written back or compared
  // outside its stuck cells, and that must not allocate either.
  const std::uint32_t bits_per_unit = scheme.bits_per_unit();
  BitVec want(bits_per_unit);
  BitVec got(bits_per_unit);

  FaultInjector injector(scheme.num_units(), bits_per_unit, config.ber);
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
  std::vector<std::uint64_t> flips;  // flat positions; a scenario's are sorted
  faults::ActiveStuck stuck;         // a scenario's, refilled every interval
  for (std::uint64_t interval = 0; interval < config.max_intervals; ++interval) {
    if (config.stop_hook && config.stop_hook()) break;
    const std::uint64_t t = config.first_trial + interval;
    if (config.per_trial_seed_streams) rng.reseed(Rng::derive_stream_seed(config.seed, t));

    // ---- sample ----
    // A scenario draws from its own per-(source, interval) streams keyed by
    // the global trial index, so its outcome is independent of sharding.
    // The i.i.d. draws are exactly sample_interval's (sample_exact's).
    std::uint64_t drawn = 0;
    if (scenario) {
      faults::ScenarioTick tick;
      scenario->transient_positions(t, flips, &tick);
      scenario->stuck(t, stuck);
      drawn = tick.transient_bits;
      OBS_ADD(m_transient, tick.transient_bits);
      OBS_ADD(m_stuck, stuck.cells().size());
      OBS_ADD(m_cluster, tick.cluster_events);
    } else {
      drawn = config.fixed_fault_count >= 0
                  ? static_cast<std::uint64_t>(config.fixed_fault_count)
                  : injector.draw_count(rng);
      flips.clear();
      injector.draw_positions(rng, drawn, flips);
    }
    counts.faults_injected += drawn;
    OBS_OBSERVE(hooks.faults_per_interval, drawn);

    // ---- apply ----
    for (const std::uint64_t pos : flips) {
      array.flip(pos / bits_per_unit, static_cast<std::uint32_t>(pos % bits_per_unit));
    }
    touched.clear();
    if (scenario) {
      // Sorted positions give sorted units; merge in the stuck units.
      for (const std::uint64_t pos : flips) {
        const std::uint64_t unit = pos / bits_per_unit;
        if (touched.empty() || touched.back() != unit) touched.push_back(unit);
      }
      stuck.assert_on(array);
      const auto mid = static_cast<std::ptrdiff_t>(touched.size());
      touched.insert(touched.end(), stuck.units().begin(), stuck.units().end());
      std::inplace_merge(touched.begin(), touched.begin() + mid, touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    } else {
      // The FaultBatch iteration order, which sets SuDoku-Z's repair split.
      injector.batch_order(flips, touched);
      if (hooks.host_writes) {
        counts.faults_injected += hooks.host_writes(scheme, rng, *own_golden, touched);
      }
    }

    // ---- scrub ----
    const ScrubReport stats = scheme.scrub_units(touched);
    const std::uint64_t due = stats.due_unit_ids.size();
    counts.corrected += stats.corrected;
    counts.due_units += due;
    OBS_ADD(hooks.corrected, stats.corrected);
    OBS_ADD(hooks.due_units, due);
    // The scrub wrote good values over stuck cells, but those cells do not
    // hold them: re-assert before classifying, so a stuck bit is never
    // mistaken for repaired state, nor for silent corruption.
    if (scenario) stuck.assert_on(array);

    // ---- classify ----
    bool failed = due > 0;
    // DUE units are rare and few per interval; a linear scan of the small
    // id vector beats building a hash set every interval.
    const auto& due_ids = stats.due_unit_ids;
    const auto is_due = [&due_ids](std::uint64_t unit) {
      return std::find(due_ids.begin(), due_ids.end(), unit) != due_ids.end();
    };
    for (const auto unit : touched) {
      if (is_due(unit)) continue;  // already accounted as DUE
      if (array.line_equals(unit, golden)) continue;
      golden.read_line(unit, want);
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
        if (array.line_equals(unit, golden)) continue;
        golden.read_line(unit, want);
        array.write_line(unit, want);
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
  const Rng rng = format_for_run(scheme, config);
  return run_mc<BaselineMcResult>(scheme, rng, config);
}

}  // namespace sudoku::baselines
