#include "reliability/montecarlo.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/prob.h"
#include "obs/macros.h"
#include "sttram/fault_injector.h"

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

McResult run_montecarlo(const McConfig& config) {
  SudokuConfig ctrl_cfg;
  ctrl_cfg.geo.num_lines = config.cache.num_lines;
  ctrl_cfg.geo.group_size = config.cache.group_size;
  ctrl_cfg.level = config.level;
  SudokuController ctrl(ctrl_cfg);

  // In per-trial-stream mode formatting uses the reserved stream so every
  // shard of an experiment holds identical golden contents; the same Rng
  // object is then reseeded per interval from that trial's stream.
  Rng rng(config.per_trial_seed_streams
              ? Rng::derive_stream_seed(config.seed, kFormatStream)
              : config.seed);
  ctrl.format_random(rng);
  // Golden copy of every stored codeword for SDC detection and refill.
  SttramArray golden = ctrl.array();
  // Scratch for golden lines: the compares below run per touched line per
  // interval and must not allocate.
  BitVec want(ctrl.codec().total_bits());
  BitVec got(ctrl.codec().total_bits());

  FaultInjector injector(config.cache.num_lines, ctrl.codec().total_bits(),
                         config.cache.ber);

  if (config.scenario) {
    const faults::Geometry& g = config.scenario->geometry();
    if (g.num_units != config.cache.num_lines ||
        g.bits_per_unit != ctrl.codec().total_bits()) {
      std::fprintf(stderr,
                   "run_montecarlo: scenario geometry (%llu x %u) does not "
                   "match the cache (%llu x %u)\n",
                   static_cast<unsigned long long>(g.num_units), g.bits_per_unit,
                   static_cast<unsigned long long>(config.cache.num_lines),
                   ctrl.codec().total_bits());
      std::abort();
    }
  }

  McResult result;
  obs::Counter* m_intervals = nullptr;
  obs::Counter* m_sdc = nullptr;
  obs::Counter* m_failure_intervals = nullptr;
  obs::Histogram* m_faults_per_interval = nullptr;
  obs::Counter* m_scn_transient = nullptr;
  obs::Counter* m_scn_stuck = nullptr;
  obs::Counter* m_scn_cluster = nullptr;
#if SUDOKU_OBS_ENABLED
  // The controller writes its sudoku.* series straight into the result's
  // registry; everything recorded is a deterministic event count, so the
  // engine's shard merge stays bit-identical for any thread count.
  ctrl.attach_metrics(&result.metrics);
  m_intervals = result.metrics.counter("mc.intervals");
  m_sdc = result.metrics.counter("mc.sdc_lines");
  m_failure_intervals = result.metrics.counter("mc.failure_intervals");
  m_faults_per_interval = result.metrics.histogram(
      "mc.faults_per_interval", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
  if (config.scenario) {
    // Scenario-only series (faults.*): created lazily so legacy runs keep
    // their exact artifact schema.
    m_scn_transient = result.metrics.counter("faults.transient_bits");
    m_scn_stuck = result.metrics.counter("faults.stuck_cells");
    m_scn_cluster = result.metrics.counter("faults.cluster_events");
  }
#endif
  std::vector<std::uint64_t> touched;
  for (std::uint64_t interval = 0; interval < config.max_intervals; ++interval) {
    if (config.stop_hook && config.stop_hook()) break;
    if (config.per_trial_seed_streams) {
      rng.reseed(
          Rng::derive_stream_seed(config.seed, config.first_trial + interval));
    }

    if (config.scenario) {
      // Mixed-fault interval. All randomness comes from the scenario's own
      // per-(source, interval) streams keyed by the global trial index, so
      // the outcome is independent of sharding.
      const std::uint64_t t = config.first_trial + interval;
      faults::ScenarioTick tick;
      const auto batch = config.scenario->transient(t, &tick);
      const faults::ActiveStuck stuck = config.scenario->stuck(t);
      result.faults_injected += tick.transient_bits;
      OBS_OBSERVE(m_faults_per_interval, tick.transient_bits);
      OBS_ADD(m_scn_transient, tick.transient_bits);
      OBS_ADD(m_scn_stuck, stuck.cells().size());
      OBS_ADD(m_scn_cluster, tick.cluster_events);
      FaultInjector::apply(batch, ctrl.array());
      stuck.assert_on(ctrl.array());

      touched.clear();
      touched.reserve(batch.size() + stuck.units().size());
      for (const auto& [line, bits] : batch) touched.push_back(line);
      touched.insert(touched.end(), stuck.units().begin(), stuck.units().end());
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

      const auto stats = ctrl.scrub_lines(touched);
      result.ecc1_corrections += stats.ecc1_corrections;
      result.raid4_repairs += stats.raid4_repairs;
      result.sdr_repairs += stats.sdr_repairs;
      result.hash2_invocations += stats.hash2_invocations;
      result.groups_repaired += stats.groups_repaired;
      result.due_lines += stats.due_lines;
      // The scrub wrote good values over stuck cells, but those cells do
      // not hold them: re-assert before classifying, so a stuck bit is
      // never mistaken for repaired state — nor for silent corruption
      // (equal_outside_stuck masks the stuck positions).
      stuck.assert_on(ctrl.array());

      bool interval_failed = stats.due_lines > 0;
      const auto& due_ids = stats.due_line_ids;
      const auto is_due = [&due_ids](std::uint64_t line) {
        return std::find(due_ids.begin(), due_ids.end(), line) != due_ids.end();
      };
      if (config.verify_against_golden) {
        for (const auto line : touched) {
          if (is_due(line)) continue;
          golden.read_line(line, want);
          if (ctrl.array().line_equals(line, want)) continue;
          ctrl.array().read_line(line, got);
          if (!stuck.equal_outside_stuck(line, got, want)) {
            ++result.sdc_lines;
            OBS_INC(m_sdc);
            interval_failed = true;
          }
        }
      }
      // Canonical-state restore: every interval starts from array == golden
      // with consistent parities, so interval t depends only on its own
      // seed streams — the shard-split reproducibility contract. (The
      // restore also models the refill of DUE lines from the next level.)
      // Parity needs no rebuild: repairs only read the PLTs and write_data
      // never runs here, so they still hold the XOR of the golden lines.
      for (const auto line : touched) {
        golden.read_line(line, want);
        if (!ctrl.array().line_equals(line, want)) ctrl.array().write_line(line, want);
      }

      if (interval_failed) {
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

    const auto batch =
        config.fixed_fault_count >= 0
            ? injector.sample_exact(
                  rng, static_cast<std::uint64_t>(config.fixed_fault_count))
            : injector.sample_interval(rng);
    const std::uint64_t batch_faults = FaultInjector::count(batch);
    result.faults_injected += batch_faults;
    OBS_OBSERVE(m_faults_per_interval, batch_faults);
    FaultInjector::apply(batch, ctrl.array());

    touched.clear();
    touched.reserve(batch.size());
    for (const auto& [line, bits] : batch) touched.push_back(line);

    // §VIII-B: host write traffic with write errors. Each write stores a
    // fresh payload (mirrored into golden) and then flips written bits
    // with probability `wer` — indistinguishable from retention faults to
    // the controller, which is the paper's point.
    for (std::uint64_t w = 0; w < config.host_writes_per_interval; ++w) {
      const std::uint64_t line = rng.next_below(config.cache.num_lines);
      BitVec data(LineCodec::kDataBits);
      auto words = data.words();
      for (auto& word : words) word = rng.next_u64();
      ctrl.write_data(line, data);
      ctrl.array().read_line(line, want);
      golden.write_line(line, want);
      const std::uint64_t nflips =
          rng.next_binomial(ctrl.codec().total_bits(), config.wer);
      for (std::uint64_t f = 0; f < nflips; ++f) {
        ctrl.array().flip(line, static_cast<std::uint32_t>(
                                    rng.next_below(ctrl.codec().total_bits())));
      }
      result.faults_injected += nflips;
      if (nflips > 0) touched.push_back(line);
    }

    const auto stats = ctrl.scrub_lines(touched);
    result.ecc1_corrections += stats.ecc1_corrections;
    result.raid4_repairs += stats.raid4_repairs;
    result.sdr_repairs += stats.sdr_repairs;
    result.hash2_invocations += stats.hash2_invocations;
    result.groups_repaired += stats.groups_repaired;
    result.due_lines += stats.due_lines;

    bool interval_failed = stats.due_lines > 0;
    // DUE lines are rare and few per interval; a linear scan of the small
    // id vector beats rebuilding a hash set every interval.
    const auto& due_ids = stats.due_line_ids;
    const auto is_due = [&due_ids](std::uint64_t line) {
      return std::find(due_ids.begin(), due_ids.end(), line) != due_ids.end();
    };
    if (config.verify_against_golden) {
      for (const auto line : touched) {
        if (is_due(line)) continue;  // already accounted as DUE
        golden.read_line(line, want);
        if (!ctrl.array().line_equals(line, want)) {
          ++result.sdc_lines;
          OBS_INC(m_sdc);
          interval_failed = true;
          // Heal silently-corrupted state so later intervals stay valid.
          ctrl.array().write_line(line, want);
        }
      }
    }
    // Refill DUE lines from golden (models a refill/invalna-refetch) and
    // resynchronise parity via the write path.
    for (const auto line : stats.due_line_ids) {
      golden.read_line(line, want);
      ctrl.write_data(line, ctrl.codec().extract_data(want));
    }

    if (interval_failed) {
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

}  // namespace sudoku::reliability
