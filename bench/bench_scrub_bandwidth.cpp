// §VII-E / §II-D footnote: the scrub sweep must fit in a few percent of
// cache bandwidth. Prints the bandwidth cost of the sweep across scrub
// intervals and cache sizes, and runs the continuous-time scrub engine to
// show the sweep keeping up with fault arrival at the paper's rates. The
// engine's scrub.* series and the controller's sudoku.* instruments are
// recorded into the bench/out artifact's metrics section.
#include <cstdio>

#include "bench_util.h"
#include "sttram/device_model.h"
#include "sudoku/scrubber.h"

using namespace sudoku;

int main(int argc, char** argv) {
  bench::Run run(argc, argv, bench::single_threaded_options());
  bench::print_header("Scrub bandwidth (§VII-E): sweep cost vs interval and size");
  bench::Table bandwidth({{"cache", "%6uMB", "cache_mb"},
                          {"interval", "%6.0fms", "interval_ms"},
                          {"bank bandwidth", "%14.4f", "bandwidth_fraction"}});
  for (const std::uint64_t mb : {32ull, 64ull, 128ull}) {
    for (const double interval_ms : {10.0, 20.0, 40.0}) {
      ScrubSchedule s;
      s.interval_s = interval_ms / 1000.0;
      bandwidth.row(mb, interval_ms, s.bandwidth_fraction(mb * (1ull << 20) / 64));
    }
  }
  std::printf("\n  paper: 20ms keeps the 64MB sweep within 'a few percent'.\n");

  bench::print_header("Continuous-time scrub engine at an accelerated fault rate");
  SudokuConfig cfg;
  cfg.geo.num_lines = 4096;
  cfg.geo.group_size = 64;
  cfg.level = SudokuLevel::kZ;
  SudokuController ctrl(cfg);
  ctrl.attach_metrics(&run.metrics());
  Rng rng(run.args.seed_or(1));
  ctrl.format_random(rng);
  ScrubSchedule sched;
  const std::uint32_t intervals = static_cast<std::uint32_t>(200 * run.args.scale);
  // 1e-4 per bit per 20ms interval, delivered continuously.
  const auto stats = run_continuous_scrub(ctrl, sched, 1e-4 / 0.02, 16, intervals,
                                          rng, &run.metrics());
  std::printf("\n  simulated time        : %.2f s (%llu sweeps)\n",
              stats.simulated_seconds, static_cast<unsigned long long>(stats.sweeps));
  std::printf("  faults injected       : %llu\n",
              static_cast<unsigned long long>(stats.faults_injected));
  std::printf("  ECC-1 corrections     : %llu\n",
              static_cast<unsigned long long>(stats.ecc1_corrections));
  std::printf("  RAID-4 / SDR repairs  : %llu / %llu\n",
              static_cast<unsigned long long>(stats.raid4_repairs),
              static_cast<unsigned long long>(stats.sdr_repairs));
  std::printf("  DUE lines             : %llu\n",
              static_cast<unsigned long long>(stats.due_lines));
  // Faults that arrived after a line's last visit are still latent; drain
  // them with one final sweep before auditing the parity invariant.
  ctrl.scrub_all();
  const bool consistent = ctrl.parities_consistent();
  std::printf("  parities consistent   : %s (after final sweep)\n",
              consistent ? "yes" : "NO");

  exp::JsonObject config;
  config.set("num_lines", cfg.geo.num_lines)
      .set("group_size", cfg.geo.group_size)
      .set("intervals", intervals)
      .set("fault_rate_per_bit_s", 1e-4 / 0.02)
      .set("seed", run.args.seed_or(1));
  exp::JsonObject result;
  result.set("bandwidth_rows", bandwidth.json())
      .set("sweeps", stats.sweeps)
      .set("faults_injected", stats.faults_injected)
      .set("ecc1_corrections", stats.ecc1_corrections)
      .set("raid4_repairs", stats.raid4_repairs)
      .set("sdr_repairs", stats.sdr_repairs)
      .set("due_lines", stats.due_lines)
      .set("simulated_seconds", stats.simulated_seconds)
      .set("parities_consistent", consistent);

  run.stats.trials = stats.lines_scrubbed;
  run.finish("scrub_bandwidth", config, result);
  return consistent ? 0 : 1;
}
