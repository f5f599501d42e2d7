// Reproduces Table VIII: FIT rate vs scrub interval (10/20/40 ms) for
// ECC-5, ECC-6 and SuDoku-Z. The BER-per-scrub values come straight from
// the paper's row (themselves consistent with Eq. 1's near-linear scaling);
// the device model's own BER at each interval is printed for comparison.
//
// The analytical rows are backed by a functional shape check: the
// continuous-time scrub engine runs at a fixed per-second fault rate under
// each interval, so a doubled interval must roughly double the corrections
// per sweep (longer exposure windows). Per-interval scrub.* / sudoku.*
// series land in the bench/out artifact's metrics section.
#include <cstdio>

#include "bench_util.h"
#include "reliability/analytical.h"
#include "sttram/device_model.h"
#include "sudoku/scrubber.h"

using namespace sudoku;
using namespace sudoku::reliability;

int main(int argc, char** argv) {
  bench::Run run(argc, argv, bench::single_threaded_options());
  bench::print_header("Table VIII: FIT-Rate vs Scrub Intervals (default: 20ms)");

  struct Row {
    double interval_s;
    double ber;            // paper's BER-per-scrub column
    const char* paper_ecc5;
    const char* paper_ecc6;
    const char* paper_z;
  };
  const Row rows[] = {
      {0.01, 2.7e-6, "6.74", "1.66e-3", "5.49e-7"},
      {0.02, 5.3e-6, "215", "0.092", "1.05e-4"},
      {0.04, 1.09e-5, "6870", "6.76", "0.04"},
  };

  bench::Table fits({{"Scrub s", "%7s", "interval_s"},
                     {"BER/scrub", "%10s", "ber_per_scrub"},
                     {"model BER", "%10s", "model_ber"},
                     {"ECC-5", "| %8s", "fit_ecc5"},
                     {"paper", "%7s", ""},
                     {"ECC-6", "| %8s", "fit_ecc6"},
                     {"paper", "%7s", ""},
                     {"SuDoku-Z(strict)", "| %16s", "fit_sudoku_z_strict"},
                     {"paper", "%8s", ""}});
  for (const auto& r : rows) {
    CacheParams c;
    c.ber = r.ber;
    c.scrub_interval_s = r.interval_s;
    ThermalParams tp;
    fits.row(r.interval_s, r.ber, effective_ber(tp, r.interval_s), ecc_k(c, 5).fit(),
             r.paper_ecc5, ecc_k(c, 6).fit(), r.paper_ecc6,
             sudoku_z_due(c, SdrModel::kStrict).fit(), r.paper_z);
  }
  std::printf("\n  shape check: ECC-5 violates the 1-FIT target even at 10ms;\n");
  std::printf("  SuDoku-Z holds it at 40ms (paper's central Table VIII claim).\n");

  bench::print_header(
      "Functional shape check: corrections per sweep vs interval (fixed fault rate)");
  // Accelerated fixed per-second per-bit rate; only the interval varies, so
  // the exposure window — and with it the corrections per sweep — must
  // scale roughly linearly with the interval, mirroring Eq. 1's regime.
  const double rate = 2e-4 / 0.02;
  const std::uint32_t intervals = static_cast<std::uint32_t>(30 * run.args.scale);
  bench::Table scrubs({{"interval s", "%10s", "interval_s"},
                       {"sweeps", "%7u", "sweeps"},
                       {"corrections", "%12u", "ecc1_corrections"},
                       {"corrections/sweep", "%18.1f", "corrections_per_sweep"},
                       {"due", "%5u", "due_lines"}});
  for (const auto& r : rows) {
    SudokuConfig cfg;
    cfg.geo.num_lines = 4096;
    cfg.geo.group_size = 64;
    cfg.level = SudokuLevel::kZ;
    SudokuController ctrl(cfg);
    ctrl.attach_metrics(&run.metrics());
    Rng rng(run.args.seed_or(21));
    ctrl.format_random(rng);
    ScrubSchedule sched;
    sched.interval_s = r.interval_s;
    const auto s =
        run_continuous_scrub(ctrl, sched, rate, 8, intervals, rng, &run.metrics());
    scrubs.row(r.interval_s, s.sweeps, s.ecc1_corrections,
               s.sweeps > 0 ? static_cast<double>(s.ecc1_corrections) / s.sweeps : 0.0,
               s.due_lines);
    run.stats.trials += s.lines_scrubbed;
  }
  std::printf("\n  expected: corrections/sweep roughly doubles 10ms->20ms->40ms.\n");

  exp::JsonObject config;
  config.set("num_lines", std::uint64_t{4096})
      .set("group_size", 64)
      .set("fault_rate_per_bit_s", rate)
      .set("intervals_per_row", intervals)
      .set("seed", run.args.seed_or(21));
  exp::JsonObject result;
  result.set("fit_rows", fits.json()).set("scrub_shape_check", scrubs.json());

  run.finish("table8_scrub", config, result);
  return 0;
}
