// Reproduces Figure 3's scenario split for Sequential Data Resurrection:
// two lines in a RAID-Group, two faults each —
//   (a) no overlapping fault   (paper: 99.22%)  -> SDR repairs
//   (b) one overlapping fault  (paper: 0.78%)   -> SDR repairs
//   (c) both faults overlap    (paper: 0.0004%) -> SDR cannot repair
// Printed analytically and validated by driving the *functional* SDR
// machinery over sampled fault patterns of each class. The controller's
// sudoku.sdr.case{1,2,3} instruments cross-check the classification: every
// sampled pattern must land in SDR case 2 (two bad lines in the group),
// and the repair counters in the artifact show which patterns resolved.
#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "sudoku/controller.h"

using namespace sudoku;

namespace {

struct CaseResult {
  int trials = 0;
  int repaired = 0;
};

CaseResult run_case(int overlap, int trials, std::uint64_t base_seed,
                    obs::MetricsRegistry* metrics) {
  SudokuConfig cfg;
  cfg.geo.num_lines = 1024;
  cfg.geo.group_size = 32;
  cfg.level = SudokuLevel::kY;
  CaseResult out;
  Rng rng(base_seed + static_cast<std::uint64_t>(overlap));
  for (int t = 0; t < trials; ++t) {
    SudokuController ctrl(cfg);
    ctrl.attach_metrics(metrics);
    Rng fmt(t);
    ctrl.format_random(fmt);
    const std::uint32_t width = ctrl.codec().total_bits();
    // Choose fault positions for line 3 and line 17 (same Hash-1 group)
    // with the requested overlap count.
    std::uint32_t p1 = static_cast<std::uint32_t>(rng.next_below(width));
    std::uint32_t p2 = p1;
    while (p2 == p1) p2 = static_cast<std::uint32_t>(rng.next_below(width));
    std::uint32_t q1, q2;
    if (overlap == 0) {
      do { q1 = static_cast<std::uint32_t>(rng.next_below(width)); } while (q1 == p1 || q1 == p2);
      do { q2 = static_cast<std::uint32_t>(rng.next_below(width)); } while (q2 == p1 || q2 == p2 || q2 == q1);
    } else if (overlap == 1) {
      q1 = p1;
      do { q2 = static_cast<std::uint32_t>(rng.next_below(width)); } while (q2 == p1 || q2 == p2);
    } else {
      q1 = p1;
      q2 = p2;
    }
    ctrl.array().flip(3, p1);
    ctrl.array().flip(3, p2);
    ctrl.array().flip(17, q1);
    ctrl.array().flip(17, q2);
    const std::uint64_t lines[] = {3, 17};
    const auto stats = ctrl.scrub_lines(lines);
    ++out.trials;
    if (stats.due_lines == 0) ++out.repaired;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run(argc, argv, bench::single_threaded_options());
  bench::print_header("Figure 3: SDR scenarios for two 2-fault lines in one RAID-Group");

  const double B = 553.0;
  // Overlap distribution for two independent 2-subsets of B positions.
  const double p_both = 2.0 / (B * (B - 1.0));
  const double p_one = 4.0 * (B - 2.0) / (B * (B - 1.0));
  const double p_none = 1.0 - p_one - p_both;

  std::printf("\n  %-28s %12s %12s %14s\n", "Scenario", "ours", "paper",
              "SDR repairs?");
  std::printf("  %-28s %11.3f%% %12s %14s\n", "(a) no overlapping fault",
              100 * p_none, "99.22%", "yes");
  std::printf("  %-28s %11.3f%% %12s %14s\n", "(b) one overlapping fault",
              100 * p_one, "0.78%", "yes");
  std::printf("  %-28s %11.5f%% %12s %14s\n", "(c) both faults overlap",
              100 * p_both, "0.0004%", "no");

  bench::print_header("Functional validation (real SDR machinery, sampled patterns)");
  const int trials = static_cast<int>(60 * run.args.scale);
  const std::uint64_t base_seed = run.args.seed_or(1000);

  bench::Table rows({{"overlap", "%7d", "overlap"},
                     {"trials", "%7d", "trials"},
                     {"repaired", "%9d", "repaired"},
                     {"expected", "%9d", "expected_repaired"}});
  for (int overlap = 0; overlap <= 2; ++overlap) {
    const auto r = run_case(overlap, trials, base_seed, &run.metrics());
    rows.row(overlap, r.trials, r.repaired, overlap == 2 ? 0 : r.trials);
    run.stats.trials += static_cast<std::uint64_t>(r.trials);
  }

  exp::JsonObject config;
  config.set("num_lines", std::uint64_t{1024})
      .set("group_size", 32)
      .set("trials_per_case", trials)
      .set("seed", base_seed);
  exp::JsonObject result;
  result.set("p_no_overlap", p_none)
      .set("p_one_overlap", p_one)
      .set("p_both_overlap", p_both)
      .set("cases", rows.json());

  run.finish("fig3_sdr_cases", config, result);
  return 0;
}
