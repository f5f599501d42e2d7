// Feature ablation across the SuDoku ladder: X (RAID-4 only), Y (+SDR),
// Z (+skewed hashing), and the paper's footnote-4 variant (skewed hashing
// WITHOUT SDR). Analytical FITs at the operating point plus a functional
// Monte-Carlo bake-off at accelerated BER.
//
// The bake-off runs on the src/exp engine: trials shard across the
// engine's threads with per-trial seed streams (bit-identical for any
// --threads value), and with --checkpoint=DIR each level's finished shards
// persist under their own scope so an interrupted sweep resumes mid-ladder.
#include <cstdio>

#include "bench_util.h"
#include "reliability/analytical.h"
#include "reliability/montecarlo.h"

using namespace sudoku;
using namespace sudoku::reliability;

int main(int argc, char** argv) {
  bench::Run run(argc, argv);
  const std::uint64_t intervals = 400 * run.args.scale;

  bench::print_header("Ablation: which mechanism buys how much reliability?");
  CacheParams c;
  const double fit_x = sudoku_x_due(c).fit();
  const double fit_y = sudoku_y_due(c).fit();
  const double fit_z_no_sdr = sudoku_z_no_sdr(c).fit();
  const double fit_z_strict = sudoku_z_due(c, SdrModel::kStrict).fit();
  const double fit_z_mech = sudoku_z_due(c).fit();
  std::printf("\n  analytical FIT at the paper's operating point (BER 5.3e-6):\n");
  std::printf("  %-34s %14s\n", "SuDoku-X (ECC-1+CRC+RAID-4)", bench::sci(fit_x).c_str());
  std::printf("  %-34s %14s\n", "SuDoku-Y (+SDR, mechanistic)", bench::sci(fit_y).c_str());
  std::printf("  %-34s %14s   (paper footnote 4: ~4e6)\n", "Z-hashing WITHOUT SDR",
              bench::sci(fit_z_no_sdr).c_str());
  std::printf("  %-34s %14s\n", "SuDoku-Z (+skewed hash, strict)",
              bench::sci(fit_z_strict).c_str());
  std::printf("  %-34s %14s\n", "SuDoku-Z (mechanistic)", bench::sci(fit_z_mech).c_str());

  bench::print_header(
      "Functional Monte-Carlo bake-off (256 KB, 64-line groups, BER 2.5e-4)");
  bench::print_subnote("BER chosen so X saturates, Y fails measurably, Z survives —");
  bench::print_subnote("the orders-of-magnitude ladder in one observable regime.");

  bench::Table rows({{"level", "%-9s", "level"},
                     {"intervals", "%9u", "intervals"},
                     {"", "", "faults_injected"},
                     {"due_lines", "%9u", "due_lines"},
                     {"sdc", "%4u", "sdc_lines"},
                     {"failures", "%8u", "failure_intervals"},
                     {"sdr", "%6u", "sdr_repairs"},
                     {"hash2", "%6u", "hash2_invocations"}});
  for (const auto level : {SudokuLevel::kX, SudokuLevel::kY, SudokuLevel::kZ}) {
    McConfig cfg;
    cfg.cache.num_lines = 1u << 12;
    cfg.cache.group_size = 64;
    cfg.cache.ber = 2.5e-4;
    cfg.level = level;
    cfg.max_intervals = intervals;
    cfg.seed = run.args.seed_or(5);
    const auto r =
        run.mc(cfg, std::string("ablation_features.") + to_string(level));
    rows.row(to_string(level), r.intervals, r.faults_injected, r.due_lines,
             r.sdc_lines, r.failure_intervals, r.sdr_repairs, r.hash2_invocations);
  }
  std::printf("\n  each rung of the ladder cuts failures by orders of magnitude\n");
  std::printf("  (X >> Y >> Z), reproducing the paper's §III->§V progression.\n");

  exp::JsonArray comparison;
  comparison.push(
      bench::paper_row("Z-hashing WITHOUT SDR FIT (footnote 4)", 4e6, fit_z_no_sdr));
  comparison.push(bench::paper_row("SuDoku-Z FIT (strict)", 1.05e-4, fit_z_strict));

  exp::JsonObject analytical;
  analytical.set("fit_x", fit_x)
      .set("fit_y", fit_y)
      .set("fit_z_no_sdr", fit_z_no_sdr)
      .set("fit_z_strict", fit_z_strict)
      .set("fit_z_mechanistic", fit_z_mech);

  exp::JsonObject config;
  config.set("num_lines", std::uint64_t{1u << 12})
      .set("group_size", 64)
      .set("ber", 2.5e-4)
      .set("intervals_per_level", intervals)
      .set("seed", run.args.seed_or(5))
      .set("scale", run.args.scale);
  exp::JsonObject result;
  result.set("analytical", analytical)
      .set("bakeoff", rows.json())
      .set("paper_comparison", comparison);

  run.finish("ablation_features", config, result);
  return 0;
}
