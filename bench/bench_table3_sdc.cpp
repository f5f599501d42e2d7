// Reproduces Table III: SDC rates of a cache with SuDoku-X. Prints the
// paper-style accounting (its "191 events" equals the >=6-fault rate, i.e.
// the ECC-5 row of Table II) alongside the mechanistic exactly-7 / 8+
// split, both scaled by CRC-31's 2^-31 misdetection probability.
//
// The analytical rows are backed by a functional check on the src/exp
// engine: an accelerated-BER Monte-Carlo run of the real SuDoku-X
// controller whose golden-comparison SDC count must be zero — CRC-31
// catches every miscorrection the trial ever produces. Results and
// throughput land in a bench/out JSON artifact. Supports --checkpoint /
// --resume like every engine-backed bench (see docs/robustness.md).
#include <cstdio>

#include "bench_util.h"
#include "reliability/analytical.h"
#include "reliability/montecarlo.h"

using namespace sudoku;
using namespace sudoku::reliability;

int main(int argc, char** argv) {
  bench::Run run(argc, argv);
  bench::print_header("Table III: SDC Rates of Cache with SuDoku-X");

  CacheParams c;
  const auto sdc = sudoku_sdc(c);

  std::printf("\n  %-42s %14s %14s\n", "Vulnerability", "7 Faults/Line", "8+ Faults/Line");
  std::printf("  %-42s %14s %14s\n", "Event rate, mechanistic (per 1e9 h)",
              bench::sci(sdc.fit_seven_fault_events).c_str(),
              bench::sci(sdc.fit_eight_plus_events).c_str());
  std::printf("  %-42s %14s %14s\n", "Event rate, paper-style >=6 (per 1e9 h)",
              bench::sci(sdc.fit_six_plus_events).c_str(), "-");
  std::printf("  %-42s %14s %14s\n", "CRC-31 misdetection probability", "2^-31", "2^-31");
  std::printf("\n  SDC FIT, mechanistic : %s\n", bench::sci(sdc.sdc_fit).c_str());
  std::printf("  SDC FIT, paper-style : %s   (paper prints 8.9e-9; its own rows\n",
              bench::sci(sdc.sdc_fit_paper_style).c_str());
  std::printf("                                multiply to 8.9e-8 -- either value is\n");
  std::printf("                                orders of magnitude below the 1-FIT target)\n");

  const auto x = sudoku_x_due(c);
  std::printf("\n  SuDoku-X DUE: one uncorrectable line every %.2f s (paper: 3.71 s)\n",
              x.mttf_seconds());

  // Functional SDC check at accelerated BER: thousands of multi-fault
  // lines flow through the real correction machinery; golden comparison
  // must find zero silent corruptions.
  McConfig mcfg;
  mcfg.cache.num_lines = 1u << 12;
  mcfg.cache.group_size = 64;
  mcfg.cache.ber = 2e-4;
  mcfg.level = SudokuLevel::kX;
  mcfg.max_intervals = 600 * run.args.scale;
  mcfg.seed = run.args.seed_or(17);

  const auto mc = run.mc(mcfg, "table3_sdc");
  std::printf(
      "\n  Functional check (BER %s, %llu intervals): due_lines=%llu sdc_lines=%llu"
      "  %s\n",
      bench::sci(mcfg.cache.ber).c_str(),
      static_cast<unsigned long long>(mc.intervals),
      static_cast<unsigned long long>(mc.due_lines),
      static_cast<unsigned long long>(mc.sdc_lines),
      mc.sdc_lines == 0 ? "[no silent corruption]" : "[SDC OBSERVED]");

  exp::JsonObject config;
  config.set("ber", mcfg.cache.ber)
      .set("num_lines", mcfg.cache.num_lines)
      .set("group_size", 64)
      .set("max_intervals", mcfg.max_intervals)
      .set("seed", mcfg.seed);
  exp::JsonObject result;
  result.set("sdc_fit_mechanistic", sdc.sdc_fit)
      .set("sdc_fit_paper_style", sdc.sdc_fit_paper_style)
      .set("due_mttf_seconds", x.mttf_seconds())
      .set("mc_intervals", mc.intervals)
      .set("mc_due_lines", mc.due_lines)
      .set("mc_sdc_lines", mc.sdc_lines);

  run.finish("table3_sdc", config, result);
  return mc.sdc_lines == 0 ? 0 : 1;
}
