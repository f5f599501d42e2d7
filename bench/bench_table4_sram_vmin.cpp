// Reproduces Table IV: probability of SRAM cache failure at low Vmin
// (per-cell failure probability 1e-3), for uniform ECC-7/8/9 and SuDoku.
// The ECC rows follow the paper's accounting exactly (binomial over the
// 512-bit dataword). The paper's SuDoku row (3.8e-10) is not derivable
// from the transient-fault machinery — at BER 1e-3 a 512-line RAID-Group
// holds ~46 multi-bit lines — so we print the paper's value alongside what
// each of our models actually yields, and flag the discrepancy (see
// EXPERIMENTS.md: Vmin faults are *permanent and locatable*, which changes
// the repair model entirely).
#include <cstdio>

#include "bench_util.h"
#include "reliability/analytical.h"

using namespace sudoku;
using namespace sudoku::reliability;

int main(int argc, char** argv) {
  bench::Run run(argc, argv, bench::analytical_options());
  bench::print_header("Table IV: Probability of SRAM Cache Failure (BER = 1e-3, Vmin < 500mV)");

  CacheParams c;
  c.ber = 1e-3;

  const double paper[] = {0.11, 0.0066, 3.5e-4};
  exp::JsonArray comparison;
  bench::Table rows({{"Scheme", "ECC-%-6d", "ecc_k"},
                     {"P(cache fail)", "%16s", "p_cache_fail"},
                     {"paper", "%12s", ""}});
  for (int k = 7; k <= 9; ++k) {
    const double p = sram_vmin_cache_failure_ecc(c, k);
    rows.row(k, p, paper[k - 7]);
    comparison.push(bench::paper_row("ECC-" + std::to_string(k) + " P(cache fail)",
                                     paper[k - 7], p));
  }
  std::printf("  %-10s %16s %12s\n", "SuDoku", "(see below)", "3.8e-10");

  const double sudoku_transient = sudoku_z_due(c).p_interval();
  std::printf(
      "\n  SuDoku at BER 1e-3 under the *transient* model (our Z machinery,\n"
      "  512-line groups): P ~= %s -- the groups saturate with multi-bit\n"
      "  lines, so the paper's 3.8e-10 must assume the permanent-fault\n"
      "  regime where positions are known from boot-time test/parity and\n"
      "  repair degenerates to erasure decoding. With known positions a\n"
      "  line is repairable for any fault count and failure needs two\n"
      "  heavily-overlapping lines; the paper gives no formula for this.\n",
      bench::sci(sudoku_transient).c_str());
  std::printf(
      "  Qualitative claim preserved: SuDoku's detection(CRC)+parity repair\n"
      "  avoids both uniform ECC-8 storage and runtime Vmin testing.\n");
  comparison.push(bench::paper_row("SuDoku P(cache fail), transient model vs paper",
                                   3.8e-10, sudoku_transient));

  exp::JsonObject config;
  config.set("ber", c.ber).set("num_lines", c.num_lines).set("group_size", c.group_size);
  exp::JsonObject result;
  result.set("rows", rows.json())
      .set("sudoku_transient_model_p", sudoku_transient)
      .set("paper_comparison", comparison);

  run.stats.trials = 3;
  run.finish("table4_sram_vmin", config, result);
  return 0;
}
