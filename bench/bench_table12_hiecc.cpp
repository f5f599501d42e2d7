// Reproduces Table XII: SuDoku vs Hi-ECC (ECC-6 over 1 KB regions). Also
// prints the storage-overhead comparison of §VII-H and §VIII-C.
#include <cstdio>

#include "baselines/hiecc_cache.h"
#include "bench_util.h"
#include "reliability/analytical.h"

using namespace sudoku;
using namespace sudoku::reliability;

int main(int argc, char** argv) {
  bench::Run run(argc, argv, bench::analytical_options());
  bench::print_header("Table XII: SuDoku vs Hi-ECC");

  CacheParams c;
  const double fit_sudoku = sudoku_z_due(c, SdrModel::kStrict).fit();
  const double fit_hiecc = hi_ecc(c).fit();
  std::printf("\n  %-24s %14s %12s\n", "Scheme", "FIT (ours)", "paper");
  std::printf("  %-24s %14s %12s\n", "SuDoku-Z (strict)",
              bench::sci(fit_sudoku).c_str(), "1.05e-4");
  std::printf("  %-24s %14s %12s\n", "Hi-ECC (ECC-6/1KB)",
              bench::sci(fit_hiecc).c_str(), "1.47");
  std::printf("\n  note: our Hi-ECC binomial over 8276 bits yields a higher FIT than\n"
              "  the paper's 1.47; both agree Hi-ECC misses the 1-FIT target while\n"
              "  SuDoku beats it by orders of magnitude (the Table XII claim).\n");

  bench::print_header("Storage overhead per 64B line (§VII-H)");
  baselines::HiEccCache hi(1u << 14);
  const double hiecc_bits = hi.overhead_bits_per_line();
  std::printf("  %-24s %10s\n", "Scheme", "bits/line");
  std::printf("  %-24s %10.2f\n", "ECC-6 per line", 60.0);
  std::printf("  %-24s %10.2f   (10 ECC-1 + 31 CRC + 2 PLT amortized)\n",
              "SuDoku-Z", 43.0);
  std::printf("  %-24s %10.2f   (84 bits per 16-line region)\n",
              hi.name().c_str(), hiecc_bits);
  const double storage_saving = (1.0 - 43.0 / 60.0) * 100.0;
  std::printf("\n  SuDoku saves %.0f%% storage vs ECC-6 (paper: ~30%%).\n",
              storage_saving);

  exp::JsonArray comparison;
  comparison.push(bench::paper_row("SuDoku-Z FIT (strict)", 1.05e-4, fit_sudoku));
  comparison.push(bench::paper_row("Hi-ECC FIT", 1.47, fit_hiecc));
  comparison.push(
      bench::paper_row("storage saving vs ECC-6 (%)", 30.0, storage_saving));

  exp::JsonObject config;
  config.set("ber", c.ber).set("num_lines", c.num_lines).set("group_size", c.group_size);
  exp::JsonObject result;
  result.set("fit_sudoku_z_strict", fit_sudoku)
      .set("fit_hi_ecc", fit_hiecc)
      .set("sudoku_bits_per_line", 43.0)
      .set("ecc6_bits_per_line", 60.0)
      .set("hi_ecc_bits_per_line", hiecc_bits)
      .set("storage_saving_pct", storage_saving)
      .set("paper_comparison", comparison);

  run.stats.trials = 2;
  run.finish("table12_hiecc", config, result);
  return 0;
}
