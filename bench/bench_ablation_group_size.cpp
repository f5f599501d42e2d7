// Ablation for §III-D: the RAID-Group size trades off parity storage,
// repair latency, and reliability. Sweeps the group size and prints FIT,
// PLT storage, and the 9 ns-per-read repair latency for each point.
#include <cstdio>

#include "bench_util.h"
#include "reliability/analytical.h"

using namespace sudoku;
using namespace sudoku::reliability;

int main(int argc, char** argv) {
  bench::Run run(argc, argv, bench::analytical_options());
  bench::print_header("Ablation (§III-D): RAID-Group size tradeoff");

  bench::Table rows({{"Group", "%-8u", "group_size"},
                     {"X-FIT", "%12s", "x_fit"},
                     {"Z-FIT(strict)", "%13s", "z_fit_strict"},
                     {"PLT KB/table", "%14.0f", "plt_kb_per_table"},
                     {"PLT bits/line", "%14.2f", "plt_bits_per_line"},
                     {"repair us", "%12.2f", "repair_us"}});
  for (const std::uint32_t g : {64u, 128u, 256u, 512u, 1024u, 2048u}) {
    CacheParams c;
    c.group_size = g;
    rows.row(g, sudoku_x_due(c).fit(), sudoku_z_due(c, SdrModel::kStrict).fit(),
             static_cast<double>(c.num_groups()) * 553 / 8.0 / 1024.0, 553.0 / g,
             g * 9.0 / 1000.0);
  }
  std::printf("\n  the paper picks 512: ~128 KB PLT payload per table, <=16 us repair,\n");
  std::printf("  FIT comfortably below target — this sweep shows both directions of\n");
  std::printf("  the tradeoff (small groups: storage balloons; large: FIT and repair\n");
  std::printf("  latency grow).\n");

  // The paper doesn't tabulate the sweep; its chosen point is the anchor.
  exp::JsonArray comparison;
  comparison.push(bench::paper_row("group=512 PLT KB/table", 128.0,
                                   static_cast<double>(CacheParams().num_groups()) *
                                       553 / 8.0 / 1024.0));
  comparison.push(bench::paper_row("group=512 repair latency (us)", 16.0,
                                   512 * 9.0 / 1000.0));

  exp::JsonObject config;
  CacheParams base;
  config.set("ber", base.ber)
      .set("num_lines", base.num_lines)
      .set("read_latency_ns", 9.0);
  exp::JsonObject result;
  result.set("rows", rows.json()).set("paper_comparison", comparison);

  run.stats.trials = 6;
  run.finish("ablation_group_size", config, result);
  return 0;
}
