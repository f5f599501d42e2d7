// Reproduces Table X: impact of thermal stability Delta on ECC-6 vs
// SuDoku. BERs are derived from the device model at each Delta; the
// paper's FIT values are printed alongside.
#include <cstdio>

#include "bench_util.h"
#include "reliability/analytical.h"
#include "sttram/device_model.h"

using namespace sudoku;
using namespace sudoku::reliability;

int main(int argc, char** argv) {
  bench::Run run(argc, argv, bench::analytical_options());
  bench::print_header("Table X: Impact of Delta — ECC-6 vs SuDoku");

  struct Row {
    double delta;
    double paper_ecc6;
    double paper_sudoku;
    double paper_strength;
  };
  const Row paper_rows[] = {
      {35, 0.092, 1.05e-4, 874},
      {34, 4.63, 1.15e-2, 402},
      {33, 1240, 8, 155},
  };

  exp::JsonArray comparison;
  bench::Table rows({{"Delta", "%6.0f", "delta"},
                     {"BER(model)", "%10s", "ber_model"},
                     {"ECC-6", "| %10s", "fit_ecc6"},
                     {"paper", "%8s", ""},
                     {"Z (strict)", "| %12s", "fit_z_strict"},
                     {"Z (mech)", "%12s", "fit_z_mechanistic"},
                     {"paper", "%10s", ""},
                     {"strength", "| %9.0fx", "strength_mechanistic"},
                     {"paper", "%8.0fx", ""}});
  for (const auto& r : paper_rows) {
    ThermalParams tp;
    tp.delta_mean = r.delta;
    CacheParams c;
    c.ber = effective_ber(tp, 0.02);
    const double f6 = ecc_k(c, 6).fit();
    const double fz_mech = sudoku_z_due(c).fit();
    rows.row(r.delta, c.ber, f6, r.paper_ecc6, sudoku_z_due(c, SdrModel::kStrict).fit(),
             fz_mech, r.paper_sudoku, f6 / fz_mech, r.paper_strength);
    const std::string label = "Delta=" + bench::fixed(r.delta, 0);
    comparison.push(bench::paper_row(label + " ECC-6 FIT", r.paper_ecc6, f6));
    comparison.push(
        bench::paper_row(label + " SuDoku FIT (mech)", r.paper_sudoku, fz_mech));
    comparison.push(
        bench::paper_row(label + " strength", r.paper_strength, f6 / fz_mech));
  }
  std::printf("\n  'strength' uses the mechanistic model (what the implemented\n");
  std::printf("  controller achieves): SuDoku stays orders of magnitude stronger\n");
  std::printf("  than ECC-6 as Delta shrinks — the Table X claim. The strict\n");
  std::printf("  (static-blocking) bound collapses at Delta 33 because its\n");
  std::printf("  multi-soft-partner term saturates at high BER.\n");

  exp::JsonObject config;
  config.set("scrub_interval_s", 0.02).set("sigma_fraction", 0.1);
  exp::JsonObject result;
  result.set("rows", rows.json()).set("paper_comparison", comparison);

  run.stats.trials = 3;
  run.finish("table10_delta", config, result);
  return 0;
}
