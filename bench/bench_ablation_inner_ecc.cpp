// §VII-G ablation: "SuDoku can be enhanced even further by replacing ECC-1
// with ECC-2." Sweeps the inner-code strength and prints the reliability /
// storage tradeoff for the whole SuDoku ladder, at the paper's BER and at
// the degraded Delta=33 operating point where the enhancement matters.
#include <cstdio>

#include "bench_util.h"
#include "reliability/analytical.h"
#include "sttram/device_model.h"

using namespace sudoku;
using namespace sudoku::reliability;

namespace {

exp::JsonArray sweep(double ber, const char* label) {
  bench::print_header(std::string("Inner-ECC sweep at ") + label);
  bench::Table rows({{"inner", "ECC-%-4d", "inner_ecc_t"},
                     {"bits/line", "%10u", "overhead_bits"},
                     {"X FIT", "| %12s", "x_fit"},
                     {"Y FIT", "%12s", "y_fit"},
                     {"Z FIT (strict)", "%14s", "z_fit_strict"},
                     {"Z (mech)", "| %12s", "z_fit_mechanistic"}});
  for (int t = 1; t <= 3; ++t) {
    CacheParams c;
    c.ber = ber;
    c.inner_ecc_t = t;
    rows.row(t, c.sudoku_line_bits() - 512, sudoku_x_due(c).fit(),
             sudoku_y_due(c).fit(), sudoku_z_due(c, SdrModel::kStrict).fit(),
             sudoku_z_due(c).fit());
  }
  return rows.json();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run(argc, argv, bench::analytical_options());

  CacheParams base;
  const auto rows_paper =
      sweep(base.ber, "the paper's operating point (Delta=35, BER 5.3e-6)");

  ThermalParams d33;
  d33.delta_mean = 33.0;
  const double ber33 = effective_ber(d33, 0.02);
  const auto rows_d33 = sweep(ber33, "Delta=33 (scaled-down node)");

  std::printf("\n  takeaway (paper §VII-G): at degraded Delta, swapping the inner\n");
  std::printf("  code from ECC-1 to ECC-2 (+10 bits/line) restores orders of\n");
  std::printf("  magnitude of reliability without touching the RAID machinery.\n");

  exp::JsonObject config;
  config.set("ber_paper", base.ber).set("ber_delta33", ber33);
  exp::JsonObject result;
  result.set("sweep_paper_operating_point", rows_paper)
      .set("sweep_delta33", rows_d33);

  run.stats.trials = 6;
  run.finish("ablation_inner_ecc", config, result);
  return 0;
}
