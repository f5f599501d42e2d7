// Reproduces Table I: thermal stability vs bit-error rate over a 20 ms
// scrub interval, for Delta = 60 (32 nm) and Delta = 35 (22 nm) at
// sigma = 10%. Also prints the §I headline numbers (18-day cell MTTF at
// Delta 35; ~1 hour population-average failure time; expected faulty bits
// in a 64 MB cache per interval).
#include <cstdio>

#include "bench_util.h"
#include "sttram/device_model.h"

using namespace sudoku;

int main(int argc, char** argv) {
  bench::Run run(argc, argv, bench::analytical_options());
  bench::print_header("Table I: Thermal Stability vs Error Rate (20ms period)");
  bench::print_subnote("paper: Delta=60 -> 2.7e-12, Delta=35 -> 5.3e-6 (recomputed from [5])");

  const double paper_ber[] = {2.7e-12, 5.3e-6};
  exp::JsonArray comparison;
  bench::Table rows({{"Mean thermal stability", "%22.0f", "delta_mean"},
                     {"BER p_cell (20ms, sigma=10%)", "%28s", "ber_20ms"},
                     {"paper", "%12s", "paper_ber"}});
  int i = 0;
  for (const double delta : {60.0, 35.0}) {
    ThermalParams p;
    p.delta_mean = delta;
    const double ber = effective_ber(p, 0.02);
    rows.row(delta, ber, paper_ber[i]);
    comparison.push(bench::paper_row("BER at Delta=" + bench::fixed(delta, 0),
                                     paper_ber[i], ber));
    ++i;
  }

  bench::print_header("Section I headline numbers");
  ThermalParams p35;
  const double mttf_days = mttf_cell_at_mean_delta(p35) / 86400.0;
  std::printf("  cell MTTF at Delta=35 (no variation): %.1f days   (paper: ~18 days)\n",
              mttf_days);
  const double pop_avg_hours = 1.0 / mean_flip_rate(p35) / 3600.0;
  std::printf("  population-average cell failure time: %.2f hours  (paper: ~1 hour)\n",
              pop_avg_hours);
  const double ber = effective_ber(p35, 0.02);
  const double bits = (64.0 * 1024 * 1024 / 64) * 512;
  const double faulty_bits = ber * bits;
  std::printf("  expected faulty bits in 64MB / 20ms:  %.0f        (paper: 2880)\n",
              faulty_bits);
  std::printf("  corresponding BER:                    %s    (paper: 5.3e-6)\n",
              bench::sci(ber).c_str());

  std::printf("\n  note: the paper's BERs are recomputed from Naeimi et al. figures;\n"
              "  our Eq.1 + Gauss-Hermite integration over Delta~N(mu,0.1mu) lands\n"
              "  within the same order of magnitude (see EXPERIMENTS.md).\n");

  comparison.push(bench::paper_row("cell MTTF at Delta=35 (days)", 18.0, mttf_days));
  comparison.push(
      bench::paper_row("population-average failure time (hours)", 1.0, pop_avg_hours));
  comparison.push(bench::paper_row("faulty bits in 64MB per 20ms", 2880.0, faulty_bits));

  exp::JsonObject config;
  config.set("scrub_interval_s", 0.02).set("sigma_fraction", 0.1);
  exp::JsonObject result;
  result.set("rows", rows.json())
      .set("mttf_cell_delta35_days", mttf_days)
      .set("population_average_failure_hours", pop_avg_hours)
      .set("faulty_bits_64mb_per_interval", faulty_bits)
      .set("paper_comparison", comparison);

  run.stats.trials = 2;
  run.finish("table1_ber", config, result);
  return 0;
}
