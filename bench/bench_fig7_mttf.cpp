// Reproduces Figure 7: cache failure probability (DUE+SDC) over time for
// SuDoku-X, SuDoku-Y, SuDoku-Z and ECC-6. Prints each scheme's MTTF and
// the failure-probability series P(t) = 1 - exp(-t/MTTF) at the figure's
// decade points.
//
// On top of the analytical models, an importance-sampled Monte-Carlo
// section (exp/rare_event) measures SuDoku-X *at the paper's operating
// point* (BER 5.3e-6) with the functional controller — an event around
// 5e-8 per group-interval that unweighted MC cannot reach (~1e9 trials
// per observed failure). The estimator runs at group scale, where the
// conditional failure given the fault count is observable, and lifts to
// the cache through independent-group composition — exactly how the
// analytical models compose (log_cache_of_units).
#include <cmath>
#include <cstdio>
#include <iterator>
#include <vector>

#include "bench_util.h"
#include "common/prob.h"
#include "exp/rare_event.h"
#include "reliability/analytical.h"
#include "reliability/montecarlo.h"

using namespace sudoku;
using namespace sudoku::reliability;

int main(int argc, char** argv) {
  bench::Run run(argc, argv);
  bench::print_header("Figure 7: Cache failure probability vs time (DUE+SDC)");

  CacheParams c;
  struct Row {
    const char* name;
    double mttf_h;
    const char* paper;
  };
  const Row rows[] = {
      {"SuDoku-X", sudoku_total(c, 'X').mttf_hours(), "3.71 s"},
      {"SuDoku-Y (strict)", sudoku_y_due(c, SdrModel::kStrict).mttf_hours(),
       "3.49-3.9 h"},
      {"SuDoku-Y (mechanistic)", sudoku_total(c, 'Y').mttf_hours(), "3.49-3.9 h"},
      {"ECC-6", ecc_k(c, 6).mttf_seconds() / 3600.0, "~9.4e9 h (0.092 FIT)"},
      {"SuDoku-Z (strict)", sudoku_z_due(c, SdrModel::kStrict).mttf_hours(),
       "8.25e12 h"},
      {"SuDoku-Z (mechanistic)", sudoku_total(c, 'Z').mttf_hours(), "8.25e12 h"},
  };

  bench::Table schemes({{"Scheme", "%-24s", "scheme"},
                        {"MTTF (ours)", "%13s h", "mttf_hours"},
                        {"paper", "%22s", "paper"}});
  std::vector<exp::JsonObject*> scheme_rows;
  for (const auto& r : rows) scheme_rows.push_back(&schemes.row(r.name, r.mttf_h, r.paper));

  std::printf("\n  Failure probability series P(t) = 1 - exp(-t/MTTF):");
  const double times_h[] = {1.0 / 3600, 1.0, 24.0, 720.0, 8760.0, 8.76e7};
  bench::Table series_table({{"t", "%-24s", ""},
                             {"1s", "%10s", ""},
                             {"1h", "%10s", ""},
                             {"1d", "%10s", ""},
                             {"1mo", "%10s", ""},
                             {"1yr", "%10s", ""},
                             {"1e4yr", "%10s", ""}});
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    double p[std::size(times_h)];
    exp::JsonArray series;
    for (std::size_t t = 0; t < std::size(times_h); ++t) {
      p[t] = -std::expm1(-times_h[t] / rows[i].mttf_h);
      exp::JsonObject point;
      point.set("t_hours", times_h[t]).set("p_fail", p[t]);
      series.push(point);
    }
    series_table.row(rows[i].name, p[0], p[1], p[2], p[3], p[4], p[5]);
    scheme_rows[i]->set("series", series);
  }

  const double ratio =
      ecc_k(c, 6).fit() / sudoku_z_due(c, SdrModel::kStrict).fit();
  std::printf("\n  SuDoku-Z (strict) vs ECC-6 reliability ratio: %.0fx (paper: 874x)\n",
              ratio);
  const double ratio_mech = ecc_k(c, 6).fit() / sudoku_z_due(c).fit();
  std::printf("  SuDoku-Z (mechanistic, what our controller implements): %sx\n",
              bench::sci(ratio_mech).c_str());

  // ---- rare-event MC at the operating point (functional controller) ----
  // Unit: one 64-line RAID group (the smallest geometry the controller
  // supports at group_size 64). The analytical reference is the same
  // cache re-grouped to 64-line groups, so both sides describe the same
  // system and only the estimator itself is under test.
  const std::uint64_t group_lines = 64;
  const double lifted_groups =
      static_cast<double>(c.num_lines) / static_cast<double>(group_lines);

  reliability::McConfig group;
  group.cache.num_lines = group_lines;
  group.cache.group_size = static_cast<std::uint32_t>(group_lines);
  group.level = SudokuLevel::kX;
  exp::RareEventConfig recfg;
  recfg.base.ber = c.ber;  // the operating point — no acceleration
  recfg.base.seed = run.args.seed_or(41);
  recfg.trials = 20000 * run.args.scale;
  // SuDoku-X cannot fail with fewer than 4 faults: a DUE needs >= 2 lines
  // carrying >= 2 faults each (RAID-4 repairs a single multi-fault line),
  // and an SDC miscorrection needs 7 faults in one line. Excluding the
  // provably failure-free k=2,3 strata exactly removes their (large-pmf,
  // zero-failure) variance contribution.
  recfg.min_count = 4;

  const auto est = run.rare([&group] { return reliability::make_scheme(group); }, recfg,
                            "fig7_rare_event");

  CacheParams cg = c;
  cg.num_lines = group_lines;
  cg.group_size = static_cast<std::uint32_t>(group_lines);
  const double p_group_analytic = sudoku_x_due(cg).p_interval();
  CacheParams c64 = c;
  c64.group_size = static_cast<std::uint32_t>(group_lines);
  const double mttf_h_analytic = sudoku_x_due(c64).mttf_hours();

  const double p_cache = exp::lift_units(est.p_unit, lifted_groups);
  const double var_cache =
      exp::lift_units_variance(est.p_unit, est.var_unit, lifted_groups);
  const double mttf_h_mc =
      mttf_seconds(p_cache, c.scrub_interval_s) / 3600.0;

  std::printf("\n  Rare-event MC, SuDoku-X DUE at BER %s (64-line groups):\n",
              bench::sci(c.ber).c_str());
  std::printf("    p(group fails/interval)  MC %s +- %s   analytical %s\n",
              bench::sci(est.p_unit).c_str(), bench::sci(est.ci95_unit()).c_str(),
              bench::sci(p_group_analytic).c_str());
  std::printf("    cache MTTF               MC %s h        analytical %s h\n",
              bench::sci(mttf_h_mc).c_str(), bench::sci(mttf_h_analytic).c_str());
  std::printf("    %llu conditional trials -> effective sample size %s "
              "(unweighted-MC-trial equivalent)\n",
              static_cast<unsigned long long>(est.trials),
              bench::sci(est.ess).c_str());

  exp::JsonArray strata;
  for (const auto& s : est.strata) {
    exp::JsonObject o;
    o.set("count", s.stratum.count)
        .set("trials", s.intervals)
        .set("failures", s.failures)
        .set("pmf_base", std::exp(s.stratum.log_pmf_base));
    strata.push(o);
  }
  exp::JsonObject rare;
  rare.set("level", "X")
      .set("ber", recfg.base.ber)
      .set("group_lines", group_lines)
      .set("lifted_groups", lifted_groups)
      .set("p_group_mc", est.p_unit)
      .set("p_group_ci95", est.ci95_unit())
      .set("p_group_analytic", p_group_analytic)
      .set("p_cache_mc", p_cache)
      .set("p_cache_ci95", 1.96 * std::sqrt(var_cache))
      .set("mttf_hours_mc", mttf_h_mc)
      .set("mttf_hours_analytic", mttf_h_analytic)
      .set("ess", est.ess)
      .set("trials", est.trials)
      .set("excluded_mass", est.excluded_mass)
      .set("strata", strata);

  exp::JsonArray comparison;
  comparison.push(
      bench::paper_row("SuDoku-X MTTF (s)", 3.71, rows[0].mttf_h * 3600.0));
  comparison.push(
      bench::paper_row("SuDoku-Y MTTF (h)", "3.49-3.9", rows[2].mttf_h));
  comparison.push(
      bench::paper_row("SuDoku-Z MTTF (h)", 8.25e12, rows[4].mttf_h));
  comparison.push(bench::paper_row("Z (strict) vs ECC-6 ratio", 874.0, ratio));

  exp::JsonObject config;
  config.set("ber", c.ber)
      .set("num_lines", c.num_lines)
      .set("group_size", c.group_size)
      .set("rare_event_trials", recfg.trials)
      .set("rare_event_seed", recfg.base.seed);
  exp::JsonObject result;
  result.set("schemes", schemes.json())
      .set("z_strict_vs_ecc6_ratio", ratio)
      .set("z_mechanistic_vs_ecc6_ratio", ratio_mech)
      .set("rare_event", rare)
      .set("paper_comparison", comparison);

  run.finish("fig7_mttf", config, result);
  return 0;
}
