// Cross-validation of the analytical FIT models against the functional
// Monte-Carlo harness (which runs the real controllers) in an accelerated
// BER regime where failures are observable. This is the evidence that the
// analytical numbers used at the paper's operating point describe the
// implemented algorithms. (At BER 5.3e-6, SuDoku-Y fails about once per
// hundred simulated hours and SuDoku-Z effectively never — direct MC at
// the operating point is computationally meaningless, which is why the
// paper itself uses analytical models, §VII-A.)
//
// Runs on the src/exp engine: trials shard across the engine's threads
// with per-trial seed streams, so DUE/SDC counts are bit-identical for any
// --threads value, and an artifact with the merged results + throughput is
// written under bench/out/. With --checkpoint=DIR the run is resumable
// after SIGINT/SIGTERM (exit 75); a --resume replays finished shards and
// produces the same artifact bytes outside the "throughput" section.
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "reliability/analytical.h"
#include "reliability/montecarlo.h"

using namespace sudoku;
using namespace sudoku::reliability;

namespace {

struct Case {
  SudokuLevel level;
  double ber;
  std::uint64_t intervals;
};

void validate(const Case& c, bench::Run& run, bench::Table& rows) {
  McConfig cfg;
  cfg.cache.num_lines = 1u << 12;
  cfg.cache.group_size = 64;
  cfg.cache.ber = c.ber;
  cfg.level = c.level;
  cfg.max_intervals = c.intervals;
  cfg.seed = run.args.seed_or(99);
  const auto mc = run.mc(cfg, "mc_validation");

  FitResult an{};
  switch (c.level) {
    case SudokuLevel::kX: an = sudoku_x_due(cfg.cache); break;
    case SudokuLevel::kY: an = sudoku_y_due(cfg.cache); break;
    case SudokuLevel::kZ: an = sudoku_z_due(cfg.cache); break;
  }
  // Wall-clock rates stay on the console only: the artifact's result rows
  // must be byte-identical across reruns and checkpoint resumes.
  rows.row(to_string(c.level), c.ber, mc.intervals, mc.faults_injected, mc.due_lines,
           mc.sdc_lines, mc.failure_intervals, mc.p_failure_per_interval(),
           an.p_interval(), run.last.trials_per_second());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run(argc, argv);
  const std::uint64_t scale = run.args.scale;
  const Case cases[] = {
      {SudokuLevel::kX, 1e-4, 800 * scale},
      {SudokuLevel::kX, 2e-4, 400 * scale},
      {SudokuLevel::kY, 1.5e-4, 2500 * scale},
      {SudokuLevel::kY, 2.5e-4, 500 * scale},
      {SudokuLevel::kZ, 3.5e-4, 300 * scale},
  };

  bench::print_header("Monte-Carlo vs analytical (256 KB cache, 64-line groups)");
  bench::Table rows({{"level", "%-9s", "level"},
                     {"ber", "%8s", "ber"},
                     {"intervals", "%9u", "intervals"},
                     {"", "", "faults_injected"},
                     {"due", "%6u", "due_lines"},
                     {"sdc", "%4u", "sdc_lines"},
                     {"events", "%6u", "failure_intervals"},
                     {"MC p/interval", "%13s", "mc_p_interval"},
                     {"analytical", "%10s", "analytical_p_interval"},
                     {"trials/s", "%9s", ""}});

  std::printf("\n  SuDoku-X (failures ~ groups with two 2-fault lines):\n");
  validate(cases[0], run, rows);
  validate(cases[1], run, rows);

  std::printf("\n  SuDoku-Y (failures need 3+3-fault pairs / full overlaps):\n");
  validate(cases[2], run, rows);
  validate(cases[3], run, rows);

  std::printf("\n  SuDoku-Z (failures need hard 4-cycles; at the Y-failure BER the\n");
  std::printf("  MC should show far fewer events than Y):\n");
  validate(cases[4], run, rows);

  std::printf("\n  The analytical models capture the leading-order failure modes;\n");
  std::printf("  MC includes every higher-order interaction, so modest (<2x)\n");
  std::printf("  deviations are expected. SDC must be 0 in all runs.\n");

  // ---- rare-event estimator vs unweighted MC ----------------------------
  // Same system both ways (SuDoku-X, one 64-line group, BER 1e-4, where
  // unweighted events are still observable), same trial budget: the
  // count-stratified estimate must agree with the unweighted rate within
  // joint 95% confidence, and its variance must be far smaller.
  std::printf("\n  Rare-event estimator vs unweighted MC (SuDoku-X group, BER 1e-4):\n");
  McConfig gcfg;
  gcfg.cache.num_lines = 64;
  gcfg.cache.group_size = 64;
  gcfg.cache.ber = 1e-4;
  gcfg.level = SudokuLevel::kX;
  gcfg.max_intervals = 20000 * scale;
  gcfg.seed = run.args.seed_or(99);
  const auto unweighted = run.mc(gcfg, "mc_validation.rare_unweighted");

  exp::RareEventConfig recfg;
  recfg.base = reliability::kernel_config(gcfg);
  recfg.trials = 20000 * scale;
  recfg.min_count = 4;  // X needs two 2-fault lines — k < 4 cannot fail
  const auto est = run.rare([&gcfg] { return reliability::make_scheme(gcfg); }, recfg,
                            "mc_validation.rare_is");

  const double p_mc = unweighted.p_failure_per_interval();
  const double var_mc =
      p_mc * (1.0 - p_mc) / static_cast<double>(unweighted.intervals);
  const double joint_ci95 = 1.96 * std::sqrt(est.var_unit + var_mc);
  const bool agrees = std::abs(est.p_unit - p_mc) <= joint_ci95;
  std::printf("    unweighted  p=%-10s (%llu events / %llu trials)\n",
              bench::sci(p_mc).c_str(),
              static_cast<unsigned long long>(unweighted.failure_intervals),
              static_cast<unsigned long long>(unweighted.intervals));
  std::printf("    stratified  p=%-10s +- %s  ess=%s from %llu trials  %s\n",
              bench::sci(est.p_unit).c_str(), bench::sci(est.ci95_unit()).c_str(),
              bench::sci(est.ess).c_str(),
              static_cast<unsigned long long>(est.trials),
              agrees ? "[within joint 95% CI]" : "[OUTSIDE joint 95% CI]");

  exp::JsonObject agreement;
  agreement.set("level", "X")
      .set("ber", gcfg.cache.ber)
      .set("group_lines", std::uint64_t{64})
      .set("p_unweighted", p_mc)
      .set("unweighted_trials", unweighted.intervals)
      .set("unweighted_failures", unweighted.failure_intervals)
      .set("p_stratified", est.p_unit)
      .set("stratified_ci95", est.ci95_unit())
      .set("stratified_trials", est.trials)
      .set("ess", est.ess)
      .set("joint_ci95", joint_ci95)
      .set("within_joint_ci95", agrees);

  exp::JsonObject config;
  config.set("num_lines", std::uint64_t{1u << 12})
      .set("group_size", 64)
      .set("seed", run.args.seed_or(99))
      .set("scale", scale);
  exp::JsonObject result;
  result.set("cases", rows.json()).set("rare_event_agreement", agreement);

  run.finish("montecarlo_validation", config, result);
  return 0;
}
