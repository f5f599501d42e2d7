// Reproduces Table II: per-line failure probability, cache failure
// probability per 20 ms, and FIT rate of a 64 MB cache protected with
// ECC-1 .. ECC-6 at BER 5.3e-6.
//
// The ECC-1/ECC-2 rows additionally carry an importance-sampled MC
// cross-check (exp/rare_event): a count-stratified estimator over 64-line
// blocks whose exact answer is closed-form (lines fail independently, so
// P[block] = 1 - (1 - P[line >= k+1 faults])^64), giving an end-to-end
// validation of the likelihood-ratio math at the paper's operating point,
// where the unweighted probability (~2e-7 per block for ECC-2) is far out
// of naive MC reach.
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "common/prob.h"
#include "exp/rare_event.h"
#include "reliability/analytical.h"
#include "sttram/fault_injector.h"

using namespace sudoku;
using namespace sudoku::reliability;

namespace {

// Stratified MC for ECC-k over a block of `block_lines` independent lines:
// an interval fails when any line collects more than k faults. Exact
// answer: 1 - (1 - P[Binomial(line_bits, ber) >= k+1])^block_lines.
exp::RareEventEstimate ecc_block_estimate(int k, std::uint64_t block_lines,
                                          std::uint32_t line_bits, double ber,
                                          std::uint64_t trials,
                                          std::uint64_t seed) {
  exp::StratifyParams params;
  params.total_bits = static_cast<double>(block_lines) * line_bits;
  params.ber = ber;
  params.trials = trials;
  params.min_count = static_cast<std::uint64_t>(k) + 1;  // fewer can't fail
  const auto plan = exp::plan_strata(params);
  FaultInjector injector(block_lines, line_bits, ber);
  return exp::run_stratified(
      plan, seed, [&](std::uint64_t count, Rng& rng) {
        const auto batch = injector.sample_exact(rng, count);
        for (const auto& [line, bits] : batch) {
          if (bits.size() > static_cast<std::size_t>(k)) return true;
        }
        return false;
      });
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run(argc, argv, bench::single_threaded_options());
  bench::print_header(
      "Table II: FIT Rate of 64MB Cache for various ECC, BER 5.3e-6 / 20ms");

  CacheParams c;  // paper defaults
  const double paper_line[] = {3.9e-6, 3.8e-9, 2.9e-12, 1.9e-15, 1e-18, 4.9e-22};
  const double paper_cache[] = {9.8e-1, 4e-3, 3.1e-6, 2e-9, 1.1e-12, 5.1e-16};
  const char* paper_fit[] = {">1e14", "7.2e11", "5.5e8", "3.5e5", "191", "0.092"};

  exp::JsonArray comparison;
  bench::Table rows({{"ECC/line", "ECC-%-4d", "ecc_k"},
                     {"bits", "%5u", "line_bits"},
                     {"P(line-fail)", "%13s", "p_line_fail"},
                     {"paper", "%9s", ""},
                     {"P(cache-fail)", "%13s", "p_cache_fail"},
                     {"paper", "%9s", ""},
                     {"FIT", "%9s", "fit"},
                     {"paper", "%7s", ""}});
  for (int k = 1; k <= 6; ++k) {
    const std::uint32_t bits = 512 + 10u * k;
    const double p_line = std::exp(log_p_line_ge(bits, k + 1, c.ber));
    const auto r = ecc_k(c, k);
    rows.row(k, bits, p_line, paper_line[k - 1], r.p_interval(), paper_cache[k - 1],
             r.fit(), paper_fit[k - 1]);
    const std::string label = "ECC-" + std::to_string(k);
    comparison.push(
        bench::paper_row(label + " P(line-fail)", paper_line[k - 1], p_line));
    comparison.push(
        bench::paper_row(label + " P(cache-fail)", paper_cache[k - 1], r.p_interval()));
    comparison.push(bench::paper_row(label + " FIT", paper_fit[k - 1], r.fit()));
  }
  std::printf("\n  line width per ECC-k = 512 data + 10k check bits (BCH, m=10).\n");

  // ---- stratified-MC cross-check (ECC-1, ECC-2) -------------------------
  const std::uint64_t block_lines = 64;
  const std::uint64_t trials = 20000 * run.args.scale;
  const std::uint64_t seed = run.args.seed_or(43);
  std::printf("\n  Stratified-MC cross-check, %llu-line blocks, %llu trials each:\n",
              static_cast<unsigned long long>(block_lines),
              static_cast<unsigned long long>(trials));
  bench::Table checks({{"ECC", "ECC-%d", "ecc_k"},
                       {"", "", "block_lines"},
                       {"p(block) MC", "%11s", "p_block_mc"},
                       {"ci95", "+- %-9s", "p_block_ci95"},
                       {"exact", "%9s", "p_block_exact"},
                       {"", "", "p_cache_mc"},
                       {"FIT(MC)", "%9s", "fit_mc"},
                       {"", "", "ess"},
                       {"", "", "trials"},
                       {"", "", "excluded_mass"},
                       {"in 95% CI", "%9s", "within_ci95"}});
  run.stats.trials = 6;
  for (int k = 1; k <= 2; ++k) {
    const std::uint32_t bits = 512 + 10u * k;
    const auto est =
        ecc_block_estimate(k, block_lines, bits, c.ber, trials, seed + k);
    const double p_line = std::exp(log_p_line_ge(bits, k + 1, c.ber));
    const double p_block_exact =
        exp::lift_units(p_line, static_cast<double>(block_lines));
    const double n_blocks =
        static_cast<double>(c.num_lines) / static_cast<double>(block_lines);
    const double p_cache_mc = exp::lift_units(est.p_unit, n_blocks);
    checks.row(k, block_lines, est.p_unit, est.ci95_unit(), p_block_exact, p_cache_mc,
               fit_from_interval_prob(p_cache_mc, c.scrub_interval_s), est.ess,
               est.trials, est.excluded_mass,
               std::abs(est.p_unit - p_block_exact) <= est.ci95_unit());
    run.stats.trials += est.trials;
  }

  exp::JsonObject config;
  config.set("ber", c.ber)
      .set("num_lines", c.num_lines)
      .set("scrub_interval_s", c.scrub_interval_s)
      .set("rare_event_trials", trials)
      .set("rare_event_seed", seed);
  exp::JsonObject result;
  result.set("rows", rows.json())
      .set("rare_event_check", checks.json())
      .set("paper_comparison", comparison);

  run.finish("table2_ecc_fit", config, result);
  return 0;
}
