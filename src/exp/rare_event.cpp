#include "exp/rare_event.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/prob.h"

namespace sudoku::exp {

namespace {

// Distinct stream index for each stratum's base seed, far from the trial
// indices (which start at 0) and from kFormatStream (~0ull).
constexpr std::uint64_t kRareStreamBase = 0x7261726556ull;  // "rareV"

double resolve_tilted_ber(const StratifyParams& params) {
  if (params.tilted_ber > 0.0) return params.tilted_ber;
  const double lambda = params.total_bits * params.ber;
  const double tilted_mean = lambda + std::max(6.0, 2.0 * std::sqrt(lambda));
  return std::min(1.0, tilted_mean / params.total_bits);
}

}  // namespace

StratifyParams RareEventConfig::stratify(std::uint64_t total_bits) const {
  StratifyParams p;
  p.total_bits = static_cast<double>(total_bits);
  p.ber = base.ber;
  p.trials = trials;
  p.tilted_ber = tilted_ber;
  p.min_count = min_count;
  p.support_epsilon = support_epsilon;
  p.min_stratum_trials = min_stratum_trials;
  return p;
}

RareEventPlan plan_strata(const StratifyParams& params) {
  if (params.total_bits <= 0 || params.ber <= 0.0 || params.ber >= 1.0) {
    throw std::runtime_error("rare_event: need total_bits > 0 and ber in (0,1)");
  }
  RareEventPlan plan;
  plan.total_bits = static_cast<std::uint64_t>(params.total_bits);
  plan.tilted_ber = resolve_tilted_ber(params);

  // Support: every count >= min_count where either distribution still has
  // mass. Both pmfs are unimodal, so stop once past both means with both
  // below the cut.
  const double base_mean = params.total_bits * params.ber;
  const double tilted_mean = params.total_bits * plan.tilted_ber;
  const double past_means = std::max(base_mean, tilted_mean);
  double weight_sum = 0.0;
  std::vector<double> weights;
  for (std::uint64_t k = params.min_count;
       k <= static_cast<std::uint64_t>(params.total_bits); ++k) {
    const double kd = static_cast<double>(k);
    const double lp_base = log_binom_pmf(params.total_bits, kd, params.ber);
    const double lp_tilted = log_binom_pmf(params.total_bits, kd, plan.tilted_ber);
    const double w = std::exp(std::max(lp_base, lp_tilted));
    if (w < params.support_epsilon) {
      if (kd > past_means) break;  // tail truncation — accounted below
      continue;                    // gap below the modes (possible when min_count
                                   // sits under a high tilt); keep scanning
    }
    RareStratum s;
    s.count = k;
    s.log_pmf_base = lp_base;
    s.log_pmf_tilted = lp_tilted;
    plan.strata.push_back(s);
    // Allocation weight: geometric mean of the two pmfs. Neyman-optimal
    // allocation is pmf_base(k)*sqrt(pi_k(1-pi_k)) with pi_k unknown a
    // priori; since pi_k grows with k while pmf_base decays factorially,
    // the geometric mean splits the difference — most trials go to the
    // low counts that dominate the estimate, a decaying share follows the
    // tilted support so a surprise heavy tail would still be seen. A bad
    // split costs variance only, never bias (the per-stratum weights stay
    // the exact base pmf).
    const double wa = std::exp(0.5 * (lp_base + lp_tilted));
    weights.push_back(wa);
    weight_sum += wa;
  }
  if (plan.strata.empty()) {
    throw std::runtime_error(
        "rare_event: empty stratum support — support_epsilon too high or "
        "min_count past both distributions");
  }

  // Largest-remainder allocation proportional to the union weight, then a
  // floor so every kept stratum's pi_k is actually estimable. The floor
  // may push the total slightly over `trials`; determinism matters more
  // than hitting the budget exactly.
  std::uint64_t assigned = 0;
  std::vector<std::pair<double, std::size_t>> fractional;
  for (std::size_t i = 0; i < plan.strata.size(); ++i) {
    const double raw =
        static_cast<double>(params.trials) * (weights[i] / weight_sum);
    const auto whole = static_cast<std::uint64_t>(raw);
    plan.strata[i].trials = whole;
    assigned += whole;
    fractional.emplace_back(raw - static_cast<double>(whole), i);
  }
  std::sort(fractional.begin(), fractional.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;  // deterministic tie-break: low count
            });
  for (std::size_t j = 0; assigned < params.trials; ++j) {
    ++plan.strata[fractional[j % fractional.size()].second].trials;
    ++assigned;
  }
  for (auto& s : plan.strata) {
    s.trials = std::max(s.trials, params.min_stratum_trials);
  }

  // Truncation accounting: base mass at or above min_count not covered by
  // a stratum. Linear domain is safe — every term here is >= the pmf cut
  // or a tail already small enough that underflow means "zero bias".
  double covered = 0.0;
  for (const auto& s : plan.strata) covered += std::exp(s.log_pmf_base);
  const double tail_ge_min = std::exp(log_binom_tail_ge(
      params.total_bits, static_cast<double>(params.min_count), params.ber));
  plan.excluded_mass = std::max(0.0, tail_ge_min - covered);
  return plan;
}

double RareEventEstimate::ci95_unit() const { return 1.96 * std::sqrt(var_unit); }

RareEventEstimate combine_strata(const RareEventPlan& plan,
                                 const std::vector<RareStratumResult>& results) {
  RareEventEstimate est;
  est.excluded_mass = plan.excluded_mass;
  est.strata = results;
  for (const auto& r : results) {
    if (r.intervals == 0) continue;
    const double n = static_cast<double>(r.intervals);
    const double pmf = std::exp(r.stratum.log_pmf_base);
    const double pi_hat = static_cast<double>(r.failures) / n;
    est.p_unit += pmf * pi_hat;
    // Agresti-Coull smoothing for the variance only: an all-success or
    // all-failure stratum still reports nonzero uncertainty instead of a
    // spuriously exact pi_k.
    const double pi_tilde = (static_cast<double>(r.failures) + 1.0) / (n + 2.0);
    est.var_unit += pmf * pmf * pi_tilde * (1.0 - pi_tilde) / n;
    est.trials += r.intervals;
  }
  if (est.var_unit > 0.0) {
    est.ess = est.p_unit * (1.0 - est.p_unit) / est.var_unit;
  }
  return est;
}

RareEventEstimate run_stratified(
    const RareEventPlan& plan, std::uint64_t seed,
    const std::function<bool(std::uint64_t count, Rng& rng)>& trial) {
  std::vector<RareStratumResult> results;
  results.reserve(plan.strata.size());
  for (const auto& stratum : plan.strata) {
    Rng rng(Rng::derive_stream_seed(seed, kRareStreamBase + stratum.count));
    RareStratumResult out;
    out.stratum = stratum;
    for (std::uint64_t t = 0; t < stratum.trials; ++t) {
      ++out.intervals;
      if (trial(stratum.count, rng)) ++out.failures;
    }
    results.push_back(out);
  }
  return combine_strata(plan, results);
}

RareEventEstimate run_rare_event(const SchemeFactory& factory,
                                 const RareEventConfig& config,
                                 const ExpOptions& options, RunStats* stats) {
  const std::unique_ptr<baselines::CacheScheme> probe = factory();
  const RareEventPlan plan =
      plan_strata(config.stratify(probe->num_units() * probe->bits_per_unit()));
  std::vector<RareStratumResult> results;
  results.reserve(plan.strata.size());
  for (const auto& stratum : plan.strata) {
    baselines::BaselineMcConfig mc = config.base;
    mc.fixed_fault_count = static_cast<std::int64_t>(stratum.count);
    mc.max_intervals = stratum.trials;
    mc.target_failures = 0;  // every stratum runs its full allocation
    // Independent randomness per stratum; trial streams then derive from
    // this per-stratum base inside the engine.
    mc.seed = Rng::derive_stream_seed(config.base.seed,
                                      kRareStreamBase + stratum.count);
    RunStats stratum_stats;
    const baselines::BaselineMcResult r =
        run_baseline_mc_parallel(factory, mc, options, &stratum_stats);
    if (stats) {
      stats->trials += stratum_stats.trials;
      stats->wall_seconds += stratum_stats.wall_seconds;
      stats->threads = stratum_stats.threads;
      stats->shards += stratum_stats.shards;
    }
    RareStratumResult out;
    out.stratum = stratum;
    out.intervals = r.intervals;
    out.failures = r.failure_intervals;
    results.push_back(out);
  }
  return combine_strata(plan, results);
}

double lift_units(double p_unit, double n_units) {
  if (p_unit <= 0.0) return 0.0;
  if (p_unit >= 1.0) return 1.0;
  return -std::expm1(n_units * std::log1p(-p_unit));
}

double lift_units_variance(double p_unit, double var_unit, double n_units) {
  if (p_unit <= 0.0 || p_unit >= 1.0) return 0.0;
  const double slope = n_units * std::pow(1.0 - p_unit, n_units - 1.0);
  return slope * slope * var_unit;
}

}  // namespace sudoku::exp
