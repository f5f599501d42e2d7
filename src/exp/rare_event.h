// Importance-sampled rare-event Monte Carlo over any CacheScheme.
//
// The paper's headline numbers are tail probabilities: at the operating
// point (BER 5.3e-6, 20 ms scrub) a SuDoku-X RAID group fails with
// probability ~5e-8 per interval, so unweighted MC needs ~1e9 trials per
// observed event. The fix is count stratification. An interval's fault
// field is i.i.d. Bernoulli per bit, which factorises exactly as
//
//   P[fail] = sum_k P[K = k] * P[fail | K = k]
//
// with K ~ Binomial(total_bits, ber) and, *given* K = k, the k faulty
// positions uniform over distinct sites (FaultInjector::sample_exact).
// P[K = k] is closed-form (log_binom_pmf); only the conditional failure
// probabilities pi_k need simulation, and those are large (1e-4..1e-1 at
// group scale) where the unconditional probability is ~1e-8. The
// estimator therefore runs one conditional MC per fault count k — a
// normal engine campaign (run_baseline_mc_parallel) with
// BaselineMcConfig::fixed_fault_count = k, so each stratum gets sharding,
// checkpoint/resume and the fleet queue for free — and recombines with
// exact Binomial weights. Any scheme a SchemeFactory builds can be
// stratified: SuDoku (reliability::make_scheme) as well as ECC-k. This is
// importance sampling with a *stratified* proposal: the likelihood ratio
// pmf_base(k)/q(k) is applied in closed form per stratum, so no weight
// variance is left except the Monte-Carlo noise of each pi_k.
//
// Trial allocation follows sqrt(pmf_base(k) * pmf_tilted(k)), where the
// tilted pmf raises the BER so its mean sits past the failure threshold —
// the classic exponential tilt, used here only to decide where trials go
// (the weights stay exact, so a bad tilt costs variance, never bias). The
// geometric mean approximates Neyman allocation when pi_k grows with k:
// most trials land on the low counts that dominate pmf_base * pi_k, with
// a decaying share along the tilted support. Counts that provably cannot
// fail (k < t + 1 for ECC-t: no line can see t + 1 faults; k < 4 for
// SuDoku-X: a DUE needs two lines with two faults each) are excluded
// exactly via min_count; truncated support mass is reported as
// excluded_mass so callers can bound the bias (a one-sided underestimate
// bounded by that mass).
//
// Scale note: clustering rarity, unlike count rarity, cannot be tilted
// away — at full-cache scale even a boosted count spreads over 2^20
// lines and pi_k stays unobservable. Run the estimator at *group* scale
// (num_lines = group_size) where pi_k is 1e-4..1e-1, then lift to the
// cache with lift_units (groups fail independently — the same
// log_cache_of_units composition the analytical models use).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "baselines/mc_runner.h"
#include "common/rng.h"
#include "exp/mc_experiments.h"
#include "exp/result_sink.h"

namespace sudoku::exp {

// Model-agnostic description of one count-stratified campaign: the fault
// count is Binomial(total_bits, ber) and the caller supplies whatever
// conditional failure model applies. Used directly for closed-form toy
// models (tests, table2's ECC cross-check) and derived from a scheme's
// stored bits by RareEventConfig::stratify() for the full estimator.
struct StratifyParams {
  double total_bits = 0;  // N of the Binomial fault count
  double ber = 0;         // per-bit fault probability per interval

  // Total conditional trials to spread across the strata.
  std::uint64_t trials = 20000;

  // Proposal tilt: BER whose Binomial mean sits in the failure region.
  // 0 = auto, mean = lambda + max(6, 2*sqrt(lambda)) — past the smallest
  // failure-capable counts even when lambda << 1.
  double tilted_ber = 0.0;

  // Counts below this cannot fail and are excluded exactly. 2 is right for
  // ECC-1 (any single fault in a unit is corrected line-locally).
  std::uint64_t min_count = 2;

  // Support cut: strata whose base *and* tilted pmf both fall below this
  // are truncated (mass reported in RareEventEstimate::excluded_mass).
  double support_epsilon = 1e-12;

  // Floor per kept stratum, so every pi_k gets a usable estimate.
  std::uint64_t min_stratum_trials = 64;
};

struct RareEventConfig {
  // Conditional-MC template: seed and per-bit ber of the i.i.d. fault
  // field. Run it at group scale and lift — see the scale note above.
  // max_intervals / target_failures / fixed_fault_count are managed per
  // stratum and ignored on input.
  baselines::BaselineMcConfig base;

  std::uint64_t trials = 20000;        // see StratifyParams
  double tilted_ber = 0.0;
  std::uint64_t min_count = 2;
  double support_epsilon = 1e-12;
  std::uint64_t min_stratum_trials = 64;

  // The Binomial count law over a scheme's `total_bits` stored bits
  // (num_units() x bits_per_unit()).
  StratifyParams stratify(std::uint64_t total_bits) const;
};

struct RareStratum {
  std::uint64_t count = 0;      // fault count k this stratum conditions on
  std::uint64_t trials = 0;     // allocated conditional trials
  double log_pmf_base = 0.0;    // ln P[K = k] under Binomial(N, base ber)
  double log_pmf_tilted = 0.0;  // ln P[K = k] under the tilted proposal
};

struct RareEventPlan {
  std::vector<RareStratum> strata;  // ascending count order
  double tilted_ber = 0.0;          // resolved (auto or explicit)
  std::uint64_t total_bits = 0;
  double excluded_mass = 0.0;       // base-pmf mass of truncated counts >= min_count
};

// Deterministic: a pure function of the params (no RNG draws).
RareEventPlan plan_strata(const StratifyParams& params);

struct RareStratumResult {
  RareStratum stratum;
  std::uint64_t intervals = 0;  // conditional trials actually run
  std::uint64_t failures = 0;   // failure intervals among them
};

struct RareEventEstimate {
  double p_unit = 0.0;        // per-unit per-interval failure probability
  double var_unit = 0.0;      // estimator variance (Agresti-Coull per stratum)
  double ess = 0.0;           // p(1-p)/var — unweighted trials this equals
  double excluded_mass = 0.0; // one-sided truncation bias bound
  std::uint64_t trials = 0;   // conditional trials consumed
  std::vector<RareStratumResult> strata;

  double ci95_unit() const;   // 1.96 * sqrt(var_unit)
};

// Pure recombination: p = sum_k pmf_base(k) * failures_k / trials_k, with
// per-stratum Agresti-Coull variance (the +1/+2 smoothing feeds only the
// variance; the point estimate stays the unbiased ratio).
RareEventEstimate combine_strata(const RareEventPlan& plan,
                                 const std::vector<RareStratumResult>& results);

// Serial driver for custom conditional models: `trial(count, rng)` returns
// whether one interval with exactly `count` faults failed. Deterministic
// for a given (plan, seed) — each stratum draws from its own derived
// stream. This is the path the likelihood-ratio tests and table2's ECC
// cross-check use; the full-controller estimator below goes through the
// experiment engine instead.
RareEventEstimate run_stratified(
    const RareEventPlan& plan, std::uint64_t seed,
    const std::function<bool(std::uint64_t count, Rng& rng)>& trial);

// Full estimator over the schemes `factory` builds: plan from the
// prototype's stored bits, run each stratum as an engine campaign
// (run_baseline_mc_parallel; inherits threads/checkpoint/fleet from
// `options`; stratum checkpoints separate automatically because
// fixed_fault_count and the stratum seed feed the config hash), combine.
// `stats` accumulates trials and wall clock across strata. The factory is
// called once to size the plan and once per stratum for its prototype, so
// it should build a group-scale scheme (see the scale note above).
RareEventEstimate run_rare_event(const SchemeFactory& factory,
                                 const RareEventConfig& config,
                                 const ExpOptions& options = {},
                                 RunStats* stats = nullptr);

// Lift a per-unit probability to n independent units (1 - (1-p)^n) and
// propagate its variance (delta method: slope n*(1-p)^(n-1)).
double lift_units(double p_unit, double n_units);
double lift_units_variance(double p_unit, double var_unit, double n_units);

}  // namespace sudoku::exp
