// mc-campaign: the reproduction's main job, a Monte-Carlo reliability
// campaign. Seven cases run back to back through the experiment engine
// (exp::run_montecarlo_parallel / exp::run_baseline_mc_parallel) with two
// pool threads, no checkpoint and a fixed trial budget each. An op is one
// scrub-interval trial.
#include <algorithm>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "baselines/ecck_cache.h"
#include "baselines/hiecc_cache.h"
#include "exp/mc_experiments.h"
#include "faults/scenario.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sudoku;

constexpr std::uint64_t kLines = 4096;  // SuDoku-Z needs lines >= group^2
constexpr std::uint32_t kGroup = 64;
constexpr unsigned kPoolThreads = 2;

enum class Scheme { kSudoku, kEcc4, kHiEcc };

struct McCase {
  const char* name;
  Scheme scheme;
  SudokuLevel level;
  double ber;           // iid cases
  bool mixed;           // faults from the `mixed` scenario preset instead
  std::uint64_t trials; // budget at scale 1.0, sized for similar wall shares
  std::uint64_t shards; // every shard formats its own array first
};

// sudoku-x is dominated by RAID-4 repair, sudoku-y by SDR and sudoku-z by
// Hash-2; the mixed cases run both copies of the scenario branch and the
// iid baselines run the baseline kernel. Budgets give each case about
// 0.3 s on a 4-vCPU Xeon VM; the baselines run fewer, larger shards
// because formatting their BCH-coded arrays costs 30-70 ms per shard.
const std::vector<McCase>& cases() {
  static const std::vector<McCase> kCases = {
      {"sudoku-x", Scheme::kSudoku, SudokuLevel::kX, 1e-4, false, 2880, 16},
      {"sudoku-y", Scheme::kSudoku, SudokuLevel::kY, 2.5e-4, false, 960, 16},
      {"sudoku-z", Scheme::kSudoku, SudokuLevel::kZ, 3.5e-4, false, 592, 16},
      {"sudoku-z-mixed", Scheme::kSudoku, SudokuLevel::kZ, 0.0, true, 3520, 16},
      {"ecc4-mixed", Scheme::kEcc4, SudokuLevel::kZ, 0.0, true, 384, 4},
      {"ecc4", Scheme::kEcc4, SudokuLevel::kZ, 1e-4, false, 256, 4},
      {"hiecc", Scheme::kHiEcc, SudokuLevel::kZ, 1e-4, false, 24, 2},
  };
  return kCases;
}

std::uint64_t sudoku_bits() {
  SudokuConfig probe;
  probe.geo.num_lines = kLines;
  probe.geo.group_size = kGroup;
  return SudokuController(probe).codec().total_bits();
}

// Per-thread shard completion times, from ExpOptions::after_shard.
struct ShardClock {
  std::mutex mutex;
  Clock::time_point start;
  std::unordered_map<std::thread::id, Clock::time_point> last;
  std::vector<double> shard_ms;
  double idle_thread_s = 0.0;

  void begin() {
    start = Clock::now();
    last.clear();
  }
  void shard_done() {
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex);
    auto [it, fresh] = last.try_emplace(std::this_thread::get_id(), start);
    shard_ms.push_back(seconds_between(it->second, now) * 1e3);
    it->second = now;
  }
  // Pool time idle after each thread's last shard of a case.
  void end(unsigned threads) {
    const auto now = Clock::now();
    for (const auto& [id, t] : last) idle_thread_s += seconds_between(t, now);
    idle_thread_s += static_cast<double>(threads - std::min<std::size_t>(
                                                       threads, last.size())) *
                     seconds_between(start, now);
  }
};

struct CaseCounts {
  std::uint64_t intervals = 0, faults = 0, repairs = 0, due = 0, sdc = 0,
                failure_intervals = 0, shards = 0;
  std::map<std::string, std::uint64_t> detail;
};

}  // namespace

RoundResult run_mc_campaign(const RoundSpec& spec) {
  RoundResult out;
  const auto t_setup = Clock::now();

  // ---- set-up: scenario build and one warm-up shard per case ----------
  const baselines::EccKCache ecc4_probe(kLines, 4);
  const faults::ScenarioSpec mixed = faults::ScenarioSpec::builtin("mixed");
  const faults::FaultScenario sudoku_mixed(
      mixed, faults::Geometry{kLines, static_cast<std::uint32_t>(sudoku_bits())},
      spec.seed);
  const faults::FaultScenario ecc4_mixed(
      mixed, faults::Geometry{ecc4_probe.num_units(), ecc4_probe.bits_per_unit()},
      spec.seed);

  ShardClock clock;
  const auto run_case = [&](const McCase& c, std::uint64_t trials, bool traced) {
    exp::ExpOptions opt;
    opt.threads = kPoolThreads;
    opt.chunk = (trials + c.shards - 1) / c.shards;
    if (traced) opt.after_shard = [&clock](const exp::Shard&) { clock.shard_done(); };
    exp::RunStats stats;
    CaseCounts cc;
    if (c.scheme == Scheme::kSudoku) {
      reliability::McConfig mc;
      mc.cache.num_lines = kLines;
      mc.cache.group_size = kGroup;
      mc.cache.ber = c.ber;
      mc.level = c.level;
      mc.seed = spec.seed;
      mc.max_intervals = trials;
      mc.scenario = c.mixed ? &sudoku_mixed : nullptr;
      const auto r = exp::run_montecarlo_parallel(mc, opt, &stats);
      cc.intervals = r.intervals;
      cc.faults = r.faults_injected;
      cc.repairs = r.ecc1_corrections + r.raid4_repairs + r.sdr_repairs +
                   r.hash2_invocations;
      cc.due = r.due_lines;
      cc.sdc = r.sdc_lines;
      cc.failure_intervals = r.failure_intervals;
      cc.detail = {{"ecc1", r.ecc1_corrections},
                   {"raid4", r.raid4_repairs},
                   {"sdr", r.sdr_repairs},
                   {"hash2", r.hash2_invocations},
                   {"groups", r.groups_repaired}};
    } else {
      baselines::BaselineMcConfig bc;
      bc.ber = c.ber;
      bc.seed = spec.seed;
      bc.max_intervals = trials;
      bc.scenario = c.mixed ? &ecc4_mixed : nullptr;
      const exp::SchemeFactory factory =
          c.scheme == Scheme::kEcc4
              ? exp::SchemeFactory(
                    [] { return std::make_unique<baselines::EccKCache>(kLines, 4); })
              : exp::SchemeFactory(
                    [] { return std::make_unique<baselines::HiEccCache>(kLines, 6); });
      const auto r = exp::run_baseline_mc_parallel(factory, bc, opt, &stats);
      cc.intervals = r.intervals;
      cc.faults = r.faults_injected;
      cc.repairs = r.corrected;
      cc.due = r.due_units;
      cc.sdc = r.sdc_units;
      cc.failure_intervals = r.failure_intervals;
    }
    cc.shards = stats.shards;
    return cc;
  };

  for (const auto& c : cases()) run_case(c, 1, false);
  out.setup_s = seconds_between(t_setup, Clock::now());

  // ---- timed phase ----------------------------------------------------
  std::uint64_t total_shards = 0;
  const auto t0 = Clock::now();
  for (const auto& c : cases()) {
    const auto trials = std::max<std::uint64_t>(
        c.shards, static_cast<std::uint64_t>(static_cast<double>(c.trials) * spec.scale));
    clock.begin();
    const auto tc = Clock::now();
    const CaseCounts cc = run_case(c, trials, spec.trace);
    const double case_s = seconds_between(tc, Clock::now());
    if (spec.trace) clock.end(kPoolThreads);
    total_shards += cc.shards;

    const std::string key = std::string("mc.") + c.name;
    out.ops += cc.intervals;
    out.exact[key + ".intervals"] = cc.intervals;
    out.exact[key + ".faults"] = cc.faults;
    out.exact[key + ".repairs"] = cc.repairs;
    out.exact[key + ".due"] = cc.due;
    out.exact[key + ".sdc"] = cc.sdc;
    out.exact[key + ".failure_intervals"] = cc.failure_intervals;
    for (const auto& [name, v] : cc.detail) out.exact[key + "." + name] = v;

    bool ok = cc.intervals == trials;
    if (!ok) out.errors.push_back(key + ": ran " + std::to_string(cc.intervals) +
                                  " of " + std::to_string(trials) + " trials");
    if (c.scheme == Scheme::kSudoku && cc.sdc != 0) {
      ok = false;
      out.errors.push_back(key + ": " + std::to_string(cc.sdc) + " SDC lines");
    }
    if (!ok) out.failed += trials;

    out.values[key + ".wall_s"] = case_s;
    out.segment_s.push_back(case_s);
    if (spec.trace) {
      const double t = static_cast<double>(cc.intervals);
      out.values[key + ".trials_per_s"] = t / case_s;
      out.values[key + ".faults_per_trial"] = static_cast<double>(cc.faults) / t;
      out.values[key + ".repairs_per_trial"] = static_cast<double>(cc.repairs) / t;
    }
  }
  out.wall_s = seconds_between(t0, Clock::now());
  out.exact["exp.shards"] = total_shards;

  if (spec.trace) {
    std::vector<double> ms = clock.shard_ms;
    std::sort(ms.begin(), ms.end());
    out.values["exp.shard_ms_p50"] = nearest_rank(ms, 0.5).value;
    out.values["exp.shard_ms_max"] = ms.empty() ? 0.0 : ms.back();
    out.values["exp.tail_idle_frac"] =
        clock.idle_thread_s / (kPoolThreads * out.wall_s);
    out.values["exp.shard_samples"] = static_cast<double>(ms.size());
    out.values["exp.pool_threads"] = kPoolThreads;
  }
  return out;
}

}  // namespace perfbench
