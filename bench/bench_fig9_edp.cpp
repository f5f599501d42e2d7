// Reproduces Figure 9: System Energy-Delay Product of SuDoku-Z normalized
// to the error-free ideal baseline (Table VII energy parameters). The
// paper reports an increase of at most ~0.4% on average, driven by the PLT
// updates on every cache write.
//
// Each benchmark (and each 8-core mix) is an independent with/ideal
// simulation pair, so the pairs fan out across the worker pool; results
// land in an index-addressed slot table and are reduced in roster order,
// which keeps the artifact bit-identical for any --threads value.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "energy/energy_model.h"
#include "exp/thread_pool.h"
#include "sim/timing_sim.h"

using namespace sudoku;
using namespace sudoku::sim;

namespace {

struct EdpPair {
  double ratio = 0.0;
  double plt_j = 0.0;
};

EdpPair run_pair(const std::vector<std::string>& benchmarks, std::uint64_t instr,
                 std::uint64_t seed) {
  const auto pair = bench::run_sim_pair(benchmarks, instr, seed);
  energy::EnergyParams params;
  const std::uint64_t sttram_cells = SimConfig().llc.num_lines() * 553;
  // SuDoku-Z: two PLTs of 2048 parity lines × 553 bits in SRAM (§VII-H).
  const std::uint64_t plt_cells = 2ull * 2048 * 553;
  const auto e_with =
      energy::compute_energy(pair.with, params, sttram_cells, plt_cells);
  const auto e_ideal = energy::compute_energy(pair.ideal, params, sttram_cells, 0);
  return {energy::edp(e_with, pair.with.total_time_ns) /
              energy::edp(e_ideal, pair.ideal.total_time_ns),
          e_with.plt_dynamic_j};
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs::Options opts;
  opts.checkpoint = false;  // every pair reruns in seconds; nothing to persist
  bench::Run run(argc, argv, opts);
  const std::uint64_t instr = 400'000 * run.args.scale;
  const std::uint64_t seed = run.args.seed_or(1);

  bench::print_header("Figure 9: System-EDP of SuDoku-Z normalized to error-free baseline");
  bench::print_subnote("Table VII: STTRAM 0.35/0.13 nJ per write/read, 0.07 nW/cell static;");
  bench::print_subnote("SRAM 0.11/0.05 nJ, 4.02 nW/cell; codec 40 pJ/line.");

  const auto workloads = bench::paper_workloads();
  std::vector<EdpPair> slots(workloads.size());
  exp::ThreadPool pool(run.args.threads);
  pool.parallel_for(workloads.size(), [&](std::uint64_t i) {
    slots[i] = run_pair(workloads[i].benchmarks, instr, seed);
  });

  bench::Table rows({{"benchmark", "%-16s", "workload"},
                     {"suite", "%-8s", "suite"},
                     {"norm. EDP", "%12.5f", "norm_edp"},
                     {"", "", "plt_dynamic_j"}});
  double sum = 0.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    rows.row(workloads[i].label, workloads[i].suite, slots[i].ratio, slots[i].plt_j);
    sum += slots[i].ratio;
    worst = std::max(worst, slots[i].ratio);
  }
  const double average = sum / static_cast<double>(workloads.size());
  std::printf("\n  average normalized EDP: %.5f (paper: <= ~1.004 on average)\n",
              average);
  std::printf("  worst case:             %.5f\n", worst);

  // §VII-I: PLT write traffic. One representative heavy-write run shows
  // the SRAM PLT ports loafing far below the STTRAM banks they shadow.
  SimConfig cfg;
  cfg.instructions_per_core = instr;
  cfg.seed = seed;
  const auto r = TimingSimulator(cfg).run({"lbm", "comm1", "comm2", "dedup"});
  const double llc_util = r.llc_bank_utilization(cfg.llc.banks);
  const double plt_util = r.plt_bank_utilization(cfg.llc.banks);
  std::printf("\n  §VII-I PLT bandwidth check (write-heavy mix):\n");
  std::printf("  LLC bank utilization: %.2f%%   PLT port utilization: %.2f%%\n",
              100 * llc_util, 100 * plt_util);
  std::printf("  (PLT writes are 1ns SRAM ops vs 18ns STTRAM writes: no bottleneck,\n");
  std::printf("   as the paper argues.)\n");

  exp::JsonArray comparison;
  comparison.push(bench::paper_row("average normalized EDP", 1.004, average));
  comparison.push(bench::paper_row("worst-case normalized EDP", "~1.01", worst));

  exp::JsonObject config;
  config.set("instructions_per_core", instr)
      .set("workloads", static_cast<std::uint64_t>(workloads.size()))
      .set("scale", run.args.scale);
  exp::JsonObject result;
  result.set("rows", rows.json())
      .set("average_norm_edp", average)
      .set("worst_norm_edp", worst)
      .set("llc_bank_utilization", llc_util)
      .set("plt_port_utilization", plt_util)
      .set("paper_comparison", comparison);

  run.stats.trials = workloads.size();
  run.stats.threads = pool.size();
  run.stats.shards = workloads.size();
  run.finish("fig9_edp", config, result);
  return 0;
}
