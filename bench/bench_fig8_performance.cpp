// Reproduces Figure 8: execution time of SuDoku-Z normalized to an
// idealized error-free cache, per benchmark (SPEC2006 / PARSEC / BIO /
// COMM + four MIX workloads), 8 cores sharing the 64 MB STTRAM LLC of
// Table VI. The paper reports an average slowdown of ~0.1-0.15%. The
// SuDoku-configured runs' sim.* / cache.* series accumulate into the
// bench/out artifact's metrics section (the Ideal runs stay unmetered so
// the counters describe the protected configuration only).
#include <cstdio>

#include "bench_util.h"

using namespace sudoku;

int main(int argc, char** argv) {
  bench::Run run(argc, argv, bench::single_threaded_options());
  const std::uint64_t instr = 400'000 * run.args.scale;
  const std::uint64_t seed = run.args.seed_or(1);

  bench::print_header("Figure 8: Execution time of SuDoku-Z normalized to Ideal");
  bench::print_subnote("Table VI system: 8 cores @3.2GHz, ROB 160, width 4, 64MB LLC,");
  bench::print_subnote("read 9ns / write 18ns, DDR3-800 x2 channels.");
  std::printf("  (%llu instructions/core; synthetic traces, see DESIGN.md)\n",
              static_cast<unsigned long long>(instr));

  const auto workloads = bench::paper_workloads();
  bench::Table rows({{"benchmark", "%-16s", "workload"},
                     {"suite", "%-8s", "suite"},
                     {"norm. time", "%12.5f", "normalized_time"}});
  double sum = 0.0;
  for (const auto& w : workloads) {
    const auto pair = bench::run_sim_pair(w.benchmarks, instr, seed);
    run.metrics() += pair.with.metrics;
    const double ratio = pair.with.total_time_ns / pair.ideal.total_time_ns;
    rows.row(w.label, w.suite, ratio);
    sum += ratio;
    run.stats.trials += instr * 8;  // 8 cores, with + ideal counted once
  }

  const double avg = sum / static_cast<double>(workloads.size());
  std::printf("\n  GEOMEAN-ish average normalized time: %.5f  (paper: ~1.0010-1.0015)\n",
              avg);
  std::printf("  average slowdown: %.3f%%  (paper: 0.10-0.15%%)\n",
              (avg - 1.0) * 100.0);

  exp::JsonObject config;
  config.set("instructions_per_core", instr)
      .set("num_cores", std::uint64_t{8})
      .set("seed", seed)
      .set("scale", run.args.scale);
  exp::JsonObject result;
  result.set("workloads", rows.json())
      .set("average_normalized_time", avg)
      .set("average_slowdown_percent", (avg - 1.0) * 100.0);

  run.finish("fig8_performance", config, result);
  return 0;
}
