// §VII-B correction-latency analysis. Two parts:
//  1. The paper's hardware latency model: RAID-4 correction reads all 512
//     lines of a group at 9 ns ⇒ ~4.6-16 µs; SuDoku-Y ~20 µs; SuDoku-Z up
//     to ~80 µs; each incurred so rarely the performance cost is <0.01%.
//     This part is deterministic and is what the artifact records.
//  2. google-benchmark measurements of our *functional* implementations
//     (host-CPU time, not STTRAM time — useful for simulator budgeting).
//     Opt-in via --gbench: timings are machine-dependent, so they stay out
//     of the artifact and out of the golden-diff loop.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "sudoku/controller.h"

using namespace sudoku;

namespace {

SudokuController make_controller(SudokuLevel level, Rng& rng) {
  SudokuConfig cfg;
  cfg.geo.num_lines = 1u << 14;
  // Paper-default 512-line groups for X/Y; SuDoku-Z's skewed hash needs
  // num_lines >= group^2, so the Z microbenchmark uses 128-line groups.
  cfg.geo.group_size = level == SudokuLevel::kZ ? 128 : 512;
  cfg.level = level;
  SudokuController ctrl(cfg);
  ctrl.format_random(rng);
  return ctrl;
}

void BM_Ecc1CorrectLine(benchmark::State& state) {
  Rng rng(1);
  LineCodec codec;
  BitVec data(LineCodec::kDataBits);
  auto w = data.words();
  for (auto& word : w) word = rng.next_u64();
  const BitVec good = codec.encode(data);
  for (auto _ : state) {
    BitVec bad = good;
    bad.flip(static_cast<std::uint32_t>(rng.next_below(codec.total_bits())));
    benchmark::DoNotOptimize(codec.check_and_correct(bad));
  }
}
BENCHMARK(BM_Ecc1CorrectLine);

void BM_Raid4GroupRepair(benchmark::State& state) {
  Rng rng(2);
  auto ctrl = make_controller(SudokuLevel::kX, rng);
  for (auto _ : state) {
    state.PauseTiming();
    const auto line = rng.next_below(1u << 14);
    for (int i = 0; i < 4; ++i) {
      ctrl.array().flip(line, static_cast<std::uint32_t>(rng.next_below(553)));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(ctrl.read_data(line));
  }
}
BENCHMARK(BM_Raid4GroupRepair);

void BM_SdrTwoLineRepair(benchmark::State& state) {
  Rng rng(3);
  auto ctrl = make_controller(SudokuLevel::kY, rng);
  for (auto _ : state) {
    state.PauseTiming();
    // Two 2-fault lines in group 0.
    std::uint64_t l1 = rng.next_below(512), l2 = l1;
    while (l2 == l1) l2 = rng.next_below(512);
    for (const auto l : {l1, l2}) {
      const auto a = static_cast<std::uint32_t>(rng.next_below(553));
      auto b = a;
      while (b == a) b = static_cast<std::uint32_t>(rng.next_below(553));
      ctrl.array().flip(l, a);
      ctrl.array().flip(l, b);
    }
    const std::uint64_t lines[] = {l1, l2};
    state.ResumeTiming();
    benchmark::DoNotOptimize(ctrl.scrub_lines(lines));
  }
}
BENCHMARK(BM_SdrTwoLineRepair);

void BM_SkewedHashRepair(benchmark::State& state) {
  Rng rng(4);
  auto ctrl = make_controller(SudokuLevel::kZ, rng);
  for (auto _ : state) {
    state.PauseTiming();
    // Both 3-fault lines in the same 128-line Hash-1 group, forcing the
    // Hash-2 fallback path.
    std::uint64_t l1 = rng.next_below(128), l2 = l1;
    while (l2 == l1) l2 = rng.next_below(128);
    for (const auto l : {l1, l2}) {
      for (int i = 0; i < 3; ++i) {
        ctrl.array().flip(l, static_cast<std::uint32_t>(rng.next_below(553)));
      }
    }
    const std::uint64_t lines[] = {l1, l2};
    state.ResumeTiming();
    benchmark::DoNotOptimize(ctrl.scrub_lines(lines));
  }
}
BENCHMARK(BM_SkewedHashRepair);

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::analytical_options();
  opts.extra_flags = {"--gbench"};
  bench::Run run(argc, argv, opts);

  std::printf("=== §VII-B hardware latency model ===\n");
  const double read_ns = 9.0;
  const double raid4_us = 512 * read_ns / 1000.0;
  const double bandwidth_pct = 100.0 * 4 * 512 * read_ns / 20e6;
  std::printf("  RAID-4 repair: 512 line reads x %.0f ns = %.1f us (paper: <=16 us)\n",
              read_ns, raid4_us);
  std::printf("  expected rate: ~4 multi-bit lines / 20 ms -> %.2f%% bandwidth\n",
              bandwidth_pct);
  std::printf("  SuDoku-Y repair (group scan + SDR trials): ~20 us, every ~3.7 s\n");
  std::printf("  SuDoku-Z repair (up to 2 groups x 2 hashes): ~80 us, every ~3.9 h\n");
  std::printf("  worst-case demand-read impact: <0.08%% (paper §III-D)\n");

  exp::JsonArray comparison;
  comparison.push(bench::paper_row("RAID-4 repair latency (us)", 16.0, raid4_us));
  comparison.push(bench::paper_row("worst-case demand-read impact (%)", 0.08,
                                   bandwidth_pct));

  exp::JsonObject config;
  config.set("read_latency_ns", read_ns)
      .set("group_size", 512)
      .set("scrub_interval_ms", 20);
  exp::JsonObject result;
  result.set("raid4_repair_us", raid4_us)
      .set("sudoku_y_repair_us", 20.0)
      .set("sudoku_z_repair_us", 80.0)
      .set("scrub_bandwidth_pct", bandwidth_pct)
      .set("paper_comparison", comparison);

  run.stats.trials = 1;
  run.finish("correction_latency", config, result);

  if (run.args.has_extra("--gbench")) {
    std::printf("\n=== functional implementation timings (host CPU) ===\n");
    int bench_argc = 1;
    benchmark::Initialize(&bench_argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  } else {
    std::printf("\n  (pass --gbench for host-CPU microbenchmarks of the functional\n"
                "   repair paths; timings are machine-dependent and never recorded\n"
                "   in the artifact)\n");
  }
  return 0;
}
