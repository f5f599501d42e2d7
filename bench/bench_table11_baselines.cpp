// Reproduces Table XI: CPPC / RAID-6 / 2DP vs SuDoku, all provisioned with
// CRC-31 per line (and ECC-1 where applicable). Prints the analytical FIT
// at the paper's operating point and a functional Monte-Carlo comparison
// at an accelerated BER where every scheme's failures are observable.
//
// The MC section runs on the src/exp engine: each scheme's intervals shard
// across the pool (one scheme instance per shard via a factory) with
// per-trial seed streams, so counts are thread-count-invariant; the whole
// comparison is written as a bench/out JSON artifact. With --checkpoint /
// --resume each scheme's shards checkpoint under their own scope (the
// baseline configs are otherwise identical across schemes, so the scope is
// what keeps their checkpoint trees apart — see docs/robustness.md).
#include <cstdio>
#include <memory>

#include "baselines/cppc_cache.h"
#include "baselines/mc_runner.h"
#include "baselines/raid6_cache.h"
#include "baselines/twodp_cache.h"
#include "bench_util.h"
#include "reliability/analytical.h"
#include "reliability/montecarlo.h"

using namespace sudoku;
using namespace sudoku::reliability;

int main(int argc, char** argv) {
  bench::Run run(argc, argv);
  bench::print_header("Table XI: Comparing CPPC, RAID-6, 2DP with SuDoku");

  CacheParams c;
  bench::Table fits({{"Scheme", "%-24s", "scheme"},
                     {"FIT (ours)", "%14s", "fit"},
                     {"paper", "%12s", "paper"}});
  fits.row("CPPC + CRC-31", cppc(c).fit(), "1.69e14");
  fits.row("RAID-6 + CRC-31", raid6(c).fit(), "571e3");
  fits.row("2DP ECC-1+CRC-31", twodp(c).fit(), "2.8e8");
  fits.row("SuDoku-Z (strict)", sudoku_z_due(c, SdrModel::kStrict).fit(), "1.05e-4");
  fits.row("SuDoku-Z (mechanistic)", sudoku_z_due(c).fit(), "1.05e-4");
  std::printf("\n  note: our RAID-6 model (P+Q erasure pair, fails at 3 multi-bit\n"
              "  lines/group) yields a higher FIT than the paper's 571e3; the paper\n"
              "  describes diagonal+row parities whose exact model it does not give.\n"
              "  The headline ordering — SuDoku >= 1e6x stronger than all three —\n"
              "  holds in both accountings.\n");

  bench::print_header(
      "Functional Monte-Carlo at accelerated BER (1 MB cache, 128-line groups, BER 1e-4)");
  baselines::BaselineMcConfig mcfg;
  mcfg.ber = 1e-4;
  mcfg.max_intervals = 300 * run.args.scale;
  mcfg.seed = run.args.seed_or(7);

  // 128-line groups: SuDoku-Z's skewed hash needs num_lines >= group^2.
  const std::uint64_t lines = 1u << 14;
  const std::uint32_t group = 128;

  bench::Table mc({{"Scheme", "%-24s", "scheme"},
                   {"failures", "%9u", "failure_intervals"},
                   {"intervals", "%10u", "intervals"},
                   {"sdc", "%5u", "sdc_units"}});
  const auto run_scheme = [&](const std::string& name,
                              const exp::SchemeFactory& factory) {
    // The BaselineMcConfig is identical for every scheme; the per-scheme
    // checkpoint scope is what keeps their shard payloads apart.
    const auto r = run.baseline(factory, mcfg, "table11." + name);
    mc.row(name, r.failure_intervals, r.intervals, r.sdc_units);
  };

  run_scheme("CPPC+CRC-31",
             [&] { return std::make_unique<baselines::CppcCache>(lines); });
  run_scheme("RAID-6+CRC-31", [&] {
    return std::make_unique<baselines::Raid6Cache>(lines, group);
  });
  // The paper's wording ("diagonal parity and row-wise parity") matches
  // RDP; both constructions correct two erasures, so the counts agree.
  run_scheme("RDP+CRC-31", [&] {
    return std::make_unique<baselines::Raid6Cache>(lines, group,
                                                   baselines::Raid6Flavor::kRdp);
  });
  run_scheme("2DP ECC-1+CRC-31", [&] {
    return std::make_unique<baselines::TwoDpCache>(lines, group);
  });
  {
    McConfig zc;
    zc.cache.num_lines = lines;
    zc.cache.group_size = group;
    zc.cache.ber = mcfg.ber;
    zc.level = SudokuLevel::kZ;
    zc.max_intervals = mcfg.max_intervals;
    zc.seed = mcfg.seed;
    const auto r = run.mc(zc, "table11.SuDoku-Z");
    mc.row("SuDoku-Z", r.failure_intervals, r.intervals, r.sdc_lines);
  }

  exp::JsonObject config;
  config.set("ber", mcfg.ber)
      .set("max_intervals", mcfg.max_intervals)
      .set("seed", mcfg.seed)
      .set("num_lines", lines)
      .set("group_size", group);
  exp::JsonObject result;
  result.set("analytical_fit", fits.json()).set("montecarlo", mc.json());

  run.finish("table11_baselines", config, result);
  return 0;
}
