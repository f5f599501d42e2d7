// Scenario x scheme robustness matrix (ROADMAP item 4, docs/faults.md):
// every builtin fault scenario — i.i.d., stuck-at, intermittent,
// spatially-clustered, thermal ramp, Weibull wear-out, and the mixed
// composite — driven against SuDoku-X/Y/Z, Hi-ECC (t=6) and ECC-4 on the
// same array footprint. The paper's §VII evaluation covers only the i.i.d.
// column; the matrix shows how the schemes separate once faults stop being
// independent (§VI's permanent-fault claim, field-study fault mixes).
//
// Every cell runs on the src/exp engine with per-trial seed streams and the
// scenario's own per-(source, interval) streams, so the artifact is
// byte-identical for any --threads and across checkpoint/resume/fleet runs.
// Each cell checkpoints under its own scope.
//
// A final deterministic section exercises the service's graceful
// degradation: a permanent-fault scenario against a two-bank MemoryService
// with repeat-offender retirement enabled, reporting the converged
// retired-line set and the degraded-capacity figures.
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/ecck_cache.h"
#include "baselines/hiecc_cache.h"
#include "baselines/mc_runner.h"
#include "bench_util.h"
#include "faults/scenario.h"
#include "reliability/montecarlo.h"
#include "service/service.h"

using namespace sudoku;

namespace {

BitVec service_payload(std::uint64_t addr) {
  BitVec data(512);
  std::uint64_t state = addr * 0x9e3779b97f4a7c15ull + 1;
  for (std::uint32_t i = 0; i < 512; i += 64) {
    data.set_bits(i, 64, splitmix64_next(state));
  }
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs::Options opts;
  opts.extra_flags = {"--quick"};
  bench::Run run(argc, argv, opts);
  const auto& args = run.args;
  const bool quick = args.has_extra("--quick");
  const std::string bench_name =
      quick ? "scenario_matrix_quick" : "scenario_matrix";

  bench::print_header("Mixed-fault scenario matrix: scenario x scheme");

  const std::uint64_t lines = 4096;   // kZ skewed hash needs lines >= group^2
  const std::uint32_t group = 64;
  const std::uint64_t max_intervals = (quick ? 40 : 200) * args.scale;
  const std::uint64_t seed = args.seed_or(11);

  const std::vector<std::string> scenario_names =
      quick ? std::vector<std::string>{"iid", "stuck", "clustered", "mixed"}
            : faults::ScenarioSpec::builtin_names();

  // Scenarios must outlive the parallel runs that share them; a deque keeps
  // references stable while cells append.
  std::deque<faults::FaultScenario> live_scenarios;

  // Geometry probes: fault units differ per scheme family.
  SudokuConfig probe_cfg;
  probe_cfg.geo.num_lines = lines;
  probe_cfg.geo.group_size = group;
  const std::uint32_t sudoku_bits =
      SudokuController(probe_cfg).codec().total_bits();
  const baselines::HiEccCache hiecc_probe(lines, 6);
  const baselines::EccKCache ecck_probe(lines, 4);

  std::printf("\n  %zu scenarios x 5 schemes, %llu intervals/cell, seed %llu\n",
              scenario_names.size(),
              static_cast<unsigned long long>(max_intervals),
              static_cast<unsigned long long>(seed));
  bench::Table matrix({{"scenario", "%-12s", "scenario"},
                       {"scheme", "%-10s", "scheme"},
                       {"intervals", "%9u", "intervals"},
                       {"fail_ivals", "%10u", "failure_intervals"},
                       {"due", "%8u", "due"},
                       {"sdc", "%6u", "sdc"},
                       {"corrected", "%10u", "corrected"},
                       {"faults", "%10u", "faults_injected"}});
  // (scenario, scheme) -> {failure intervals, sdc}, for the comparison.
  std::map<std::pair<std::string, std::string>, std::pair<std::uint64_t, std::uint64_t>>
      outcomes;
  const auto record = [&](const std::string& scenario, const std::string& scheme,
                          std::uint64_t intervals, std::uint64_t failures,
                          std::uint64_t due, std::uint64_t sdc,
                          std::uint64_t corrected, std::uint64_t faults) {
    matrix.row(scenario, scheme, intervals, failures, due, sdc, corrected, faults);
    outcomes[{scenario, scheme}] = {failures, sdc};
  };

  for (const auto& scenario_name : scenario_names) {
    const faults::ScenarioSpec spec =
        faults::ScenarioSpec::builtin(scenario_name);

    // SuDoku levels share one scenario instance (same geometry).
    const faults::FaultScenario& sudoku_scn = live_scenarios.emplace_back(
        spec, faults::Geometry{lines, sudoku_bits}, seed);
    for (const auto level :
         {SudokuLevel::kX, SudokuLevel::kY, SudokuLevel::kZ}) {
      reliability::McConfig mc;
      mc.cache.num_lines = lines;
      mc.cache.group_size = group;
      mc.level = level;
      mc.max_intervals = max_intervals;
      mc.seed = seed;
      mc.scenario = &sudoku_scn;
      const auto r =
          run.mc(mc, bench_name + "." + scenario_name + "." + to_string(level));
      record(scenario_name, to_string(level), r.intervals, r.failure_intervals,
             r.due_lines, r.sdc_lines, r.ecc1_corrections, r.faults_injected);
    }

    const auto run_baseline = [&](const std::string& scheme_name,
                                  const faults::Geometry& geo,
                                  const exp::SchemeFactory& factory) {
      const faults::FaultScenario& scn =
          live_scenarios.emplace_back(spec, geo, seed);
      baselines::BaselineMcConfig bc;
      bc.max_intervals = max_intervals;
      bc.seed = seed;
      bc.scenario = &scn;
      const auto r = run.baseline(
          factory, bc, bench_name + "." + scenario_name + "." + scheme_name);
      record(scenario_name, scheme_name, r.intervals, r.failure_intervals,
             r.due_units, r.sdc_units, r.corrected, r.faults_injected);
    };

    run_baseline(
        "Hi-ECC",
        {hiecc_probe.num_units(), hiecc_probe.bits_per_unit()},
        [&] { return std::make_unique<baselines::HiEccCache>(lines, 6); });
    run_baseline(
        "ECC-4", {ecck_probe.num_units(), ecck_probe.bits_per_unit()},
        [&] { return std::make_unique<baselines::EccKCache>(lines, 4); });
  }

  // Paper-style comparison rows: §VI claims SuDoku's scrub-and-repair
  // pipeline tolerates permanent faults as a by-product of its transient
  // machinery; the per-scenario ordering against the per-line baselines is
  // the checkable form of that claim.
  bench::print_header("Paper comparison (§VI / §VII)");
  bench::Table comparison({{"scenario", "%-12s", "scenario"},
                           {"", "", "claim"},
                           {"SuDoku-Z", "%9u", "sudoku_z_failures"},
                           {"ECC-4", "%7u", "ecc4_failures"},
                           {"Hi-ECC", "%7u", "hiecc_failures"},
                           {"Z sdc", "%6u", "sudoku_z_sdc"},
                           {"holds", "%6s", "holds"}});
  for (const auto& scenario_name : scenario_names) {
    const auto z = outcomes.find({scenario_name, "SuDoku-Z"});
    const auto ecck = outcomes.find({scenario_name, "ECC-4"});
    const auto hiecc = outcomes.find({scenario_name, "Hi-ECC"});
    if (z == outcomes.end() || ecck == outcomes.end() || hiecc == outcomes.end()) {
      continue;
    }
    comparison.row(scenario_name,
                   scenario_name == "stuck"
                       ? "§VI: SuDoku tolerates permanent faults via scrub+repair"
                       : "SuDoku-Z fails no more often than per-line ECC-4",
                   z->second.first, ecck->second.first, hiecc->second.first,
                   z->second.second,
                   z->second.first <= ecck->second.first && z->second.second == 0);
  }

  // ---- graceful degradation under a permanent-fault scenario ----------
  // Deterministic and single-threaded by construction (every service call
  // below is synchronous), so these rows golden like the matrix.
  bench::print_header("Service degradation: repeat-offender retirement");
  const std::uint64_t svc_lines = 1024;
  const std::uint32_t svc_banks = 2;
  SudokuConfig svc_cfg;
  svc_cfg.geo.num_lines = svc_lines;
  svc_cfg.geo.group_size = 32;
  svc_cfg.level = SudokuLevel::kZ;
  service::ServiceConfig scfg;
  scfg.banks = svc_banks;
  scfg.repair_workers = 1;
  scfg.retire_strikes = 3;
  scfg.spare_lines_per_bank = 32;
  service::MemoryService svc(
      scfg, [&](std::uint32_t) { return service::make_sudoku_backend(svc_cfg); });
  svc.format([&](std::uint32_t bank, std::uint64_t line) {
    return service_payload(line * svc_banks + bank);
  });

  std::deque<faults::FaultScenario> svc_scenarios;
  for (std::uint32_t bank = 0; bank < svc_banks; ++bank) {
    svc_scenarios.emplace_back(faults::ScenarioSpec::builtin("stuck"),
                               faults::Geometry{svc_lines, sudoku_bits},
                               seed + 100 + bank);
  }
  const std::uint64_t drive_intervals = quick ? 20 : 60;
  std::vector<std::uint64_t> touched;
  for (std::uint64_t t = 0; t < drive_intervals; ++t) {
    for (std::uint32_t bank = 0; bank < svc_banks; ++bank) {
      const faults::ActiveStuck stuck = svc_scenarios[bank].stuck(t);
      svc.assert_stuck(bank, stuck.cells(), /*scrub_async=*/false);
      const FaultBatch batch = svc_scenarios[bank].transient(t);
      svc.inject_faults(bank, batch, /*scrub_async=*/false);
      touched.clear();
      for (const auto& [unit, bits] : batch) touched.push_back(unit);
      touched.insert(touched.end(), stuck.units().begin(), stuck.units().end());
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
      svc.scrub_units_now(bank, touched);
    }
  }
  // Convergence sweeps: the permanent population is constant, so a few
  // full scrubs retire every repeat offender and nothing else.
  for (int round = 0; round < 4; ++round) {
    for (std::uint32_t bank = 0; bank < svc_banks; ++bank) {
      svc.assert_stuck(bank, svc_scenarios[bank].stuck(0).cells(),
                       /*scrub_async=*/false);
      svc.scrub_bank_now(bank);
    }
  }
  const service::DegradationReport deg = svc.degradation_report();

  // Post-degradation audit: every line either serves its formatted payload
  // (spare-backed or repaired in place) or is an honest DUE — never SDC.
  service::ClientStats audit;
  BitVec buf;
  std::uint64_t audit_due = 0, audit_sdc = 0;
  for (std::uint64_t addr = 0; addr < svc.num_lines(); ++addr) {
    const service::ReadStatus st = svc.read(addr, audit, buf);
    if (st == service::ReadStatus::kDue) {
      ++audit_due;
    } else if (!(buf == service_payload(addr))) {
      ++audit_sdc;
    }
  }

  bench::Table deg_rows({{"bank", "%5u", "bank"},
                         {"retired", "%8u", ""},
                         {"spare-backed", "%13u", "retired_mapped"},
                         {"unmapped", "%9u", "retired_unmapped"},
                         {"spares", "%7u", "spare_capacity"}});
  for (const auto& bank : deg.banks) {
    exp::JsonArray ids;
    for (const auto line : bank.retired_lines) ids.push(line);
    deg_rows.row(bank.bank, bank.retired_lines.size(), bank.retired_mapped,
                 bank.retired_unmapped, bank.spare_capacity)
        .set("retired_lines", ids);
  }
  exp::JsonObject degradation;
  degradation.set("banks", deg_rows.json())
      .set("healthy_fraction", deg.healthy_fraction())
      .set("retired_total", deg.retired_mapped + deg.retired_unmapped)
      .set("audit_due", audit_due)
      .set("audit_sdc", audit_sdc)
      .set("spare_reads",
           audit.registry().find_counter("service.read.retired")->value());
  std::printf("  healthy capacity: %.4f, audit: %llu due, %llu sdc\n",
              deg.healthy_fraction(),
              static_cast<unsigned long long>(audit_due),
              static_cast<unsigned long long>(audit_sdc));

  exp::JsonObject config;
  config.set("num_lines", lines)
      .set("group_size", group)
      .set("max_intervals", max_intervals)
      .set("seed", seed)
      .set("quick", quick);
  exp::JsonArray scn_specs;
  for (const auto& name : scenario_names) {
    scn_specs.push(faults::ScenarioSpec::builtin(name).to_json());
  }
  config.set("scenarios", scn_specs);

  exp::JsonObject result;
  result.set("rows", matrix.json())
      .set("paper_comparison", comparison.json())
      .set("degradation", degradation);

  run.finish(bench_name, config, result);
  return 0;
}
