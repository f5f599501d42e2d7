// sim-llc: the single-threaded timing simulator. Two 8-core mixes from
// Figure 8 run with the SuDoku-Z overheads, and the two checked-in
// Ramulator2 traces run through a 4 KB region-ECC design. Its simulated
// statistics are deterministic, so the output check compares them exactly.
// An op is one post-warmup simulated LLC access.
#include <algorithm>
#include <bit>

#include "codes/ecc_design.h"
#include "sim/timing_sim.h"
#include "sim/trace_io.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sudoku;

// Instructions per core at scale 1.0, sized so each run takes a similar
// share of the host time. The mixes need ~10M for lbm to reach DRAM.
constexpr std::uint64_t kMixInstructions = 10'000'000;
constexpr std::uint64_t kAiStreamInstructions = 1'000'000;
constexpr std::uint64_t kHpcMixInstructions = 24'000'000;
constexpr double kWarmupFraction = 0.02;                  // set-up pass size

struct SimRun {
  std::string name;
  std::vector<std::string> sources;
  sim::SimConfig config;
};

std::vector<SimRun> make_runs(std::uint64_t seed, double scale,
                              const std::string& traces_dir) {
  const auto instr = [scale](std::uint64_t base) {
    return std::max<std::uint64_t>(10'000, static_cast<std::uint64_t>(base * scale));
  };
  sim::SimConfig mix;  // Table VI system, SuDoku-Z overheads on
  mix.seed = seed;
  mix.instructions_per_core = instr(kMixInstructions);

  const EccDesign design = make_ecc_design(4096, 4);
  sim::SimConfig region;
  region.num_cores = 4;
  region.llc.size_bytes = 4ull << 20;
  region.warmup_accesses_per_core = 0;  // the traces fit the LLC: keep cold misses
  region.seed = seed;
  region.sudoku.enabled = false;
  region.region.enabled = true;
  region.region.region_bytes = design.data_bytes;
  region.region.parity_bits = design.parity_bits;
  region.region.decode_ns = 1.0 + 0.1 * design.t * design.read_amplification();

  sim::SimConfig ai = region, hpc = region;
  ai.instructions_per_core = instr(kAiStreamInstructions);
  hpc.instructions_per_core = instr(kHpcMixInstructions);
  return {
      {"mix1",
       {"mcf", "gcc", "lbm", "swaptions", "comm1", "mummer", "x264", "soplex"},
       mix},
      {"mix2",
       {"libquantum", "omnetpp", "canneal", "hmmer", "comm2", "tigr", "vips", "astar"},
       mix},
      {"ai_stream", {"ram:" + traces_dir + "/ai_stream.trace"}, ai},
      {"hpc_mix", {"ram:" + traces_dir + "/hpc_mix.trace"}, hpc},
  };
}

}  // namespace

RoundResult run_sim_llc(const RoundSpec& spec, const std::string& traces_dir) {
  RoundResult out;
  const auto t_setup = Clock::now();
  // ---- set-up: trace load check and a short warm-up simulation per run --
  for (const auto& run : make_runs(spec.seed, spec.scale * kWarmupFraction, traces_dir)) {
    for (std::uint32_t core = 0; core < run.sources.size(); ++core) {
      keep(sim::make_source(run.sources[core], core, spec.seed)->next().addr);
    }
    keep(sim::TimingSimulator(run.config).run(run.sources).llc.accesses);
  }
  const std::vector<SimRun> runs = make_runs(spec.seed, spec.scale, traces_dir);
  out.setup_s = seconds_between(t_setup, Clock::now());

  // ---- timed phase ----------------------------------------------------
  const auto t0 = Clock::now();
  for (const auto& run : runs) {
    const auto tr = Clock::now();
    const sim::SimResult r = sim::TimingSimulator(run.config).run(run.sources);
    const double host_s = seconds_between(tr, Clock::now());
    const std::string key = "sim." + run.name;
    out.ops += r.llc.accesses;
    out.exact[key + ".llc_accesses"] = r.llc.accesses;
    out.exact[key + ".llc_hits"] = r.llc.hits;
    out.exact[key + ".llc_writebacks"] = r.llc.writebacks;
    out.exact[key + ".dram_accesses"] = r.dram_accesses;
    out.exact[key + ".dram_row_hits"] = r.dram.row_hits;
    out.exact[key + ".plt_writes"] = r.plt_writes;
    out.exact[key + ".codec_events"] = r.codec_events;
    out.exact[key + ".region_opens"] = r.region_opens;
    out.exact[key + ".region_buffer_hits"] = r.region_buffer_hits;
    out.exact[key + ".sim_ns_bits"] = std::bit_cast<std::uint64_t>(r.total_time_ns);
    std::uint64_t instructions = 0;
    for (const auto& core : r.cores) instructions += core.instructions;
    out.exact[key + ".instructions"] = instructions;
    if (r.llc.accesses == 0 || r.dram_accesses == 0) {
      out.errors.push_back(key + ": no LLC or DRAM traffic");  // inputs went stale
      out.failed += r.llc.accesses;
    }
    out.values[key + ".host_s"] = host_s;
    out.segment_s.push_back(host_s);
    out.values[key + ".sim_ns"] = r.total_time_ns;
    out.values[key + ".warmup_accesses"] =
        static_cast<double>(run.config.warmup_accesses_per_core * run.config.num_cores);
  }
  out.wall_s = seconds_between(t0, Clock::now());
  return out;
}

}  // namespace perfbench
