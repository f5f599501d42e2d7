// The benchmark's three fixed-work workloads and the traced layer probes.
// Each workload call runs one round: set-up, then a timed phase of a fixed
// number of trials, operations or accesses, then its output check.
#pragma once

#include <string>

#include "common.h"

namespace perfbench {

// Engine-backed Monte Carlo over seven scheme/fault cases (2 pool threads).
RoundResult run_mc_campaign(const RoundSpec& spec);

// MemoryService over SuDoku-Z with two closed-loop clients and periodic
// drain-then-inject faults.
RoundResult run_svc_mixed(const RoundSpec& spec);

// Single-threaded timing simulator: two 8-core mixes and two Ramulator2
// traces under a 4 KB region-ECC design.
RoundResult run_sim_llc(const RoundSpec& spec, const std::string& traces_dir);

// Per-layer host costs timed on replayed inputs (codes, sudoku, sttram,
// faults, cache, DRAM, trace generation and trace reading). Also returns
// the per-case replay costs the mc-campaign attribution needs.
RoundResult run_layer_probes(const RoundSpec& spec, const std::string& traces_dir);

}  // namespace perfbench
