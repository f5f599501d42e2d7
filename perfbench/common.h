// Shared pieces of the repo benchmark: clocks, exact percentiles, the
// per-round result record every workload returns, and the host/build
// fingerprint stored with each result.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Exact nearest-rank percentile: the value at rank ceil(q * n) of the
// sorted samples. `beyond` counts the samples ranked above it; the value is
// reportable only when at least kMinBeyond samples lie beyond it, so a p99
// needs >= 1000 samples and a p50 >= 20.
inline constexpr std::uint64_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t beyond = 0;
  bool reportable = false;
};

// `samples` must be sorted ascending. q in (0, 1].
Percentile nearest_rank(const std::vector<double>& sorted, double q);

// Median of an unsorted copy (nearest-rank, q = 0.5); 0 for no values.
double median(std::vector<double> values);

// What one fixed-work round of a workload produced. `values` are host
// measurements (they vary run to run); `exact` are counts that must repeat
// bit for bit for the same seed and form the output check's reference.
struct RoundResult {
  double setup_s = 0.0;
  double wall_s = 0.0;          // timed phase only
  // Wall time of each fixed-work segment of the timed phase, in order (one
  // Monte-Carlo case, one simulator run, one stretch between service client
  // barriers); empty means one segment, wall_s.
  std::vector<double> segment_s;
  std::uint64_t ops = 0;        // completed work units in the timed phase
  std::uint64_t failed = 0;     // units that failed the output check
  std::map<std::string, double> values;
  std::map<std::string, std::uint64_t> exact;
  std::vector<std::string> errors;
};

// Throughput of a round's work over the fastest time of each of its
// segments across the rounds. Every round does the same work, and load from
// other tenants of a shared host only ever slows a segment down, so the
// fastest times follow the program rather than the host. 0 for no rounds.
double best_ops_per_s(const std::vector<const RoundResult*>& rounds);

// Round size relative to the benchmark's fixed budget (1.0 = the timed
// configuration; the tests use small fractions).
struct RoundSpec {
  std::uint64_t seed = 1;
  double scale = 1.0;
  bool trace = false;
};

// Peak resident set of this process image in MB (VmHWM).
double peak_rss_mb();

// nproc, CPU model and ISA flags, compiler, build type, SUDOKU_OBS and the
// active CRC-31 kernel.
sudoku::exp::JsonObject fingerprint();

// Keeps a computed value alive so the optimizer cannot drop timed work.
void keep(std::uint64_t v);

}  // namespace perfbench
