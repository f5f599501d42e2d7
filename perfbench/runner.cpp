// Benchmark runner: runs one workload for a time budget as a sequence of
// identical fixed-work rounds and prints one JSON object on stdout.
//
//   perfbench_runner run <mc-campaign|svc-mixed|sim-llc> --seed N
//       --seconds S --trace 0|1 [--min-rounds K] --traces DIR
//   perfbench_runner layers --seed N --traces DIR
//
// Every round repeats the same inputs, so the exact counts of all rounds
// must agree. The run's figures are medians over rounds, except ops_per_s,
// which takes each segment's fastest round (see best_ops_per_s). With --trace 1
// the rounds alternate untraced and traced, and the tracing overhead is the
// median over these pairs, so host speed drift between separate runs does
// not enter it.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"

using namespace perfbench;
using sudoku::exp::JsonObject;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_runner: %s\n"
               "usage: perfbench_runner run <mc-campaign|svc-mixed|sim-llc> --seed N "
               "--seconds S --trace 0|1 [--min-rounds K] --traces DIR\n"
               "       perfbench_runner layers --seed N --traces DIR\n",
               msg);
  std::exit(2);
}

struct Args {
  std::string mode, workload, traces;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned min_rounds = 3;
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) usage("missing mode");
  a.mode = argv[1];
  int i = 2;
  if (a.mode == "run") {
    if (argc < 3) usage("missing workload");
    a.workload = argv[i++];
  } else if (a.mode != "layers") {
    usage("unknown mode");
  }
  for (; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = std::strtoul(v, &end, 10) != 0;
    } else if (flag == "--min-rounds") {
      a.min_rounds = static_cast<unsigned>(std::strtoul(v, &end, 10));
    } else if (flag == "--traces") {
      a.traces = v;
      continue;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end == v || *end != '\0') usage(("bad value for " + flag).c_str());
  }
  if (a.traces.empty()) usage("--traces is required");
  return a;
}

RoundResult run_round(const Args& a, const RoundSpec& spec) {
  if (a.mode == "layers") return run_layer_probes(spec, a.traces);
  if (a.workload == "mc-campaign") return run_mc_campaign(spec);
  if (a.workload == "svc-mixed") return run_svc_mixed(spec);
  if (a.workload == "sim-llc") return run_sim_llc(spec, a.traces);
  usage(("unknown workload " + a.workload).c_str());
}

double ops_per_s(const RoundResult& r) {
  return r.wall_s > 0.0 ? static_cast<double>(r.ops) / r.wall_s : 0.0;
}

// Medians over rounds of every host measurement; ops_per_s is the
// best-segment throughput.
JsonObject medians(const std::vector<const RoundResult*>& rounds) {
  std::map<std::string, std::vector<double>> series;
  for (const RoundResult* r : rounds) {
    series["setup_s"].push_back(r->setup_s);
    series["wall_s"].push_back(r->wall_s);
    for (const auto& [k, v] : r->values) series[k].push_back(v);
  }
  JsonObject values;
  for (const auto& [k, v] : series) values.set(k, median(v));
  values.set("ops_per_s", best_ops_per_s(rounds));
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  // A fixed mmap threshold keeps large buffers on mmap, so freed model
  // arrays return to the OS and peak RSS does not depend on the order in
  // which earlier rounds allocated and freed them.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const bool paired = a.mode == "run" && a.trace;
  const unsigned min_steps = a.mode == "layers" ? 1 : std::max(1u, a.min_rounds);

  // One step is one round, or an untraced-then-traced pair of rounds.
  std::vector<RoundResult> rounds;
  const auto run_one = [&](bool trace) {
    rounds.push_back(run_round(a, RoundSpec{.seed = a.seed, .trace = trace}));
    const RoundResult& r = rounds.back();
    std::fprintf(stderr, "  round %zu%s: setup %.4f s, timed %.4f s, %llu ops, %llu failed\n",
                 rounds.size(), trace ? " (traced)" : "", r.setup_s, r.wall_s,
                 static_cast<unsigned long long>(r.ops),
                 static_cast<unsigned long long>(r.failed));
  };
  const auto t0 = Clock::now();
  for (unsigned steps = 0;
       steps < min_steps || seconds_between(t0, Clock::now()) < a.seconds; ++steps) {
    if (paired) run_one(false);
    run_one(a.trace);
    if (rounds.size() >= 200) break;
  }

  // Output check across rounds: identical inputs must give identical counts.
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  for (std::size_t k = 0; k < rounds.size(); ++k) {
    const RoundResult& r = rounds[k];
    attempted += r.ops;
    failed += r.failed;
    for (const auto& e : r.errors) errors.push_back("round " + std::to_string(k + 1) + ": " + e);
    if (k > 0 && r.exact != rounds[0].exact) {
      errors.push_back("round " + std::to_string(k + 1) + ": exact counts differ from round 1");
      failed += r.ops - std::min(r.ops, r.failed);
    }
  }

  // Medians over the traced rounds; in paired mode also over the untraced
  // ones, and the median traced/untraced throughput loss over the pairs.
  std::vector<const RoundResult*> traced, untraced;
  std::vector<double> overhead;
  for (std::size_t k = 0; k < rounds.size(); ++k) {
    if (paired && k % 2 == 0) {
      untraced.push_back(&rounds[k]);
      overhead.push_back(1.0 - ops_per_s(rounds[k + 1]) / ops_per_s(rounds[k]));
    } else {
      traced.push_back(&rounds[k]);
    }
  }
  JsonObject values = medians(traced);
  values.set("peak_rss_mb", peak_rss_mb());
  if (paired) values.set("trace_overhead_frac", median(overhead));
  JsonObject exact;
  for (const auto& [k, v] : rounds[0].exact) exact.set(k, v);
  sudoku::exp::JsonArray errs;
  for (const auto& e : errors) errs.push(e);

  JsonObject result;
  result.set("workload", a.mode == "layers" ? std::string("layers") : a.workload)
      .set("seed", a.seed)
      .set("trace", a.trace)
      .set("rounds", static_cast<std::uint64_t>(rounds.size()))
      .set("attempted", attempted)
      .set("failed", failed)
      .set("errors", errs)
      .set("values", values)
      .set("exact", exact);
  if (paired) result.set("untraced", medians(untraced));
  result.set("fingerprint", fingerprint());
  std::printf("%s\n", result.str().c_str());
  return 0;
}
