// The shared plumbing of the table/figure reproduction binaries:
//   * BenchArgs — the one command line (docs/repro.md, "Command-line
//     contract");
//   * Table — console table and JSON rows from one column list;
//   * Run — the bench runner: engine calls with checkpointing, shard
//     report and interruption handling (docs/robustness.md), and the
//     artifact epilogue;
//   * the paper's Fig. 8 / Fig. 9 workload roster and its with/ideal
//     simulation pair;
//   * scientific formatting that matches the paper's tables, and the
//     batch-sweep accounting of bench_codec_throughput.
#pragma once

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "exp/checkpoint.h"
#include "exp/json.h"
#include "exp/mc_experiments.h"
#include "exp/rare_event.h"
#include "exp/result_sink.h"
#include "exp/shutdown.h"
#include "sim/timing_sim.h"
#include "sim/workload.h"

namespace sudoku::bench {

inline void print_header(const std::string& title) {
  std::printf("\n==========================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==========================================================================\n");
}

inline void print_subnote(const std::string& note) {
  std::printf("  %s\n", note.c_str());
}

inline std::string sci(double v) {
  if (v == 0.0) return "0";
  char buf[32];
  if (v >= 0.01 && v < 1e5) {
    std::snprintf(buf, sizeof(buf), "%.3g", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2e", v);
  }
  return buf;
}

inline std::string fixed(double v, int digits) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

// Batch-sweep accounting helpers. A stream of `items` units consumed
// `batch` at a time ends with a partial batch of items % batch units
// (when that is nonzero); throughput numbers must charge each batch its
// *actual* width — crediting the nominal `batch` to a partial tail
// overstates the processed payload. Regression-tested in
// tests/test_bench_util.cpp.
inline std::uint64_t batch_count(std::uint64_t items, std::uint64_t batch) {
  return batch == 0 ? 0 : (items + batch - 1) / batch;
}

// Width of batch `index` (0-based): `batch` for all but a partial final
// batch, 0 past the end.
inline std::uint64_t batch_width(std::uint64_t items, std::uint64_t batch,
                                 std::uint64_t index) {
  if (batch == 0) return 0;
  const std::uint64_t start = index * batch;
  if (start >= items) return 0;
  return items - start < batch ? items - start : batch;
}

// Total units actually processed by batches [0, nbatches): min(items,
// nbatches*batch). This is the payload a batched kernel timed over
// `nbatches` batches really touched.
inline std::uint64_t batched_items(std::uint64_t items, std::uint64_t batch,
                                   std::uint64_t nbatches) {
  std::uint64_t total = 0;
  for (std::uint64_t b = 0; b < nbatches; ++b) total += batch_width(items, batch, b);
  return total;
}

// Shared command line for the artifact-emitting benches:
//   --threads=N       pool width (0 = one per hardware thread)
//   --seed=S          base seed (0 = keep the bench's built-in default)
//   --json            also dump the artifact JSON to stdout
//   --out=DIR         artifact directory (default bench/out)
//   --scale=K         multiply trial budgets by K (bare "K" also accepted,
//                     matching the benches' legacy positional argument)
//   --checkpoint=DIR  persist each finished shard under DIR (atomic
//                     writes); a SIGINT/SIGTERM'd run exits with code 75
//                     and can be continued with --resume
//   --resume          replay finished shards from --checkpoint=DIR and
//                     recompute only the rest (byte-identical artifacts)
//   --fleet           claim shards through the checkpoint store so N
//                     processes sharing --checkpoint=DIR split the run
//                     (docs/fleet.md); requires --checkpoint
//   --help            print usage and exit 0
//
// Malformed values ("--seed=abc", overflow) and unknown flags print the
// usage message and exit 2 instead of escaping as uncaught exceptions.
//
// Not every bench is engine-backed: a pure analytical bench has no worker
// pool, no trial budget and nothing to checkpoint, so silently accepting
// --threads there would let a typo'd invocation pretend it ran wider.
// Each bench declares what it supports via Options; unsupported flags take
// the same usage+exit-2 path as malformed ones, and the usage text lists
// only the flags the bench actually honours.
struct BenchArgs {
  // What the bench's command line supports. Defaults describe the fully
  // engine-backed benches; analytical ones turn the knobs off.
  struct Options {
    bool threads = true;     // accepts --threads (has a worker pool)
    bool checkpoint = true;  // accepts --checkpoint/--resume (engine-backed)
    bool scale = true;       // accepts --scale / positional K (trial budget)
    bool load = false;       // accepts --clients/--banks/--duration-ms
                             // (drives a concurrent service load sweep)
    // Bench-specific boolean flags, spelled with the leading "--"
    // (e.g. "--gbench"). Parsed occurrences land in BenchArgs::extras.
    std::vector<std::string> extra_flags;
  };

  std::uint64_t scale = 1;
  unsigned threads = 0;
  // Load-sweep overrides (Options::load benches). 0 = "not given, use the
  // bench's sweep defaults"; an explicit 0 on the command line is rejected
  // — a service with zero clients or banks measures nothing.
  std::uint32_t clients = 0;
  std::uint32_t banks = 0;
  std::uint32_t duration_ms = 0;
  std::uint64_t seed = 0;
  bool json = false;
  std::string out_dir = "bench/out";
  std::string checkpoint_dir;  // empty = checkpointing off
  bool resume = false;
  bool fleet = false;  // multi-process shard claims over checkpoint_dir
  std::vector<std::string> extras;  // matched Options::extra_flags

  bool has_extra(const std::string& flag) const {
    for (const auto& e : extras) {
      if (e == flag) return true;
    }
    return false;
  }

  // Returns config.seed unless --seed overrode it.
  std::uint64_t seed_or(std::uint64_t fallback) const {
    return seed ? seed : fallback;
  }

  bool checkpointing() const { return !checkpoint_dir.empty(); }

  static void print_usage(const char* prog, std::FILE* to) {
    print_usage(prog, to, Options());
  }

  static void print_usage(const char* prog, std::FILE* to, const Options& opts) {
    std::string synopsis = std::string("usage: ") + prog + " [--seed=S] [--json] [--out=DIR]";
    if (opts.threads) synopsis += " [--threads=N]";
    if (opts.scale) synopsis += " [--scale=K | K]";
    if (opts.checkpoint) synopsis += " [--checkpoint=DIR [--resume] [--fleet]]";
    if (opts.load) synopsis += " [--clients=N] [--banks=N] [--duration-ms=N]";
    for (const auto& f : opts.extra_flags) synopsis += " [" + f + "]";
    synopsis += " [--help]";
    std::fprintf(to, "%s\n\n", synopsis.c_str());
    if (opts.threads) {
      std::fprintf(to, "  --threads=N       worker pool width (0 = one per hardware thread)\n");
    }
    std::fprintf(to,
                 "  --seed=S          base seed override (0 keeps the bench default)\n"
                 "  --json            dump the artifact JSON to stdout too\n"
                 "  --out=DIR         artifact directory (default bench/out)\n");
    if (opts.scale) {
      std::fprintf(to, "  --scale=K         multiply trial budgets by K\n");
    }
    if (opts.checkpoint) {
      std::fprintf(to,
                   "  --checkpoint=DIR  persist finished shards; interrupt exits 75 (resumable)\n"
                   "  --resume          replay finished shards from --checkpoint=DIR\n"
                   "  --fleet           claim shards via DIR so N processes split the run\n");
    }
    if (opts.load) {
      std::fprintf(to,
                   "  --clients=N       pin the client-thread count (default: sweep)\n"
                   "  --banks=N         pin the bank count (default: sweep)\n"
                   "  --duration-ms=N   per-point run length in milliseconds\n");
    }
    std::fprintf(to, "  --help            this message\n");
  }

  static BenchArgs parse(int argc, char** argv) {
    return parse(argc, argv, Options());
  }

  static BenchArgs parse(int argc, char** argv, const Options& opts) {
    BenchArgs args;
    const char* prog = argc > 0 ? argv[0] : "bench";
    const auto usage_error = [&prog, &opts](const std::string& msg) {
      std::fprintf(stderr, "%s: %s\n", prog, msg.c_str());
      print_usage(prog, stderr, opts);
      std::exit(2);
    };
    // Full-string unsigned parse: rejects empty, signs, junk, overflow —
    // std::stoull would throw (or worse, accept "12abc") instead.
    const auto parse_u64 = [&usage_error](const std::string& flag,
                                          const std::string& text) {
      if (text.empty() ||
          text.find_first_not_of("0123456789") != std::string::npos) {
        usage_error("invalid value for " + flag + ": '" + text + "'");
      }
      errno = 0;
      char* end = nullptr;
      const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
      if (errno == ERANGE || end != text.c_str() + text.size()) {
        usage_error("value out of range for " + flag + ": '" + text + "'");
      }
      return static_cast<std::uint64_t>(v);
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value_of = [&arg](const std::string& prefix) {
        return arg.substr(prefix.size());
      };
      const auto reject_unsupported = [&usage_error](const std::string& flag,
                                                     const char* why) {
        usage_error(flag + " is not supported by this bench (" + why + ")");
      };
      if (arg.rfind("--threads=", 0) == 0) {
        if (!opts.threads) {
          reject_unsupported("--threads", "analytical, no worker pool");
        }
        const std::uint64_t v = parse_u64("--threads", value_of("--threads="));
        if (v > std::numeric_limits<unsigned>::max()) {
          usage_error("value out of range for --threads: '" + arg + "'");
        }
        args.threads = static_cast<unsigned>(v);
      } else if (arg.rfind("--seed=", 0) == 0) {
        args.seed = parse_u64("--seed", value_of("--seed="));
      } else if (arg.rfind("--scale=", 0) == 0) {
        if (!opts.scale) {
          reject_unsupported("--scale", "no trial budget to multiply");
        }
        args.scale = parse_u64("--scale", value_of("--scale="));
      } else if (arg.rfind("--out=", 0) == 0) {
        args.out_dir = value_of("--out=");
      } else if (arg.rfind("--checkpoint=", 0) == 0) {
        if (!opts.checkpoint) {
          reject_unsupported("--checkpoint", "nothing to checkpoint");
        }
        args.checkpoint_dir = value_of("--checkpoint=");
        if (args.checkpoint_dir.empty()) {
          usage_error("--checkpoint needs a directory");
        }
      } else if (arg.rfind("--clients=", 0) == 0 ||
                 arg.rfind("--banks=", 0) == 0 ||
                 arg.rfind("--duration-ms=", 0) == 0) {
        const std::string flag = arg.substr(0, arg.find('='));
        if (!opts.load) {
          reject_unsupported(flag, "not a load-sweep bench");
        }
        const std::uint64_t v = parse_u64(flag, value_of(flag + "="));
        if (v == 0 || v > std::numeric_limits<std::uint32_t>::max()) {
          usage_error("value out of range for " + flag + ": '" + arg + "'");
        }
        if (flag == "--clients") {
          args.clients = static_cast<std::uint32_t>(v);
        } else if (flag == "--banks") {
          args.banks = static_cast<std::uint32_t>(v);
        } else {
          args.duration_ms = static_cast<std::uint32_t>(v);
        }
      } else if (arg == "--resume") {
        if (!opts.checkpoint) {
          reject_unsupported("--resume", "nothing to checkpoint");
        }
        args.resume = true;
      } else if (arg == "--fleet") {
        if (!opts.checkpoint) {
          reject_unsupported("--fleet", "nothing to checkpoint");
        }
        args.fleet = true;
      } else if (arg == "--json") {
        args.json = true;
      } else if (arg == "--help" || arg == "-h") {
        print_usage(prog, stdout, opts);
        std::exit(0);
      } else if (std::find(opts.extra_flags.begin(), opts.extra_flags.end(), arg) !=
                 opts.extra_flags.end()) {
        args.extras.push_back(arg);
      } else if (opts.scale && !arg.empty() &&
                 arg.find_first_not_of("0123456789") == std::string::npos) {
        args.scale = parse_u64("scale", arg);  // legacy positional scale
      } else {
        usage_error("unknown argument '" + arg + "'");
      }
    }
    if (args.resume && !args.checkpointing()) {
      usage_error("--resume requires --checkpoint=DIR");
    }
    if (args.fleet && !args.checkpointing()) {
      usage_error("--fleet requires --checkpoint=DIR (the shared store is "
                  "how workers coordinate)");
    }
    return args;
  }
};

// The command line of a pure analytical bench: no pool, no budget, no
// checkpointable shards — only --seed/--json/--out (and --help) apply.
inline BenchArgs::Options analytical_options() {
  BenchArgs::Options opts;
  opts.threads = false;
  opts.checkpoint = false;
  opts.scale = false;
  return opts;
}

// A bench that drives the functional machinery on one thread with a
// scalable trial budget, but has no pool and no engine-backed shards.
inline BenchArgs::Options single_threaded_options() {
  BenchArgs::Options opts;
  opts.threads = false;
  opts.checkpoint = false;
  return opts;
}

// One paper-vs-measured row for the artifact's "paper_comparison" section.
// scripts/repro.sh collects these across all artifacts and prints the
// EXPERIMENTS.md-style delta table from the artifacts themselves; paper
// values that the paper prints as text (">1e14", "3.49-3.9 h") stay
// strings, numeric ones get a mechanical measured/paper ratio downstream.
inline exp::JsonObject paper_row(const std::string& quantity, double paper,
                                 double measured) {
  exp::JsonObject row;
  row.set("quantity", quantity).set("paper", paper).set("measured", measured);
  return row;
}

inline exp::JsonObject paper_row(const std::string& quantity,
                                 const std::string& paper, double measured) {
  exp::JsonObject row;
  row.set("quantity", quantity).set("paper", paper).set("measured", measured);
  return row;
}

// ---- bench::Table -------------------------------------------------------
template <typename... Args>
std::string format_str(const std::string& fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt.c_str(), args...);
  return buf;
}

// One column: console header, cell format, JSON key. `fmt` is a printf
// format with one conversion and optional literal text ("%9.0fx", "| %8s"):
// %s prints doubles through sci() and integers in decimal, %d/%u integers,
// %f/%e/%g numbers; no length modifiers. Empty fmt: JSON-only column;
// empty key: console-only column.
struct Column {
  std::string header, fmt, key;
};

// One row value. It keeps the C++ type it was built from, so its JSON is
// exactly what JsonObject::set renders for that type.
class Cell {
 public:
  Cell(const char* v) : v_(std::string(v)) {}
  Cell(std::string v) : v_(std::move(v)) {}
  Cell(double v) : v_(v) {}
  Cell(int v) : v_(std::int64_t{v}) {}
  Cell(std::int64_t v) : v_(v) {}
  Cell(unsigned v) : v_(std::uint64_t{v}) {}
  Cell(std::uint64_t v) : v_(v) {}
  Cell(bool v) : v_(v) {}

  void set(exp::JsonObject& row, const std::string& key) const {
    std::visit([&](const auto& v) { row.set(key, v); }, v_);
  }

  // `spec` is "%" plus flags, width and precision; `conv` the conversion.
  std::string str(const std::string& spec, char conv) const {
    return std::visit(
        [&](const auto& v) -> std::string {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, std::string>) {
            return format_str(spec + 's', v.c_str());
          } else if constexpr (std::is_same_v<T, bool>) {
            return format_str(spec + 's', v ? "yes" : "no");
          } else if (conv == 's') {
            const bool real = std::is_same_v<T, double>;
            return format_str(spec + 's', (real ? sci(v) : std::to_string(v)).c_str());
          } else if (conv == 'd') {
            return format_str(spec + "lld", static_cast<long long>(v));
          } else if (conv == 'u') {
            return format_str(spec + "llu", static_cast<unsigned long long>(v));
          } else {
            return format_str(spec + conv, static_cast<double>(v));
          }
        },
        v_);
  }

 private:
  std::variant<std::string, double, std::int64_t, std::uint64_t, bool> v_;
};

// A console table and its JSON rows from one column list, so each value
// is named once. The header line prints on construction; row(...) takes
// one value per column, prints the line and appends the JSON row, which
// it returns for nested extras.
class Table {
 public:
  explicit Table(const std::vector<Column>& columns) {
    std::string head;
    for (const auto& c : columns) {
      Col col{c.key};
      if (!c.fmt.empty()) {
        const std::size_t i = c.fmt.find('%');
        const std::size_t j = c.fmt.find_first_not_of("-+ #0123456789.", i + 1);
        col.prefix = c.fmt.substr(0, i);
        col.spec = c.fmt.substr(i, j - i);
        col.conv = c.fmt[j];
        col.suffix = c.fmt.substr(j + 1);
        // Headers take the cell's width and alignment, not its precision.
        head += std::string(col.prefix.size() + 1, ' ') +
                format_str(col.spec.substr(0, col.spec.find('.')) + 's', c.header.c_str()) +
                std::string(col.suffix.size(), ' ');
      }
      cols_.push_back(std::move(col));
    }
    if (!head.empty()) std::printf("\n %s\n", head.c_str());
  }

  template <typename... Ts>
  exp::JsonObject& row(const Ts&... values) {
    const Cell cells[] = {Cell(values)...};
    if (sizeof...(Ts) != cols_.size()) {
      std::fprintf(stderr, "bench::Table: %zu values for %zu columns\n",
                   sizeof...(Ts), cols_.size());
      std::abort();
    }
    std::string line;
    exp::JsonObject& json = rows_.emplace_back();
    for (std::size_t i = 0; i < cols_.size(); ++i) {
      const Col& c = cols_[i];
      if (c.conv) line += ' ' + c.prefix + cells[i].str(c.spec, c.conv) + c.suffix;
      if (!c.key.empty()) cells[i].set(json, c.key);
    }
    if (!line.empty()) std::printf(" %s\n", line.c_str());
    return json;
  }

  exp::JsonArray json() const {
    exp::JsonArray out;
    for (const auto& r : rows_) out.push(r);
    return out;
  }

 private:
  struct Col {
    std::string key, prefix, spec, suffix;
    char conv = 0;  // 0: JSON-only
  };
  std::vector<Col> cols_;
  std::deque<exp::JsonObject> rows_;  // row() hands out references
};

// ---- bench::Run ---------------------------------------------------------
// The one bench runner. It parses the command line, owns the engine
// plumbing (signal handlers, checkpoint store, shard report, per-call
// ExpOptions, interruption) and writes the artifact:
//
//   bench::Run run(argc, argv);                   // engine-backed bench
//   const auto r = run.mc(cfg, "my_bench.case");  // exits 75 if interrupted
//   ...
//   run.finish("my_bench", config, result);       // artifact + summary
//
// Engine calls accumulate `stats` and merge their metrics registries. The
// artifact carries a "metrics" section once an mc()/baseline() call merged
// one or the bench used metrics() itself — never otherwise. A bench that
// does its own work instead of calling the engine counts it in
// stats.trials; finish() then fills in the wall clock since construction
// and one thread/shard unless the bench set them.
class Run {
 public:
  explicit Run(int argc, char** argv,
               const BenchArgs::Options& opts = BenchArgs::Options())
      : args(BenchArgs::parse(argc, argv, opts)) {
    if (opts.checkpoint) exp::install_signal_handlers();
    if (args.checkpointing()) store_.emplace(args.checkpoint_dir, args.resume);
  }

  const BenchArgs args;
  exp::RunStats stats;  // everything the artifact's "throughput" reports
  exp::RunStats last;   // the most recent engine call alone

  reliability::McResult mc(const reliability::McConfig& cfg,
                           const std::string& scope) {
    auto r = exp::run_montecarlo_parallel(cfg, options(scope), &reset_last());
    settle();
    metrics() += r.metrics;
    return r;
  }

  baselines::BaselineMcResult baseline(const exp::SchemeFactory& factory,
                                       const baselines::BaselineMcConfig& cfg,
                                       const std::string& scope) {
    auto r = exp::run_baseline_mc_parallel(factory, cfg, options(scope),
                                           &reset_last());
    settle();
    metrics() += r.metrics;
    return r;
  }

  exp::RareEventEstimate rare(const exp::SchemeFactory& factory,
                              const exp::RareEventConfig& cfg,
                              const std::string& scope) {
    auto est = exp::run_rare_event(factory, cfg, options(scope), &reset_last());
    settle();
    return est;
  }

  // The artifact's metrics registry; touching it puts "metrics" in.
  obs::MetricsRegistry& metrics() {
    has_metrics_ = true;
    return metrics_;
  }

  // When a SIGINT/SIGTERM arrived, the run's remaining work was skipped,
  // so no artifact may be written: say how to continue and exit with the
  // "interrupted, resumable" code (75; docs/robustness.md). Engine calls
  // check this themselves; call it after other long, uninterruptible steps.
  void exit_if_interrupted() const {
    if (!exp::shutdown_requested()) return;
    if (args.checkpointing()) {
      std::fprintf(stderr,
                   "\ninterrupted: finished shards are checkpointed under '%s'; "
                   "rerun with --checkpoint=%s --resume to continue\n",
                   args.checkpoint_dir.c_str(), args.checkpoint_dir.c_str());
    } else {
      std::fprintf(stderr,
                   "\ninterrupted: no artifact written (rerun with "
                   "--checkpoint=DIR to make runs resumable)\n");
    }
    std::exit(exp::kExitInterrupted);
  }

  // Writes <out>/<name>.json atomically (throws on failure), prints the
  // summary and, when checkpointing or degraded, the fault-tolerance line,
  // and dumps the same root to stdout under --json.
  std::filesystem::path finish(const std::string& name,
                               const exp::JsonObject& config,
                               const exp::JsonObject& result) {
    if (!engine_ran_) {
      stats.wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
      if (stats.threads == 0) stats.threads = 1;
      if (stats.shards == 0) stats.shards = 1;
    }
    const auto root = exp::ResultSink::make_root(
        name, config, result, stats, has_metrics_ ? &metrics_ : nullptr, &report_);
    const auto path = exp::ResultSink(args.out_dir).write_raw(name, root);
    std::printf("\n  %llu trials in %.2f s (%s trials/s, %u threads) -> %s\n",
                static_cast<unsigned long long>(stats.trials), stats.wall_seconds,
                sci(stats.trials_per_second()).c_str(), stats.threads,
                path.string().c_str());
    if (store_ || report_.degraded()) {
      std::printf("  fault tolerance: %llu/%llu shards resumed, %llu retries, "
                  "%llu quarantined (%llu trials)\n",
                  static_cast<unsigned long long>(report_.shards_resumed),
                  static_cast<unsigned long long>(report_.shards_total),
                  static_cast<unsigned long long>(report_.shards_retried),
                  static_cast<unsigned long long>(report_.shards_quarantined),
                  static_cast<unsigned long long>(report_.trials_quarantined));
    }
    if (args.json) std::printf("%s\n", root.str(/*pretty=*/true).c_str());
    return path;
  }

 private:
  exp::ExpOptions options(const std::string& scope) {
    exp::ExpOptions o;
    o.threads = args.threads;
    o.checkpoint = store_ ? &*store_ : nullptr;
    o.checkpoint_scope = scope;
    o.report = &report_;
    o.fleet = args.fleet;
    return o;
  }

  exp::RunStats& reset_last() {
    last = exp::RunStats();
    return last;
  }

  void settle() {
    exit_if_interrupted();
    stats += last;
    engine_ran_ = true;
  }

  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::optional<exp::CheckpointStore> store_;
  exp::ShardRunReport report_;
  obs::MetricsRegistry metrics_;
  bool has_metrics_ = false;
  bool engine_ran_ = false;
};

// ---- Fig. 8 / Fig. 9 workloads -----------------------------------------
struct Workload {
  std::string label;
  std::string suite;
  std::vector<std::string> benchmarks;  // one per core slot
};

// The paper's roster, one single-benchmark workload each, then its four
// 8-core MIX workloads.
inline std::vector<Workload> paper_workloads() {
  std::vector<Workload> out;
  for (const auto& b : sim::benchmark_roster()) out.push_back({b.name, b.suite, {b.name}});
  const std::vector<std::vector<std::string>> mixes = {
      {"mcf", "gcc", "lbm", "swaptions", "comm1", "mummer", "x264", "soplex"},
      {"libquantum", "omnetpp", "canneal", "hmmer", "comm2", "tigr", "vips", "astar"},
      {"bwaves", "xalancbmk", "streamcluster", "gobmk", "comm3", "fasta-dna",
       "bodytrack", "milc"},
      {"GemsFDTD", "sjeng", "dedup", "perlbench", "comm4", "sphinx3", "ferret",
       "leslie3d"},
  };
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    out.push_back({"MIX" + std::to_string(m + 1), "MIX", mixes[m]});
  }
  return out;
}

// One workload on the Table VI system with SuDoku-Z and on the error-free
// ideal (SuDoku off), same seed and instruction budget.
struct SimPair {
  sim::SimResult with;
  sim::SimResult ideal;
};

inline SimPair run_sim_pair(const std::vector<std::string>& benchmarks,
                            std::uint64_t instructions_per_core, std::uint64_t seed) {
  sim::SimConfig with;
  with.instructions_per_core = instructions_per_core;
  with.seed = seed;
  sim::SimConfig ideal = with;
  ideal.sudoku.enabled = false;
  // Braced initializers evaluate in order: the SuDoku run goes first.
  return {sim::TimingSimulator(with).run(benchmarks),
          sim::TimingSimulator(ideal).run(benchmarks)};
}

}  // namespace sudoku::bench
