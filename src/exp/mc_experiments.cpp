#include "exp/mc_experiments.h"

#include <chrono>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/json_parse.h"
#include "exp/engine.h"
#include "exp/metrics_io.h"
#include "exp/sharder.h"
#include "exp/shutdown.h"
#include "exp/thread_pool.h"
#include "exp/work_queue.h"

namespace sudoku::exp {

namespace {

constexpr std::uint64_t kPayloadVersion = 1;

// Canonical config fingerprinting for checkpoint keys. Doubles are hashed
// by bit pattern — any representable change invalidates, equal bits match.
void feed(std::ostringstream& os, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  os << bits << '|';
}
void feed(std::ostringstream& os, std::uint64_t v) { os << v << '|'; }

// The key of one experiment: the scheme, the kernel config, the shard
// plan, and `front`, the front-end's inputs outside both. The scheme is
// named by its prototype's name, geometry and storage overhead, which for
// SuDoku covers the level, line count, inner code and group size, plus
// SuDoku's SDR mismatch cap, which none of those show.
std::uint64_t config_key(const baselines::CacheScheme& scheme,
                         const baselines::BaselineMcConfig& c, std::uint64_t chunk,
                         const std::string& scope, const std::string& front) {
  std::ostringstream os;
  os << scope << '|' << front << '|' << scheme.name() << '|';
  feed(os, scheme.num_units());
  feed(os, static_cast<std::uint64_t>(scheme.bits_per_unit()));
  feed(os, scheme.overhead_bits_per_line());
  if (const auto* sudoku = dynamic_cast<const baselines::SudokuScheme*>(&scheme)) {
    feed(os, static_cast<std::uint64_t>(
                 sudoku->controller().config().sdr_mismatch_cap()));
  }
  feed(os, c.ber);
  feed(os, c.max_intervals);
  feed(os, c.target_failures);
  feed(os, c.seed);
  feed(os, static_cast<std::uint64_t>(c.fixed_fault_count + 1));
  // Scenario identity (spec + geometry + seed): checkpoints recorded under
  // one fault scenario must never be adopted by a run under another.
  feed(os, c.scenario ? c.scenario->fingerprint() : std::uint64_t{0});
  feed(os, chunk);  // the shard plan is part of the key
  return fnv1a64(os.str());
}

// SuDoku's inputs outside the scheme and its kernel config: host writes.
std::string sudoku_front(const reliability::McConfig& c) {
  std::ostringstream os;
  os << "mc|";
  feed(os, c.host_writes_per_interval);
  feed(os, c.wer);
  return os.str();
}

// The one engine adapter: checkpoint and fleet wiring, one formatted
// prototype per experiment, the sharded run and its timing.
template <typename Result>
Result run_parallel(const SchemeFactory& factory, baselines::BaselineMcConfig config,
                    const baselines::KernelHooks& hooks, const std::string& front,
                    const char* default_scope, const ExpOptions& options,
                    RunStats* stats) {
  config.per_trial_seed_streams = true;
  const std::uint64_t chunk =
      options.chunk ? options.chunk : default_chunk(config.max_intervals);
  const auto shards = make_shards(config.max_intervals, chunk);
  ThreadPool pool(options.threads);
  const auto t0 = std::chrono::steady_clock::now();
  // One formatted image for the whole experiment, freed with it: every
  // shard runs on a clone and reads the prototype's array as golden.
  const std::unique_ptr<baselines::CacheScheme> prototype = factory();
  const Rng rng = baselines::format_for_run(*prototype, config);

  RunShardedOptions<Result> opt;
  opt.target_failures = config.target_failures;
  opt.report = options.report;
  opt.after_shard = options.after_shard;
  if (options.checkpoint) {
    opt.checkpoint = options.checkpoint;
    opt.key.experiment =
        options.checkpoint_scope.empty() ? default_scope : options.checkpoint_scope;
    opt.key.config_hash =
        config_key(*prototype, config, chunk, options.checkpoint_scope, front);
    opt.key.base_seed = config.seed;
    opt.encode = &encode_payload<Result>;
    opt.decode = &decode_payload<Result>;
  }
  // Fleet mode: shards are claimed through the checkpoint store by a queue
  // that lives until the engine call returns.
  std::optional<ShardWorkQueue> queue;
  if (options.fleet) {
    if (!opt.checkpoint) {
      throw std::runtime_error(
          "ExpOptions: fleet mode requires a checkpoint store (the shared "
          "store is how workers coordinate)");
    }
    WorkQueueOptions qopt;
    qopt.poll = std::chrono::milliseconds(options.poll_ms);
    queue.emplace(opt.checkpoint, opt.key, qopt);
    opt.queue = &*queue;
  }
  Result merged = run_sharded<Result>(
      pool, shards, opt,
      [&](const Shard& shard, const EarlyStop& early) -> std::optional<Result> {
        // The shard's trial window, and a stop hook for the early stop or a
        // requested shutdown: an abandoned shard's partial result is never
        // recorded.
        baselines::BaselineMcConfig window = config;
        window.first_trial = shard.first;
        window.max_intervals = shard.count;
        bool aborted = false;
        window.stop_hook = [&early, &aborted] {
          if (early.triggered() || shutdown_requested()) aborted = true;
          return aborted;
        };
        Result result = baselines::run_mc<Result>(*prototype, rng, window, hooks);
        if (aborted) return std::nullopt;
        return result;
      });
  const auto t1 = std::chrono::steady_clock::now();
  if (stats) {
    stats->trials = merged.intervals;
    stats->wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    stats->threads = pool.size();
    stats->shards = shards.size();
  }
  return merged;
}

}  // namespace

reliability::McResult run_montecarlo_parallel(const reliability::McConfig& config,
                                              const ExpOptions& options,
                                              RunStats* stats) {
  return run_parallel<reliability::McResult>(
      [&config] { return reliability::make_scheme(config); },
      reliability::kernel_config(config), reliability::kernel_hooks(config),
      sudoku_front(config), "montecarlo", options, stats);
}

baselines::BaselineMcResult run_baseline_mc_parallel(
    const SchemeFactory& factory, const baselines::BaselineMcConfig& config,
    const ExpOptions& options, RunStats* stats) {
  return run_parallel<baselines::BaselineMcResult>(factory, config, {}, "baseline",
                                                   "baseline_mc", options, stats);
}

template <typename Result>
std::string encode_payload(const Result& r) {
  JsonObject o;
  o.set("v", kPayloadVersion);
  for (const auto& [key, field] : Result::fields()) o.set(key, r.*field);
  o.set("metrics", metrics_to_json(r.metrics));
  return o.str();
}

template <typename Result>
std::optional<Result> decode_payload(const std::string& payload) {
  const auto root = json_parse(payload);
  if (!root) return std::nullopt;
  const auto read_u64 = [&root](const char* key) -> std::optional<std::uint64_t> {
    const JsonValue* v = root->find(key);
    return v ? v->as_u64() : std::nullopt;
  };
  if (read_u64("v") != kPayloadVersion) return std::nullopt;
  Result r;
  for (const auto& [key, field] : Result::fields()) {
    const auto n = read_u64(key);
    if (!n) return std::nullopt;
    r.*field = *n;
  }
  const JsonValue* m = root->find("metrics");
  auto metrics = m ? metrics_from_json(*m) : std::nullopt;
  if (!metrics) return std::nullopt;
  r.metrics = std::move(*metrics);
  return r;
}

template std::string encode_payload(const reliability::McResult&);
template std::optional<reliability::McResult> decode_payload(const std::string&);
template std::string encode_payload(const baselines::BaselineMcResult&);
template std::optional<baselines::BaselineMcResult> decode_payload(const std::string&);

}  // namespace sudoku::exp
