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

std::uint64_t resolve_chunk(const ExpOptions& options, std::uint64_t total) {
  return options.chunk ? options.chunk : default_chunk(total);
}

// Canonical config fingerprinting for checkpoint keys. Doubles are hashed
// by bit pattern — any representable change invalidates, equal bits match.
void feed(std::ostringstream& os, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  os << bits << '|';
}
void feed(std::ostringstream& os, std::uint64_t v) { os << v << '|'; }

std::uint64_t hash_mc_config(const reliability::McConfig& c, std::uint64_t chunk,
                             const std::string& scope) {
  std::ostringstream os;
  os << "mc|" << scope << '|';
  feed(os, static_cast<std::uint64_t>(c.cache.num_lines));
  feed(os, static_cast<std::uint64_t>(c.cache.group_size));
  feed(os, c.cache.ber);
  feed(os, c.cache.scrub_interval_s);
  feed(os, static_cast<std::uint64_t>(c.cache.inner_ecc_t));
  feed(os, static_cast<std::uint64_t>(c.level));
  feed(os, c.seed);
  feed(os, c.max_intervals);
  feed(os, c.target_failures);
  feed(os, std::uint64_t{1});  // was verify_against_golden (always on); keeps keys stable
  feed(os, static_cast<std::uint64_t>(c.fixed_fault_count + 1));
  feed(os, c.host_writes_per_interval);
  feed(os, c.wer);
  // Scenario identity (spec + geometry + seed): checkpoints recorded under
  // one fault scenario must never be adopted by a run under another.
  feed(os, c.scenario ? c.scenario->fingerprint() : std::uint64_t{0});
  feed(os, chunk);  // the shard plan is part of the key
  return fnv1a64(os.str());
}

std::uint64_t hash_baseline_config(const baselines::BaselineMcConfig& c,
                                   std::uint64_t chunk, const std::string& scope) {
  std::ostringstream os;
  os << "baseline|" << scope << '|';
  feed(os, c.ber);
  feed(os, c.max_intervals);
  feed(os, c.target_failures);
  feed(os, c.seed);
  feed(os, c.scenario ? c.scenario->fingerprint() : std::uint64_t{0});
  feed(os, chunk);
  return fnv1a64(os.str());
}

// Runs `launch` (which receives the shard plan) under wall-clock timing
// and fills `stats` from the merged result's interval count.
template <typename Result, typename LaunchFn>
Result timed_run(const ExpOptions& options, std::uint64_t total,
                 RunStats* stats, LaunchFn&& launch) {
  const std::uint64_t chunk = resolve_chunk(options, total);
  const auto shards = make_shards(total, chunk);
  ThreadPool pool(options.threads);
  const auto t0 = std::chrono::steady_clock::now();
  Result merged = launch(pool, shards);
  const auto t1 = std::chrono::steady_clock::now();
  if (stats) {
    stats->trials = merged.intervals;
    stats->wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    stats->threads = pool.size();
    stats->shards = shards.size();
  }
  return merged;
}

// Wraps one shard execution: installs the per-trial stream window, gives
// the shard the global intra-shard target (bounds overshoot), and reports
// std::nullopt when the shard was abandoned via the early-stop hook or a
// requested shutdown — the caller must not record such partial results.
template <typename Config, typename RunFn>
auto run_shard(Config config, const Shard& shard, const EarlyStop& early,
               RunFn&& run) -> std::optional<decltype(run(config))> {
  config.per_trial_seed_streams = true;
  config.first_trial = shard.first;
  config.max_intervals = shard.count;
  bool aborted = false;
  config.stop_hook = [&early, &aborted] {
    if (early.triggered() || shutdown_requested()) aborted = true;
    return aborted;
  };
  auto result = run(config);
  if (aborted) return std::nullopt;
  return result;
}

// Shared fault-tolerance wiring for both adapters.
template <typename Result>
RunShardedOptions<Result> make_engine_options(
    const ExpOptions& options, std::uint64_t target_failures,
    std::uint64_t config_hash, std::uint64_t base_seed,
    const std::string& default_scope,
    std::string (*encode)(const Result&),
    std::optional<Result> (*decode)(const std::string&)) {
  RunShardedOptions<Result> opt;
  opt.target_failures = target_failures;
  opt.quarantine = true;
  opt.max_attempts = options.max_attempts;
  opt.report = options.report;
  opt.after_shard = options.after_shard;
  if (options.checkpoint) {
    opt.checkpoint = options.checkpoint;
    opt.key.experiment =
        options.checkpoint_scope.empty() ? default_scope : options.checkpoint_scope;
    opt.key.config_hash = config_hash;
    opt.key.base_seed = base_seed;
    opt.encode = encode;
    opt.decode = decode;
  }
  return opt;
}

// Fleet mode lives outside make_engine_options because the queue must
// outlive the engine call: the caller provides the storage, this attaches.
template <typename Result>
void attach_fleet(const ExpOptions& options, RunShardedOptions<Result>& opt,
                  std::optional<ShardWorkQueue>& queue) {
  if (!options.fleet) return;
  if (!opt.checkpoint) {
    throw std::runtime_error(
        "ExpOptions: fleet mode requires a checkpoint store (the shared "
        "store is how workers coordinate)");
  }
  WorkQueueOptions qopt;
  qopt.lease = std::chrono::milliseconds(options.lease_ms);
  qopt.poll = std::chrono::milliseconds(options.poll_ms);
  queue.emplace(opt.checkpoint, opt.key, qopt);
  opt.queue = &*queue;
}

// ---- payload helpers ---------------------------------------------------

bool read_u64(const JsonValue& root, const char* key, std::uint64_t* out) {
  const JsonValue* v = root.find(key);
  if (!v) return false;
  const auto n = v->as_u64();
  if (!n) return false;
  *out = *n;
  return true;
}

bool read_metrics(const JsonValue& root, obs::MetricsRegistry* out) {
  const JsonValue* m = root.find("metrics");
  if (!m) return false;
  auto reg = metrics_from_json(*m);
  if (!reg) return false;
  *out = std::move(*reg);
  return true;
}

bool payload_version_ok(const JsonValue& root) {
  std::uint64_t v = 0;
  return read_u64(root, "v", &v) && v == kPayloadVersion;
}

}  // namespace

reliability::McResult run_montecarlo_parallel(const reliability::McConfig& config,
                                              const ExpOptions& options,
                                              RunStats* stats) {
  const std::uint64_t chunk = resolve_chunk(options, config.max_intervals);
  auto ropt = make_engine_options<reliability::McResult>(
      options, config.target_failures,
      hash_mc_config(config, chunk, options.checkpoint_scope), config.seed,
      "montecarlo", &encode_mc_result, &decode_mc_result);
  std::optional<ShardWorkQueue> queue;
  attach_fleet(options, ropt, queue);
  return timed_run<reliability::McResult>(
      options, config.max_intervals, stats, [&](ThreadPool& pool, const auto& shards) {
        return run_sharded<reliability::McResult>(
            pool, shards, ropt,
            [&](const Shard& shard, const EarlyStop& early) {
              return run_shard(config, shard, early,
                               [](const reliability::McConfig& c) {
                                 return reliability::run_montecarlo(c);
                               });
            });
      });
}

baselines::BaselineMcResult run_baseline_mc_parallel(
    const SchemeFactory& factory, const baselines::BaselineMcConfig& config,
    const ExpOptions& options, RunStats* stats) {
  const std::uint64_t chunk = resolve_chunk(options, config.max_intervals);
  auto ropt = make_engine_options<baselines::BaselineMcResult>(
      options, config.target_failures,
      hash_baseline_config(config, chunk, options.checkpoint_scope), config.seed,
      "baseline_mc", &encode_baseline_mc_result, &decode_baseline_mc_result);
  std::optional<ShardWorkQueue> queue;
  attach_fleet(options, ropt, queue);
  return timed_run<baselines::BaselineMcResult>(
      options, config.max_intervals, stats, [&](ThreadPool& pool, const auto& shards) {
        return run_sharded<baselines::BaselineMcResult>(
            pool, shards, ropt,
            [&](const Shard& shard, const EarlyStop& early) {
              return run_shard(config, shard, early,
                               [&factory](const baselines::BaselineMcConfig& c) {
                                 auto scheme = factory();
                                 return baselines::run_baseline_mc(*scheme, c);
                               });
            });
      });
}

std::string encode_mc_result(const reliability::McResult& r) {
  JsonObject o;
  o.set("v", kPayloadVersion)
      .set("intervals", r.intervals)
      .set("faults_injected", r.faults_injected)
      .set("ecc1_corrections", r.ecc1_corrections)
      .set("raid4_repairs", r.raid4_repairs)
      .set("sdr_repairs", r.sdr_repairs)
      .set("hash2_invocations", r.hash2_invocations)
      .set("groups_repaired", r.groups_repaired)
      .set("due_lines", r.due_lines)
      .set("sdc_lines", r.sdc_lines)
      .set("failure_intervals", r.failure_intervals)
      .set("metrics", metrics_to_json(r.metrics));
  return o.str();
}

std::optional<reliability::McResult> decode_mc_result(const std::string& payload) {
  const auto root = json_parse(payload);
  if (!root || !payload_version_ok(*root)) return std::nullopt;
  reliability::McResult r;
  if (!read_u64(*root, "intervals", &r.intervals) ||
      !read_u64(*root, "faults_injected", &r.faults_injected) ||
      !read_u64(*root, "ecc1_corrections", &r.ecc1_corrections) ||
      !read_u64(*root, "raid4_repairs", &r.raid4_repairs) ||
      !read_u64(*root, "sdr_repairs", &r.sdr_repairs) ||
      !read_u64(*root, "hash2_invocations", &r.hash2_invocations) ||
      !read_u64(*root, "groups_repaired", &r.groups_repaired) ||
      !read_u64(*root, "due_lines", &r.due_lines) ||
      !read_u64(*root, "sdc_lines", &r.sdc_lines) ||
      !read_u64(*root, "failure_intervals", &r.failure_intervals) ||
      !read_metrics(*root, &r.metrics)) {
    return std::nullopt;
  }
  return r;
}

std::string encode_baseline_mc_result(const baselines::BaselineMcResult& r) {
  JsonObject o;
  o.set("v", kPayloadVersion)
      .set("intervals", r.intervals)
      .set("faults_injected", r.faults_injected)
      .set("corrected", r.corrected)
      .set("due_units", r.due_units)
      .set("sdc_units", r.sdc_units)
      .set("failure_intervals", r.failure_intervals)
      .set("metrics", metrics_to_json(r.metrics));
  return o.str();
}

std::optional<baselines::BaselineMcResult> decode_baseline_mc_result(
    const std::string& payload) {
  const auto root = json_parse(payload);
  if (!root || !payload_version_ok(*root)) return std::nullopt;
  baselines::BaselineMcResult r;
  if (!read_u64(*root, "intervals", &r.intervals) ||
      !read_u64(*root, "faults_injected", &r.faults_injected) ||
      !read_u64(*root, "corrected", &r.corrected) ||
      !read_u64(*root, "due_units", &r.due_units) ||
      !read_u64(*root, "sdc_units", &r.sdc_units) ||
      !read_u64(*root, "failure_intervals", &r.failure_intervals) ||
      !read_metrics(*root, &r.metrics)) {
    return std::nullopt;
  }
  return r;
}

}  // namespace sudoku::exp
