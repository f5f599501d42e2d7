// The engine adapter for the Monte-Carlo front-ends: format one prototype
// per experiment, shard the interval budget, run each shard
// (baselines::run_mc) with per-trial seed streams on the engine's threads,
// and merge deterministically. SuDoku (run_montecarlo_parallel) and the
// baselines (run_baseline_mc_parallel) share this one adapter and one
// checkpoint codec; they differ only in the scheme and the result type.
// Merged counts are bit-identical for any thread count (see
// docs/exp_engine.md for the exact contract).
//
// Fault tolerance (docs/robustness.md): pass a CheckpointStore to persist
// every finished shard and replay them on resume; pass a ShardRunReport to
// get quarantine/retry/interrupt accounting. A throwing trial is retried
// and then quarantined (exp/engine.h): it degrades the campaign instead of
// terminating it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "baselines/mc_runner.h"
#include "baselines/scheme.h"
#include "exp/checkpoint.h"
#include "exp/errors.h"
#include "exp/result_sink.h"
#include "exp/sharder.h"
#include "reliability/montecarlo.h"

namespace sudoku::exp {

struct ExpOptions {
  unsigned threads = 0;     // engine threads; 0 = one per hardware thread
  std::uint64_t chunk = 0;  // trials per shard; 0 = default_chunk(total)

  // ---- fault tolerance ----
  // Checkpoint store (nullable). The checkpoint key is derived inside the
  // adapter from (checkpoint_scope, full config, resolved shard plan,
  // seed, the prototype scheme's name, geometry and storage overhead,
  // SuDoku's SDR mismatch cap and its host writes), so any config change
  // cold-starts automatically.
  CheckpointStore* checkpoint = nullptr;
  // Separates runs that share a store and would otherwise hash identically.
  // Also names the checkpoint subdirectory.
  std::string checkpoint_scope;
  // Accumulates resume/retry/quarantine/interrupt accounting across calls.
  ShardRunReport* report = nullptr;
  // Progress/test hook: fired after each live shard completes.
  std::function<void(const Shard&)> after_shard;

  // ---- fleet (multi-process shard queue, docs/fleet.md) ----
  // When set, shards are claimed exclusively through the checkpoint store
  // before they run, so N independent processes pointed at the same store
  // split one experiment and each merge the same bit-identical result.
  // Requires `checkpoint` (the store is the coordination medium); the
  // adapter throws std::runtime_error if fleet is requested without it.
  // A claim older than WorkQueueOptions::lease with no published result is
  // stealable.
  bool fleet = false;
  // Sleep between polls of a sibling-owned shard in the wait pass.
  unsigned poll_ms = 20;
};

// Parallel reliability::run_montecarlo. config.seed / max_intervals /
// target_failures keep their sequential meanings; the per-trial-stream and
// shard fields of `config` are managed by the engine and ignored on input.
reliability::McResult run_montecarlo_parallel(const reliability::McConfig& config,
                                              const ExpOptions& options = {},
                                              RunStats* stats = nullptr);

// Parallel baselines::run_baseline_mc. The factory is called once, for the
// experiment's prototype; each shard drives its own clone of it.
using SchemeFactory = std::function<std::unique_ptr<baselines::CacheScheme>()>;
baselines::BaselineMcResult run_baseline_mc_parallel(
    const SchemeFactory& factory, const baselines::BaselineMcConfig& config,
    const ExpOptions& options = {}, RunStats* stats = nullptr);

// ---- checkpoint payload codec ------------------------------------------
// Round-trip-exact JSON (de)serialization of a shard result: "v", then
// Result::fields() in order, then the embedded metrics registry.
// decode(encode(r)) reproduces r bit for bit, which is what makes resumed
// merges byte-identical to uninterrupted ones. decode returns std::nullopt
// on any malformed payload (torn file, schema drift, another result
// type's payload); the engine then recomputes the shard. Defined for
// reliability::McResult and baselines::BaselineMcResult.
template <typename Result>
std::string encode_payload(const Result& r);
template <typename Result>
std::optional<Result> decode_payload(const std::string& payload);

}  // namespace sudoku::exp
