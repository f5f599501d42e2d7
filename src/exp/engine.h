// The sharded experiment runner: fans a shard plan out over the thread
// pool and merges results deterministically, with shard-granular
// checkpoint/resume, trial quarantine, and cooperative shutdown.
//
// Contract. `run(shard, early)` must return the shard's result computed
// purely from the shard's trial range and the experiment's base seed (per-
// trial seed streams), or std::nullopt if it abandoned the shard because
// `early.triggered()` fired (or a shutdown was requested). Results must
// support `operator+=` and expose a `failure_intervals` member. The merge
// walks shards in index order and stops once `target_failures` is met, so
// the merged result depends only on (plan, base seed, target) — not on
// thread count, scheduling, which shards were speculatively cancelled, or
// whether some shards were replayed from a checkpoint.
//
// Fault-tolerance semantics (run_sharded with RunShardedOptions):
//   * checkpoint  — completed shards are persisted via atomic writes; with
//     a resume-enabled store, previously finished shards are replayed from
//     disk before anything is scheduled. Replayed bytes equal recomputed
//     bytes (round-trip-exact codec), so resumed artifacts are
//     byte-identical by construction.
//   * quarantine  — a shard body that throws is retried (same seeds) up to
//     kShardAttempts total tries, then excluded from the merge; the run
//     degrades instead of dying and the report says exactly what is gone.
//   * shutdown    — once exp::shutdown_requested() turns true, unstarted
//     shards are skipped, in-flight shards finish or abandon through their
//     stop hooks, and the report is marked interrupted so callers can exit
//     with kExitInterrupted ("resumable") instead of failing.
//   * fleet queue — with a ShardWorkQueue (docs/fleet.md), each shard is
//     claimed (O_EXCL) before it runs, shards finished by sibling
//     *processes* are adopted from their published done-files, and a final
//     wait pass collects (or steals and recomputes) whatever foreign
//     workers still owe — so every worker ends the run holding the full
//     result set and performs the same deterministic merge.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exp/checkpoint.h"
#include "exp/errors.h"
#include "exp/sharder.h"
#include "exp/shutdown.h"
#include "exp/thread_pool.h"
#include "exp/work_queue.h"

namespace sudoku::exp {

// Tries per shard before a throwing shard is quarantined.
inline constexpr unsigned kShardAttempts = 3;

template <typename Result>
struct RunShardedOptions {
  std::uint64_t target_failures = 0;

  // Checkpointing (all three required together; null store disables it).
  CheckpointStore* checkpoint = nullptr;
  CheckpointKey key{};
  std::function<std::string(const Result&)> encode;
  std::function<std::optional<Result>(const std::string&)> decode;

  ShardRunReport* report = nullptr;

  // Fired after each *live* (not replayed) shard completes and is
  // recorded; used for progress and by tests to kill runs at exact points.
  std::function<void(const Shard&)> after_shard;

  // Multi-process fleet mode (docs/fleet.md). Requires checkpoint + encode
  // + decode: the done-files the checkpoint publishes are the medium
  // through which sibling workers exchange shard results. Each worker
  // claims shards exclusively before computing them, adopts siblings'
  // finished shards, and after its local pass waits for (or steals from)
  // whatever peers still owe, so any worker can complete the merge.
  const ShardWorkQueue* queue = nullptr;
};

namespace detail {

enum class ShardState : unsigned char { kPending, kDone, kQuarantined };

}  // namespace detail

template <typename Result, typename RunFn>
Result run_sharded(ThreadPool& pool, const std::vector<Shard>& shards,
                   const RunShardedOptions<Result>& opt, RunFn&& run) {
  using detail::ShardState;
  EarlyStop early(shards.size(), opt.target_failures);
  std::vector<std::optional<Result>> outcomes(shards.size());
  std::vector<ShardState> states(shards.size(), ShardState::kPending);
  std::mutex report_mutex;  // guards opt.report's members during the run

  const auto note_error = [&](std::uint64_t index, ShardErrorKind kind,
                              unsigned attempt, std::string detail_msg) {
    if (!opt.report) return;
    std::lock_guard<std::mutex> lock(report_mutex);
    opt.report->errors.push_back({index, kind, attempt, std::move(detail_msg)});
  };

  // Resume pass: replay finished shards from the checkpoint before any
  // scheduling. Serial and in index order, so EarlyStop's prefix logic
  // sees them exactly as a live run would have.
  std::vector<char> replayed(shards.size(), 0);
  if (opt.checkpoint && opt.decode) {
    for (const Shard& s : shards) {
      auto payload = opt.checkpoint->load(opt.key, s.index);
      if (!payload) continue;
      std::optional<Result> r = opt.decode(*payload);
      if (!r.has_value()) {
        note_error(s.index, ShardErrorKind::kCheckpointCorrupt, 0,
                   opt.checkpoint->shard_path(opt.key, s.index).string());
        continue;  // recompute below
      }
      early.record(s.index, r->failure_intervals);
      outcomes[s.index] = std::move(r);
      states[s.index] = ShardState::kDone;
      replayed[s.index] = 1;
      if (opt.report) {
        std::lock_guard<std::mutex> lock(report_mutex);
        ++opt.report->shards_resumed;
      }
    }
  }

  // Adopt a shard a sibling process finished: decode its published
  // done-file and record it exactly as a locally computed result.
  const auto adopt_foreign = [&](std::uint64_t k) -> bool {
    std::optional<std::string> payload = opt.queue->load_done(shards[k].index);
    if (!payload) return false;
    std::optional<Result> r = opt.decode(*payload);
    if (!r.has_value()) return false;  // torn/corrupt — caller recomputes
    early.record(k, r->failure_intervals);
    outcomes[k] = std::move(r);
    states[k] = ShardState::kDone;
    if (opt.report) {
      std::lock_guard<std::mutex> lock(report_mutex);
      ++opt.report->shards_foreign;
    }
    return true;
  };

  // Run one owned shard to completion: retry/quarantine loop, checkpoint
  // publication, and (in fleet mode) claim release on every exit path —
  // including quarantine, so sibling workers can attempt the shard
  // themselves instead of waiting on our claim forever.
  const auto execute_shard = [&](std::uint64_t k) {
    for (unsigned attempt = 1;; ++attempt) {
      try {
        std::optional<Result> r = run(shards[k], early);
        if (r.has_value()) {
          if (opt.checkpoint && opt.encode) {
            try {
              opt.checkpoint->save(opt.key, shards[k].index, opt.encode(*r));
            } catch (const std::exception& e) {
              // Losing resumability must not lose the run.
              note_error(shards[k].index, ShardErrorKind::kCheckpointIo, attempt,
                         e.what());
            }
          }
          early.record(k, r->failure_intervals);
          outcomes[k] = std::move(r);
          states[k] = ShardState::kDone;
          if (opt.after_shard) opt.after_shard(shards[k]);
        }
        if (opt.queue) opt.queue->release(shards[k].index);
        return;
      } catch (...) {
        std::string what = "unknown exception";
        ShardErrorKind kind = ShardErrorKind::kUnknownException;
        try {
          throw;
        } catch (const std::exception& e) {
          what = e.what();
          kind = ShardErrorKind::kTrialException;
        } catch (...) {
        }
        note_error(shards[k].index, kind, attempt, std::move(what));
        if (attempt >= kShardAttempts) {
          states[k] = ShardState::kQuarantined;
          if (opt.report) {
            std::lock_guard<std::mutex> lock(report_mutex);
            ++opt.report->shards_quarantined;
            opt.report->trials_quarantined += shards[k].count;
          }
          if (opt.queue) opt.queue->release(shards[k].index);
          return;
        }
        // Retry with the same seeds — per-trial seed streams make a clean
        // retry bit-identical.
        if (opt.report) {
          std::lock_guard<std::mutex> lock(report_mutex);
          ++opt.report->shards_retried;
        }
      }
    }
  };

  pool.parallel_for(shards.size(), [&](std::uint64_t k) {
    if (replayed[k]) return;
    // Once the completed prefix meets the target this shard is beyond the
    // merge cutoff — skip it entirely. A requested shutdown likewise stops
    // new shards from starting (in-flight ones abandon via stop hooks).
    if (early.triggered() || shutdown_requested()) return;
    if (opt.queue) {
      // Fleet: a sibling may already have published or claimed this shard.
      if (adopt_foreign(k)) return;
      if (!opt.queue->try_claim(shards[k].index)) return;  // wait pass collects
      if (adopt_foreign(k)) {  // done-file landed while we were claiming
        opt.queue->release(shards[k].index);
        return;
      }
    }
    execute_shard(k);
  });

  // Fleet wait pass: everything this worker skipped above is owned by a
  // sibling. Walk in index order — mirroring the merge — and stop as soon
  // as the contiguous prefix meets the early-stop target, because no shard
  // past that cutoff will ever be computed by anyone. For each owed shard:
  // adopt the sibling's done-file when it lands, or take over (fresh claim
  // after a release, or steal after lease expiry) and recompute locally.
  if (opt.queue) {
    std::uint64_t prefix_failures = 0;
    for (std::uint64_t k = 0; k < shards.size() && !shutdown_requested(); ++k) {
      if (opt.target_failures != 0 && prefix_failures >= opt.target_failures) break;
      bool noted_corrupt = false;
      while (states[k] == ShardState::kPending && !shutdown_requested()) {
        if (adopt_foreign(k)) break;
        if (opt.queue->load_done(shards[k].index) && !noted_corrupt) {
          // Exists but failed to decode: note once, then recompute below.
          note_error(shards[k].index, ShardErrorKind::kCheckpointCorrupt, 0,
                     opt.checkpoint->shard_path(opt.key, shards[k].index).string());
          noted_corrupt = true;
        }
        if (opt.queue->try_claim(shards[k].index) ||
            opt.queue->steal_stale(shards[k].index)) {
          if (adopt_foreign(k)) {
            opt.queue->release(shards[k].index);
          } else {
            execute_shard(k);
          }
          break;
        }
        std::this_thread::sleep_for(opt.queue->options().poll);
      }
      if (states[k] == ShardState::kDone) {
        prefix_failures += outcomes[k]->failure_intervals;
      }
    }
  }

  Result merged{};
  std::uint64_t failures = 0;
  bool target_met = false;
  bool hit_missing = false;
  for (std::uint64_t k = 0; k < shards.size(); ++k) {
    // Quarantined shards are excluded from the merge (degraded result);
    // the walk continues so everything that did complete still counts.
    if (states[k] == ShardState::kQuarantined) continue;
    if (!outcomes[k].has_value()) {
      hit_missing = true;  // cutoff or interrupted — never a completed shard
      break;
    }
    merged += *outcomes[k];
    failures += outcomes[k]->failure_intervals;
    if (opt.target_failures != 0 && failures >= opt.target_failures) {
      target_met = true;
      break;
    }
  }

  if (opt.report) {
    std::lock_guard<std::mutex> lock(report_mutex);
    opt.report->shards_total += shards.size();
    // Interrupted = the merge stopped at a hole the shutdown left behind.
    // (When early-stop caused the hole, the target was met first, because
    // triggered() requires the contiguous completed prefix to meet it.)
    if (hit_missing && !target_met && shutdown_requested()) {
      opt.report->interrupted = true;
    }
  }
  return merged;
}

}  // namespace sudoku::exp
