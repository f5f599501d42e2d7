// Fleet shard queue (src/exp/work_queue.h): the claim/steal/adopt protocol
// that lets N processes split one campaign over a shared checkpoint store.
// Covers the primitives (exclusive claim, lease-based takeover), the
// contention invariants (exactly one winner among racing claimers), and
// the end-to-end property the whole design exists for: two workers running
// the same campaign concurrently against one store merge results that are
// bit-identical to a single-process run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "exp/atomic_file.h"
#include "exp/checkpoint.h"
#include "exp/mc_experiments.h"
#include "exp/work_queue.h"
#include "reliability/montecarlo.h"

namespace sudoku::exp {
namespace {

using reliability::McConfig;
using reliability::McResult;

std::filesystem::path fresh_dir(const std::string& tag) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("sudoku_fleet_test_" + tag);
  std::filesystem::remove_all(dir);
  return dir;
}

CheckpointKey test_key() {
  CheckpointKey key;
  key.experiment = "fleet_test";
  key.config_hash = 0xabcdef0123456789ull;
  key.base_seed = 7;
  return key;
}

// ---- claim primitives --------------------------------------------------

TEST(ShardWorkQueue, ClaimIsExclusiveUntilReleased) {
  const auto dir = fresh_dir("claim");
  const CheckpointStore store(dir);
  const ShardWorkQueue queue(&store, test_key());

  EXPECT_TRUE(queue.try_claim(3));
  EXPECT_FALSE(queue.try_claim(3));  // already held (even by ourselves)
  EXPECT_TRUE(queue.try_claim(4));   // other shards are independent

  queue.release(3);
  EXPECT_TRUE(queue.try_claim(3));
  queue.release(3);
  queue.release(3);  // double release is harmless
  std::filesystem::remove_all(dir);
}

TEST(ShardWorkQueue, LoadDoneIgnoresResumeFlag) {
  const auto dir = fresh_dir("load_done");
  // resume=false: CheckpointStore::load must return nothing, but the
  // queue's load_done must still see the file — sibling results belong to
  // the *current* run, not a previous one.
  const CheckpointStore store(dir, /*resume=*/false);
  const auto key = test_key();
  const ShardWorkQueue queue(&store, key);

  EXPECT_FALSE(queue.load_done(0).has_value());
  store.save(key, 0, "payload-bytes");
  EXPECT_FALSE(store.load(key, 0).has_value());
  ASSERT_TRUE(queue.load_done(0).has_value());
  EXPECT_EQ(*queue.load_done(0), "payload-bytes");
  std::filesystem::remove_all(dir);
}

TEST(ShardWorkQueue, ExactlyOneWinnerAmongRacingClaimers) {
  const auto dir = fresh_dir("race");
  const CheckpointStore store(dir);
  const auto key = test_key();

  constexpr int kThreads = 8;
  constexpr std::uint64_t kShards = 16;
  std::atomic<int> wins[kShards] = {};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const ShardWorkQueue queue(&store, test_key());
      for (std::uint64_t s = 0; s < kShards; ++s) {
        if (queue.try_claim(s)) wins[s].fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::uint64_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(wins[s].load(), 1) << "shard " << s;
  }
  std::filesystem::remove_all(dir);
}

// ---- lease takeover ----------------------------------------------------

TEST(ShardWorkQueue, StealRequiresExpiredLease) {
  const auto dir = fresh_dir("steal_fresh");
  const CheckpointStore store(dir);
  WorkQueueOptions opt;
  opt.lease = std::chrono::milliseconds(50);
  const ShardWorkQueue queue(&store, test_key(), opt);

  ASSERT_TRUE(queue.try_claim(0));
  EXPECT_FALSE(queue.steal_stale(0));  // fresh claim: lease not expired

  // Backdate the claim file past the lease: now stealable, and the stealer
  // ends up owning the shard (claim file present again).
  std::filesystem::last_write_time(
      queue.claim_path(0),
      std::filesystem::file_time_type::clock::now() - std::chrono::hours(1));
  EXPECT_TRUE(queue.steal_stale(0));
  EXPECT_TRUE(std::filesystem::exists(queue.claim_path(0)));
  EXPECT_FALSE(queue.try_claim(0));  // held by the stealer
  std::filesystem::remove_all(dir);
}

TEST(ShardWorkQueue, StealRefusesFinishedShards) {
  const auto dir = fresh_dir("steal_done");
  const CheckpointStore store(dir);
  const auto key = test_key();
  WorkQueueOptions opt;
  opt.lease = std::chrono::milliseconds(1);
  const ShardWorkQueue queue(&store, key, opt);

  ASSERT_TRUE(queue.try_claim(0));
  std::filesystem::last_write_time(
      queue.claim_path(0),
      std::filesystem::file_time_type::clock::now() - std::chrono::hours(1));
  store.save(key, 0, "done");
  // The done-file dominates: an expired claim over a finished shard is a
  // worker that died after publishing — nothing left to take over.
  EXPECT_FALSE(queue.steal_stale(0));
  EXPECT_FALSE(queue.steal_stale(42));  // no claim at all
  std::filesystem::remove_all(dir);
}

// ---- atomic_create_file (the claim atom) -------------------------------

TEST(AtomicCreateFile, ExactlyOneCreatorWins) {
  const auto dir = fresh_dir("create");
  std::filesystem::create_directories(dir);
  const auto path = dir / "claim";

  constexpr int kThreads = 8;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (atomic_create_file(path, "worker-" + std::to_string(t))) {
        winners.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(winners.load(), 1);
  EXPECT_TRUE(std::filesystem::exists(path));

  EXPECT_FALSE(atomic_create_file(path, "late"));
  std::filesystem::remove(path);
  EXPECT_TRUE(atomic_create_file(path, "fresh"));
  std::filesystem::remove_all(dir);
}

// ---- end-to-end: fleet run equals single-process run -------------------

McConfig small_campaign() {
  McConfig cfg;
  cfg.cache.num_lines = 64;
  cfg.cache.group_size = 64;
  cfg.cache.ber = 2e-4;
  cfg.level = SudokuLevel::kX;  // X fits a single-group cache
  cfg.max_intervals = 600;
  cfg.seed = 20240817;
  return cfg;
}

TEST(FleetRun, TwoContendingWorkersMergeBitIdentically) {
  const auto dir = fresh_dir("e2e");
  const McConfig cfg = small_campaign();

  // Reference: plain single-process run, no store.
  ExpOptions ref_opts;
  ref_opts.threads = 2;
  ref_opts.chunk = 50;  // enough shards that both workers get some
  const McResult reference = run_montecarlo_parallel(cfg, ref_opts);

  // Two "workers" (threads standing in for processes — the claim protocol
  // is pure filesystem, so in-process contention exercises the same atoms)
  // share one store. Each runs the full campaign; claims split the shards
  // and each adopts the sibling's published results.
  CheckpointStore store(dir);
  ShardRunReport reports[2];
  McResult results[2];
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      ExpOptions opts;
      opts.threads = 1;
      opts.chunk = 50;
      opts.checkpoint = &store;
      opts.checkpoint_scope = "fleet_e2e";
      opts.report = &reports[w];
      opts.fleet = true;
      opts.poll_ms = 2;
      results[w] = run_montecarlo_parallel(cfg, opts);
    });
  }
  for (auto& t : workers) t.join();

  // Every worker merges the complete plan, bit-identical to the reference.
  const std::string ref_bytes = encode_payload<McResult>(reference);
  EXPECT_EQ(encode_payload<McResult>(results[0]), ref_bytes);
  EXPECT_EQ(encode_payload<McResult>(results[1]), ref_bytes);

  // The shards were actually split: with contention, at least one worker
  // adopted a sibling's result (both saw the same 12-shard plan).
  const std::uint64_t foreign =
      reports[0].shards_foreign + reports[1].shards_foreign;
  EXPECT_GT(foreign, 0u);
  EXPECT_EQ(reports[0].shards_total, reports[1].shards_total);
  std::filesystem::remove_all(dir);
}

TEST(FleetRun, SecondWorkerAfterTheFactAdoptsEverything) {
  const auto dir = fresh_dir("adopt");
  const McConfig cfg = small_campaign();

  CheckpointStore store(dir);
  ExpOptions opts;
  opts.threads = 1;
  opts.chunk = 100;
  opts.checkpoint = &store;
  opts.checkpoint_scope = "fleet_adopt";
  opts.fleet = true;
  const McResult first = run_montecarlo_parallel(cfg, opts);

  // A worker joining after completion recomputes nothing: every shard is
  // adopted from the store (cold-start semantics notwithstanding — the
  // store was opened with resume=false).
  ShardRunReport report;
  opts.report = &report;
  const McResult second = run_montecarlo_parallel(cfg, opts);
  EXPECT_EQ(encode_payload<McResult>(second), encode_payload<McResult>(first));
  EXPECT_EQ(report.shards_foreign, report.shards_total);
  std::filesystem::remove_all(dir);
}

TEST(FleetRun, RequiresCheckpointStore) {
  ExpOptions opts;
  opts.fleet = true;  // no checkpoint store
  EXPECT_THROW(run_montecarlo_parallel(small_campaign(), opts),
               std::runtime_error);
}

}  // namespace
}  // namespace sudoku::exp
