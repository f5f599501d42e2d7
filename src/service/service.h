// Concurrent resilient-memory service (docs/service.md): a thread-safe,
// bank-sharded front end over LineSchemes (baselines/scheme.h) — SuDoku,
// 2DP, Hi-ECC or any region-ECC design point. Many client threads issue
// reads and writes against a global line-interleaved address space while
// background workers execute scrub sweeps and queued repairs — the regime
// where scrub/repair contention decides whether a resilience scheme is
// viable at scale.
//
// Concurrency architecture:
//  * BankShard — each bank owns its scheme (storage + codec state), a
//    mutex serialising every mutator, and a seqlock epoch (even = stable,
//    odd = mutator active). Mutators bracket their work with begin/end
//    epoch bumps while holding the mutex.
//  * Lock-free clean-read fast path — a reader snapshots the epoch, copies
//    the line and checks full codec consistency without any lock, then
//    re-validates the epoch: unchanged-and-even proves no mutator
//    overlapped, so the copy is untorn and current. Any other outcome
//    falls back to the locked path. Clean reads (the overwhelming majority
//    at real BERs) therefore never contend with each other or with reads
//    on other banks.
//  * RepairQueue — scrub sweeps and injected-fault repair run on
//    background workers that park on a condition variable when idle.
//    Tasks execute under the target bank's mutex + epoch bracket, so a
//    repair's write-back can never race a client write (write-back
//    fencing), and drain() is a fence: when it returns, every queued
//    repair has retired. Demand repair (a read hitting an uncorrectable
//    line) still runs inline — the data does not exist until the group
//    machinery produces it — but only on the affected bank.
//  * Graceful degradation (docs/faults.md) — lines that keep needing
//    repair (suspected permanent faults) accumulate strikes; at the
//    configured threshold the service retires the line, snapshotting its
//    data into a bounded per-bank spare pool and serving it from there.
//    When the pool is exhausted, retired lines stay in place degraded:
//    every read demand-corrects through the scheme. All retirement state
//    mutates under the bank's mutator bracket; the lock-free fast path
//    only ever sees a relaxed per-line retirement word and falls back to
//    the locked path for anything retired.
//
// Determinism: with a single client and no background work, every
// observable (data, statuses, stored bits) is bit-identical to driving the
// underlying controller directly — tests/test_service.cpp pins this.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baselines/sudoku_scheme.h"
#include "faults/scenario.h"
#include "obs/metrics.h"
#include "sttram/fault_injector.h"

namespace sudoku::service {

using sudoku::ReadStatus;

// A SuDoku-X/Y/Z bank.
inline std::unique_ptr<baselines::LineScheme> make_sudoku_backend(
    const SudokuConfig& config) {
  return std::make_unique<baselines::SudokuScheme>(config);
}

struct ServiceConfig {
  std::uint32_t banks = 4;
  std::uint32_t repair_workers = 1;     // background scrub/repair threads
  std::uint32_t fast_read_attempts = 2;  // seqlock tries before locking

  // Graceful-degradation policy. retire_strikes = 0 disables retirement
  // entirely (the default: under purely transient BER every scrub
  // correction would count as a strike, and retiring healthy lines would
  // change the deterministic goldens). With N > 0, a line is retired after
  // N consecutive dirty observations (scrub found its unit DUE/repaired,
  // or a locked read came back corrected/repaired/due) without an
  // intervening clean scan.
  std::uint32_t retire_strikes = 0;
  std::uint32_t spare_lines_per_bank = 32;  // bounded remap pool per bank
};

// Per-client instrumentation context. Each client thread owns one: the
// service records its fast-path/outcome counters here without any
// synchronisation, and scratch buffers live here so the steady-state read
// path performs no allocation. Merge order (client index) is fixed by the
// load generator, keeping registry reduction deterministic.
class ClientStats {
 public:
  ClientStats();

  obs::MetricsRegistry& registry() { return registry_; }
  const obs::MetricsRegistry& registry() const { return registry_; }

 private:
  friend class MemoryService;
  obs::MetricsRegistry registry_;
  obs::Counter* read_fast_;        // service.read.fast
  obs::Counter* read_clean_;       // service.read.clean  (locked, clean)
  obs::Counter* read_corrected_;   // service.read.corrected
  obs::Counter* read_repaired_;    // service.read.repaired
  obs::Counter* read_due_;         // service.read.due
  obs::Counter* read_retired_;     // service.read.retired  (served from spare)
  obs::Counter* read_degraded_;    // service.read.degraded (retired, no spare)
  obs::Counter* writes_;           // service.write.count
  BitVec stored_scratch_;
  BitVec data_scratch_;
};

// Degraded-capacity accounting (see degradation_report()). A mapped
// retired line still serves full-fidelity data from its spare; an
// unmapped one survives only as well as the scheme's demand correction.
struct BankDegradation {
  std::uint32_t bank = 0;
  std::uint64_t retired_mapped = 0;    // remapped into the spare pool
  std::uint64_t retired_unmapped = 0;  // pool exhausted; degraded in place
  std::uint64_t spare_capacity = 0;
  std::vector<std::uint64_t> retired_lines;  // sorted line ids, both kinds
};

struct DegradationReport {
  std::vector<BankDegradation> banks;
  std::uint64_t total_lines = 0;
  std::uint64_t retired_mapped = 0;
  std::uint64_t retired_unmapped = 0;
  // Fraction of the address space still served at full fidelity (spares
  // count as full fidelity; unmapped retired lines do not).
  double healthy_fraction() const {
    return total_lines == 0
               ? 1.0
               : 1.0 - static_cast<double>(retired_unmapped) / total_lines;
  }
};

class MemoryService {
 public:
  using SchemeFactory =
      std::function<std::unique_ptr<baselines::LineScheme>(std::uint32_t bank)>;

  MemoryService(const ServiceConfig& config, const SchemeFactory& factory);
  ~MemoryService();  // drains the repair queue, then stops the workers

  MemoryService(const MemoryService&) = delete;
  MemoryService& operator=(const MemoryService&) = delete;

  std::uint32_t banks() const { return static_cast<std::uint32_t>(shards_.size()); }
  std::uint64_t lines_per_bank() const { return lines_per_bank_; }
  // Global line-interleaved address space: bank = addr % banks,
  // line-in-bank = addr / banks (consecutive addresses hit distinct banks).
  std::uint64_t num_lines() const { return lines_per_bank_ * banks(); }

  // Fill every line with make_data(bank, line) and rebuild parity state.
  // Not concurrency-safe; call before serving traffic.
  void format(const std::function<BitVec(std::uint32_t, std::uint64_t)>& make_data);
  void format_zero();

  // ---- data path (thread-safe) ----
  // Read 512 data bits at `addr` into data_out (resized/reused; no
  // allocation in the fast path once warm).
  ReadStatus read(std::uint64_t addr, ClientStats& stats, BitVec& data_out);
  void write(std::uint64_t addr, const BitVec& data512, ClientStats& stats);

  // ---- fault injection + repair (thread-safe) ----
  // Flip stored bits in `bank` (batch keyed by fault unit). When
  // scrub_async, the touched units are queued for background repair.
  void inject_faults(std::uint32_t bank, const FaultBatch& batch, bool scrub_async);

  // Assert stuck-at cells onto the bank's stored array under the mutator
  // bracket (permanent-fault harness; see faults::FaultScenario::stuck).
  // When scrub_async, the touched units are queued for background repair —
  // which is exactly how repeat-offender strikes accumulate.
  void assert_stuck(std::uint32_t bank, std::span<const faults::StuckCell> cells,
                    bool scrub_async);

  void scrub_bank_async(std::uint32_t bank);       // queue a full sweep
  std::uint64_t scrub_bank_now(std::uint32_t bank);  // synchronous; returns DUE units
  // Synchronous sparse scrub (the determinism tests mirror the MC harness
  // with this); returns DUE units.
  std::uint64_t scrub_units_now(std::uint32_t bank,
                                std::span<const std::uint64_t> units);

  // Fence: returns once every repair queued so far has executed.
  void drain();

  std::uint64_t queue_depth() const { return queue_depth_.load(std::memory_order_relaxed); }
  std::uint64_t queue_depth_max() const { return queue_depth_max_.load(std::memory_order_relaxed); }

  // ---- observability ----
  // Merge the service-owned registries into `out` in deterministic order:
  // bank shards (controller sudoku.* + shard service.scrub.*) in bank
  // order, then repair workers in worker order. Caller must be quiesced
  // (no in-flight clients; drain() first).
  void merge_metrics_into(obs::MetricsRegistry& out) const;

  // Degraded-capacity snapshot across all banks. Takes each bank's
  // mutator bracket in turn; safe to call concurrently with traffic.
  DegradationReport degradation_report();

  // Test hook: the bank's scheme. Caller must be quiesced.
  baselines::LineScheme& backend(std::uint32_t bank) { return *shards_[bank]->scheme; }

 private:
  // Per-line retirement word: kLiveLine = normal service, kUnmappedLine =
  // retired with the spare pool exhausted, >= 0 = index into `spares`.
  static constexpr std::int32_t kLiveLine = -1;
  static constexpr std::int32_t kUnmappedLine = -2;

  struct BankShard {
    std::unique_ptr<baselines::LineScheme> scheme;
    std::mutex mutex;
    // Seqlock epoch: even = stable, odd = mutator active. Mutators bump it
    // twice while holding `mutex`; fast-path readers validate against it.
    std::atomic<std::uint64_t> epoch{0};
    obs::MetricsRegistry registry;  // guarded by `mutex`
    obs::Counter* scrub_units;      // service.scrub.units
    obs::Counter* scrub_due;        // service.scrub.due_units
    obs::Counter* retired_count;    // service.retired_lines
    obs::Counter* pool_exhausted;   // service.retire.pool_exhausted

    // Retirement state. `retired` is read by the lock-free fast path with
    // relaxed ordering — safe because writes to retired lines still write
    // through to the scheme, so a stale kLiveLine observation only means
    // the probe reads scheme storage, which holds the latest data (and a
    // stuck cell there fails the consistency check anyway, forcing the
    // locked path). Everything else is guarded by `mutex`.
    std::unique_ptr<std::atomic<std::int32_t>[]> retired;  // one per line
    std::vector<BitVec> spares;  // retired-line payloads, slot-indexed
    // False when the retirement snapshot was already uncorrectable: the
    // spare holds zeros and reads report kDue (never silent corruption)
    // until a fresh write revalidates the slot.
    std::vector<char> spare_valid;
    std::unordered_map<std::uint64_t, std::uint32_t> strikes;
  };

  struct RepairTask {
    std::uint32_t bank = 0;
    bool full_sweep = false;
    std::vector<std::uint64_t> units;  // when !full_sweep
  };

  // A mutator bracket: lock the shard and mark the epoch odd for its
  // duration. Readers started before/during the bracket can never validate.
  class MutatorGuard {
   public:
    explicit MutatorGuard(BankShard& shard) : shard_(shard), lock_(shard.mutex) {
      shard_.epoch.fetch_add(1, std::memory_order_seq_cst);
    }
    ~MutatorGuard() { shard_.epoch.fetch_add(1, std::memory_order_seq_cst); }

   private:
    BankShard& shard_;
    std::lock_guard<std::mutex> lock_;
  };

  void enqueue(RepairTask task);
  void worker_loop(std::uint32_t worker_index);
  std::uint64_t execute_scrub(BankShard& shard, const RepairTask& task);

  // Retirement plumbing; all require the shard's mutator bracket held.
  void note_strike_locked(BankShard& shard, std::uint64_t line);
  void retire_line_locked(BankShard& shard, std::uint64_t line);
  void apply_scrub_report_locked(BankShard& shard, const RepairTask& task,
                                 const baselines::ScrubReport& report);

  std::vector<std::unique_ptr<BankShard>> shards_;
  std::uint64_t lines_per_bank_ = 0;
  std::uint32_t fast_read_attempts_ = 2;
  std::uint32_t retire_strikes_ = 0;
  std::uint32_t spare_lines_per_bank_ = 0;

  // Repair queue: mutex/cv-parked workers (an idle service burns no CPU).
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;   // workers park here
  std::condition_variable drain_cv_;   // drain()/~MemoryService wait here
  std::deque<RepairTask> queue_;
  std::uint32_t active_tasks_ = 0;     // dequeued, still executing
  bool stop_ = false;
  std::atomic<std::uint64_t> queue_depth_{0};
  std::atomic<std::uint64_t> queue_depth_max_{0};

  struct WorkerState {
    std::thread thread;
    obs::MetricsRegistry registry;  // touched only by the worker itself
  };
  std::vector<std::unique_ptr<WorkerState>> workers_;
};

}  // namespace sudoku::service
