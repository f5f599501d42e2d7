#include "service/service.h"

#include <algorithm>
#include <cassert>

namespace sudoku::service {

ClientStats::ClientStats() {
  read_fast_ = registry_.counter("service.read.fast");
  read_clean_ = registry_.counter("service.read.clean");
  read_corrected_ = registry_.counter("service.read.corrected");
  read_repaired_ = registry_.counter("service.read.repaired");
  read_due_ = registry_.counter("service.read.due");
  read_retired_ = registry_.counter("service.read.retired");
  read_degraded_ = registry_.counter("service.read.degraded");
  writes_ = registry_.counter("service.write.count");
}

MemoryService::MemoryService(const ServiceConfig& config,
                             const SchemeFactory& factory)
    : fast_read_attempts_(config.fast_read_attempts),
      retire_strikes_(config.retire_strikes),
      spare_lines_per_bank_(config.spare_lines_per_bank) {
  assert(config.banks > 0);
  shards_.reserve(config.banks);
  for (std::uint32_t bank = 0; bank < config.banks; ++bank) {
    auto shard = std::make_unique<BankShard>();
    shard->scheme = factory(bank);
    shard->scrub_units = shard->registry.counter("service.scrub.units");
    shard->scrub_due = shard->registry.counter("service.scrub.due_units");
    shard->retired_count = shard->registry.counter("service.retired_lines");
    shard->pool_exhausted =
        shard->registry.counter("service.retire.pool_exhausted");
    const std::uint64_t nlines = shard->scheme->num_lines();
    shard->retired =
        std::make_unique<std::atomic<std::int32_t>[]>(nlines);
    for (std::uint64_t i = 0; i < nlines; ++i) {
      shard->retired[i].store(kLiveLine, std::memory_order_relaxed);
    }
    shard->scheme->attach_metrics(&shard->registry);
    shards_.push_back(std::move(shard));
  }
  lines_per_bank_ = shards_.front()->scheme->num_lines();
  for (const auto& shard : shards_) {
    assert(shard->scheme->num_lines() == lines_per_bank_);
    (void)shard;
  }

  const std::uint32_t workers = std::max(1u, config.repair_workers);
  workers_.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    workers_.push_back(std::make_unique<WorkerState>());
  }
  // Threads start only after the vector is fully built (no reallocation
  // while a worker may already be touching its state).
  for (std::uint32_t w = 0; w < workers; ++w) {
    workers_[w]->thread = std::thread([this, w] { worker_loop(w); });
  }
}

MemoryService::~MemoryService() {
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    drain_cv_.wait(lock, [this] { return queue_.empty() && active_tasks_ == 0; });
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& worker : workers_) worker->thread.join();
}

void MemoryService::format(
    const std::function<BitVec(std::uint32_t, std::uint64_t)>& make_data) {
  for (std::uint32_t bank = 0; bank < banks(); ++bank) {
    shards_[bank]->scheme->format(
        [&](std::uint64_t line) { return make_data(bank, line); });
  }
}

void MemoryService::format_zero() {
  format([](std::uint32_t, std::uint64_t) { return BitVec(512); });
}

ReadStatus MemoryService::read(std::uint64_t addr, ClientStats& stats,
                               BitVec& data_out) {
  BankShard& shard = *shards_[addr % banks()];
  const std::uint64_t line = addr / banks();

  // Retired lines are served under the lock (the spare payloads mutate
  // under the bank mutex, so the lock-free probe must not touch them). A
  // stale kLiveLine here is harmless — see the BankShard::retired comment.
  if (shard.retired[line].load(std::memory_order_relaxed) == kLiveLine) {
    // Seqlock fast path. The epoch pair brackets the scheme's storage
    // copy: e1 even and e2 == e1 proves no mutator ran anywhere inside the
    // probe, so the copy is untorn and the clean verdict is current.
    // Acquire on e1 orders it before the storage loads; the fence orders
    // the storage loads before e2. A torn/raced copy simply fails
    // validation and we retry or take the lock — never a wrong answer,
    // only a slower one.
    for (std::uint32_t attempt = 0; attempt < fast_read_attempts_; ++attempt) {
      const std::uint64_t e1 = shard.epoch.load(std::memory_order_acquire);
      if (e1 & 1) break;  // mutator active; don't burn retries
      const bool clean = shard.scheme->try_clean_read(
          line, stats.stored_scratch_, stats.data_scratch_);
      std::atomic_thread_fence(std::memory_order_acquire);
      const std::uint64_t e2 = shard.epoch.load(std::memory_order_relaxed);
      if (e1 != e2) continue;  // raced a mutator; the probe result is void
      if (!clean) break;       // genuinely not clean: need the repair path
      data_out = stats.data_scratch_;
      stats.read_fast_->inc();
      return ReadStatus::kClean;
    }
  }

  // Slow path: the scheme's full read (may correct/repair, i.e. mutate).
  MutatorGuard guard(shard);
  const std::int32_t r = shard.retired[line].load(std::memory_order_relaxed);
  if (r >= 0) {
    // Remapped: the spare slot holds the authoritative payload. A slot
    // whose retirement snapshot was already lost stays kDue (zeros) until
    // a write revalidates it — degradation must never turn into SDC.
    const auto slot = static_cast<std::uint32_t>(r);
    data_out = shard.spares[slot];
    stats.read_retired_->inc();
    return shard.spare_valid[slot] ? ReadStatus::kClean : ReadStatus::kDue;
  }
  ReadResult reply = shard.scheme->read(line);
  data_out = std::move(reply.data);
  if (r == kUnmappedLine) {
    // Retired without a spare: degraded in place, every read is a demand
    // correction through the scheme. One counter per read — the outcome
    // is still returned to the caller, just not double-counted.
    stats.read_degraded_->inc();
    return reply.status;
  }
  switch (reply.status) {
    case ReadStatus::kClean: stats.read_clean_->inc(); break;
    case ReadStatus::kCorrected: stats.read_corrected_->inc(); break;
    case ReadStatus::kRepaired: stats.read_repaired_->inc(); break;
    case ReadStatus::kDue: stats.read_due_->inc(); break;
  }
  if (retire_strikes_ > 0 && reply.status != ReadStatus::kClean) {
    note_strike_locked(shard, line);
  }
  return reply.status;
}

void MemoryService::write(std::uint64_t addr, const BitVec& data512,
                          ClientStats& stats) {
  BankShard& shard = *shards_[addr % banks()];
  const std::uint64_t line = addr / banks();
  MutatorGuard guard(shard);
  // Write-through: scheme storage always holds the latest payload even
  // for retired lines (keeps the unmapped demand-correct path and the
  // relaxed fast-path race analysis honest); a mapped retired line's spare
  // is the authoritative copy and is updated in the same bracket.
  shard.scheme->write(line, data512);
  const std::int32_t r = shard.retired[line].load(std::memory_order_relaxed);
  if (r >= 0) {
    const auto slot = static_cast<std::uint32_t>(r);
    shard.spares[slot] = data512;
    shard.spare_valid[slot] = 1;
  }
  stats.writes_->inc();
}

void MemoryService::assert_stuck(std::uint32_t bank,
                                 std::span<const faults::StuckCell> cells,
                                 bool scrub_async) {
  BankShard& shard = *shards_[bank];
  {
    MutatorGuard guard(shard);
    faults::assert_cells(shard.scheme->array(), cells);
  }
  if (!scrub_async || cells.empty()) return;
  RepairTask task;
  task.bank = bank;
  task.units.reserve(cells.size());
  for (const auto& cell : cells) task.units.push_back(cell.unit);
  std::sort(task.units.begin(), task.units.end());
  task.units.erase(std::unique(task.units.begin(), task.units.end()),
                   task.units.end());
  enqueue(std::move(task));
}

void MemoryService::inject_faults(std::uint32_t bank, const FaultBatch& batch,
                                  bool scrub_async) {
  BankShard& shard = *shards_[bank];
  {
    MutatorGuard guard(shard);
    FaultInjector::apply(batch, shard.scheme->array());
  }
  if (!scrub_async || batch.empty()) return;
  RepairTask task;
  task.bank = bank;
  task.units.reserve(batch.size());
  for (const auto& [unit, bits] : batch) task.units.push_back(unit);
  // FaultBatch is an unordered_map; sort so repair order is deterministic.
  std::sort(task.units.begin(), task.units.end());
  enqueue(std::move(task));
}

void MemoryService::scrub_bank_async(std::uint32_t bank) {
  RepairTask task;
  task.bank = bank;
  task.full_sweep = true;
  enqueue(std::move(task));
}

std::uint64_t MemoryService::scrub_bank_now(std::uint32_t bank) {
  BankShard& shard = *shards_[bank];
  RepairTask task;
  task.bank = bank;
  task.full_sweep = true;
  return execute_scrub(shard, task);
}

std::uint64_t MemoryService::scrub_units_now(
    std::uint32_t bank, std::span<const std::uint64_t> units) {
  BankShard& shard = *shards_[bank];
  RepairTask task;
  task.bank = bank;
  task.units.assign(units.begin(), units.end());
  return execute_scrub(shard, task);
}

std::uint64_t MemoryService::execute_scrub(BankShard& shard,
                                           const RepairTask& task) {
  MutatorGuard guard(shard);
  const std::uint64_t scanned =
      task.full_sweep ? shard.scheme->num_units() : task.units.size();
  const baselines::ScrubReport report = task.full_sweep
                                            ? shard.scheme->scrub_all()
                                            : shard.scheme->scrub_units(task.units);
  const std::uint64_t due = report.due_unit_ids.size();
  shard.scrub_units->inc(scanned);
  shard.scrub_due->inc(due);
  if (retire_strikes_ > 0) apply_scrub_report_locked(shard, task, report);
  return due;
}

void MemoryService::note_strike_locked(BankShard& shard, std::uint64_t line) {
  if (shard.retired[line].load(std::memory_order_relaxed) != kLiveLine) return;
  if (++shard.strikes[line] >= retire_strikes_) retire_line_locked(shard, line);
}

void MemoryService::retire_line_locked(BankShard& shard, std::uint64_t line) {
  shard.strikes.erase(line);
  shard.retired_count->inc();
  if (shard.spares.size() < spare_lines_per_bank_) {
    // Snapshot through the full read path: a correctable line yields its
    // repaired payload; an uncorrectable one yields zeros (the data was
    // already lost and reported as DUE before we got here).
    ReadResult snapshot = shard.scheme->read(line);
    const auto slot = static_cast<std::int32_t>(shard.spares.size());
    shard.spares.push_back(std::move(snapshot.data));
    shard.spare_valid.push_back(snapshot.status != ReadStatus::kDue ? 1 : 0);
    shard.retired[line].store(slot, std::memory_order_relaxed);
  } else {
    shard.pool_exhausted->inc();
    shard.retired[line].store(kUnmappedLine, std::memory_order_relaxed);
  }
}

void MemoryService::apply_scrub_report_locked(BankShard& shard,
                                              const RepairTask& task,
                                              const baselines::ScrubReport& report) {
  // Dirty units strike every line they protect; units scanned clean reset
  // their lines' strike counts (a repeat offender must be *consecutively*
  // dirty). lpu maps fault units to data lines (1 for SuDoku, 16 for
  // Hi-ECC regions).
  const std::uint64_t lpu =
      shard.scheme->num_lines() / shard.scheme->num_units();
  std::vector<std::uint64_t> dirty(report.due_unit_ids);
  dirty.insert(dirty.end(), report.repaired_unit_ids.begin(),
               report.repaired_unit_ids.end());
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

  const auto is_dirty = [&dirty](std::uint64_t unit) {
    return std::binary_search(dirty.begin(), dirty.end(), unit);
  };
  const auto reset_clean_unit = [&](std::uint64_t unit) {
    if (is_dirty(unit)) return;
    for (std::uint64_t l = unit * lpu; l < (unit + 1) * lpu; ++l) {
      shard.strikes.erase(l);
    }
  };
  if (task.full_sweep) {
    // Full sweeps scan everything; rather than walking every unit, drop
    // strike entries whose unit came back clean.
    for (auto it = shard.strikes.begin(); it != shard.strikes.end();) {
      if (!is_dirty(shard.scheme->unit_of_line(it->first))) {
        it = shard.strikes.erase(it);
      } else {
        ++it;
      }
    }
  } else {
    for (const auto unit : task.units) reset_clean_unit(unit);
  }
  for (const auto unit : dirty) {
    for (std::uint64_t l = unit * lpu; l < (unit + 1) * lpu; ++l) {
      note_strike_locked(shard, l);
    }
  }
}

DegradationReport MemoryService::degradation_report() {
  DegradationReport out;
  out.total_lines = num_lines();
  out.banks.reserve(shards_.size());
  for (std::uint32_t bank = 0; bank < banks(); ++bank) {
    BankShard& shard = *shards_[bank];
    MutatorGuard guard(shard);
    BankDegradation deg;
    deg.bank = bank;
    deg.spare_capacity = spare_lines_per_bank_;
    for (std::uint64_t line = 0; line < lines_per_bank_; ++line) {
      const std::int32_t r = shard.retired[line].load(std::memory_order_relaxed);
      if (r == kLiveLine) continue;
      deg.retired_lines.push_back(line);
      if (r == kUnmappedLine) {
        ++deg.retired_unmapped;
      } else {
        ++deg.retired_mapped;
      }
    }
    out.retired_mapped += deg.retired_mapped;
    out.retired_unmapped += deg.retired_unmapped;
    out.banks.push_back(std::move(deg));
  }
  return out;
}

void MemoryService::enqueue(RepairTask task) {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.push_back(std::move(task));
    const auto depth = queue_depth_.fetch_add(1, std::memory_order_relaxed) + 1;
    auto prev_max = queue_depth_max_.load(std::memory_order_relaxed);
    while (depth > prev_max && !queue_depth_max_.compare_exchange_weak(
                                   prev_max, depth, std::memory_order_relaxed)) {
    }
  }
  queue_cv_.notify_one();
}

void MemoryService::worker_loop(std::uint32_t worker_index) {
  WorkerState& me = *workers_[worker_index];
  obs::Counter* tasks = me.registry.counter("service.repair.tasks");
  obs::Counter* units_scrubbed = me.registry.counter("service.repair.units_scrubbed");
  obs::Counter* due_units = me.registry.counter("service.repair.due_units");
  // Power-of-two depth buckets: the depth distribution spans orders of
  // magnitude under bursty injection.
  obs::Histogram* depth_hist = me.registry.histogram(
      "service.repair.queue_depth", {1, 2, 4, 8, 16, 32, 64, 128, 256});

  for (;;) {
    RepairTask task;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      depth_hist->observe(static_cast<double>(queue_.size()));
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_.fetch_sub(1, std::memory_order_relaxed);
      ++active_tasks_;
    }

    BankShard& shard = *shards_[task.bank];
    const std::uint64_t scanned =
        task.full_sweep ? shard.scheme->num_units() : task.units.size();
    const std::uint64_t due = execute_scrub(shard, task);
    tasks->inc();
    units_scrubbed->inc(scanned);
    due_units->inc(due);

    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --active_tasks_;
      if (queue_.empty() && active_tasks_ == 0) drain_cv_.notify_all();
    }
  }
}

void MemoryService::drain() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  drain_cv_.wait(lock, [this] { return queue_.empty() && active_tasks_ == 0; });
}

void MemoryService::merge_metrics_into(obs::MetricsRegistry& out) const {
  for (const auto& shard : shards_) out += shard->registry;
  for (const auto& worker : workers_) out += worker->registry;
}

}  // namespace sudoku::service
