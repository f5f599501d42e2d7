// Concurrent resilient-memory service (src/service, docs/service.md):
//  * single-client runs are bit-identical to driving the controller
//    directly (the service adds concurrency, never behavior);
//  * a seeded 8-client × 4-bank stress run with background fault injection
//    and async scrubbing loses no writes and tears no lines — every read
//    returns a payload some client committed, intact, and no older than
//    the last write known complete before the read began;
//  * drain() is a fence for the background repair queue;
//  * the load generator's accounting adds up in both arrival modes;
//  * every bank scheme (SuDoku-X/Y/Z, 2DP, Hi-ECC, a non-1 KB region code)
//    keeps the LineScheme contract: format/read/write round-trip, the
//    lock-free probe agrees with the full read, faults are corrected (or
//    declared DUE) at unit granularity, and a full scrub leaves the
//    scheme consistent;
//  * the Hi-ECC bank's line-granular data path corrects/declares faults
//    at its region granularity.
#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <thread>
#include <vector>

#include "baselines/ecck_cache.h"
#include "baselines/hiecc_cache.h"
#include "baselines/twodp_cache.h"
#include "common/rng.h"
#include "faults/scenario.h"
#include "service/load_gen.h"
#include "service/service.h"
#include "sttram/fault_injector.h"

namespace sudoku::service {
namespace {

BitVec payload(std::uint64_t addr, std::uint64_t seq) {
  BitVec data(512);
  data.set_bits(0, 64, seq);
  std::uint64_t state = (addr << 20) ^ seq;
  for (std::uint32_t i = 64; i < 512; i += 64) {
    data.set_bits(i, 64, splitmix64_next(state));
  }
  return data;
}

bool payload_intact(const BitVec& data, std::uint64_t addr, std::uint64_t* seq_out) {
  const std::uint64_t seq = data.get_bits(0, 64);
  std::uint64_t state = (addr << 20) ^ seq;
  for (std::uint32_t i = 64; i < 512; i += 64) {
    if (data.get_bits(i, 64) != splitmix64_next(state)) return false;
  }
  *seq_out = seq;
  return true;
}

SudokuConfig small_z_config(std::uint64_t num_lines = 4096) {
  SudokuConfig cfg;
  cfg.geo.num_lines = num_lines;
  cfg.geo.group_size = 64;
  cfg.level = SudokuLevel::kZ;
  return cfg;
}

// ---- single-client determinism ----------------------------------------

// One client on a one-bank service must be observationally bit-identical
// to the raw controller: same statuses, same data, same DUE counts, same
// final parity verdict, under an identical seeded script of writes, reads
// and inject+scrub rounds.
TEST(ServiceDeterminism, SingleClientBitIdenticalToController) {
  const auto cfg = small_z_config();
  SudokuController ctrl(cfg);
  MemoryService svc({.banks = 1, .repair_workers = 1},
                    [&](std::uint32_t) { return make_sudoku_backend(cfg); });

  const auto pattern = [](std::uint64_t line) { return payload(line, 0); };
  ctrl.format(pattern);
  svc.format([&](std::uint32_t, std::uint64_t line) { return pattern(line); });

  ClientStats stats;
  BitVec svc_data;
  Rng script(7);
  const FaultInjector injector(cfg.geo.num_lines, 553, 1e-4);

  for (int step = 0; step < 300; ++step) {
    const std::uint64_t op = script.next_below(4);
    if (op == 0) {
      // write identical fresh data to both sides
      const std::uint64_t line = script.next_below(cfg.geo.num_lines);
      const BitVec data = payload(line, static_cast<std::uint64_t>(step) + 1);
      ctrl.write_data(line, data);
      svc.write(line, data, stats);
    } else if (op <= 2) {
      const std::uint64_t line = script.next_below(cfg.geo.num_lines);
      const auto expect = ctrl.read_data(line);
      const ReadStatus got = svc.read(line, stats, svc_data);
      ASSERT_EQ(static_cast<int>(got), static_cast<int>(expect.status))
          << "step " << step << " line " << line;
      ASSERT_EQ(svc_data, expect.data) << "step " << step << " line " << line;
    } else {
      // identical fault batch into both, then scrub the touched lines in
      // the same (sorted) order
      const FaultBatch batch = injector.sample_interval(script);
      std::vector<std::uint64_t> lines;
      lines.reserve(batch.size());
      for (const auto& [line, bits] : batch) lines.push_back(line);
      std::sort(lines.begin(), lines.end());
      FaultInjector::apply(batch, ctrl.array());
      const std::uint64_t expect_due = ctrl.scrub_lines(lines).due_lines;
      svc.inject_faults(0, batch, /*scrub_async=*/false);
      const std::uint64_t got_due = svc.scrub_units_now(0, lines);
      ASSERT_EQ(got_due, expect_due) << "step " << step;
    }
  }

  // Every line, and the parity invariant, must agree at the end.
  for (std::uint64_t line = 0; line < cfg.geo.num_lines; ++line) {
    const auto expect = ctrl.read_data(line);
    const ReadStatus got = svc.read(line, stats, svc_data);
    ASSERT_EQ(static_cast<int>(got), static_cast<int>(expect.status)) << line;
    ASSERT_EQ(svc_data, expect.data) << line;
  }
  EXPECT_EQ(svc.backend(0).consistent(), ctrl.parities_consistent());
}

// ---- multi-client stress ----------------------------------------------

// 8 clients × 4 banks with background injection and async scrubbing. Each
// address has one writing owner, so per-address sequence numbers bracket
// what a concurrent reader may legally observe:
//   committed-before-read  <=  observed seq  <=  issued-after-read.
// An intact payload checksum additionally proves the line was not torn by
// a racing writer or scrubber.
TEST(ServiceStress, NoLostWritesNoTornLinesUnderConcurrentScrub) {
  constexpr std::uint32_t kClients = 8;
  constexpr std::uint32_t kBanks = 4;
  constexpr std::uint64_t kLinesPerBank = 4096;
  constexpr std::uint64_t kOpsPerClient = 3000;

  const auto cfg = small_z_config(kLinesPerBank);
  MemoryService svc({.banks = kBanks, .repair_workers = 2},
                    [&](std::uint32_t) { return make_sudoku_backend(cfg); });
  const std::uint64_t num_addrs = svc.num_lines();
  svc.format([&](std::uint32_t bank, std::uint64_t line) {
    return payload(line * kBanks + bank, 0);  // addr of (bank, line)
  });

  std::vector<std::atomic<std::uint64_t>> issued(num_addrs);
  std::vector<std::atomic<std::uint64_t>> committed(num_addrs);
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> due_reads{0};

  std::atomic<bool> stop_injector{false};
  std::thread injector_thread([&] {
    Rng rng(99);
    const FaultInjector injector(kLinesPerBank, 553, 5e-6);
    while (!stop_injector.load(std::memory_order_relaxed)) {
      for (std::uint32_t bank = 0; bank < kBanks; ++bank) {
        svc.inject_faults(bank, injector.sample_interval(rng),
                          /*scrub_async=*/true);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<ClientStats> stats(kClients);
  std::vector<std::thread> clients;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + c);
      BitVec read_buf;
      for (std::uint64_t op = 0; op < kOpsPerClient; ++op) {
        const std::uint64_t addr = rng.next_below(num_addrs);
        const bool owns = addr % kClients == c;
        if (owns && rng.next_bool(0.5)) {
          const std::uint64_t seq = issued[addr].load(std::memory_order_relaxed) + 1;
          issued[addr].store(seq, std::memory_order_release);
          svc.write(addr, payload(addr, seq), stats[c]);
          committed[addr].store(seq, std::memory_order_release);
        } else {
          const std::uint64_t lb = committed[addr].load(std::memory_order_acquire);
          const ReadStatus status = svc.read(addr, stats[c], read_buf);
          const std::uint64_t ub = issued[addr].load(std::memory_order_acquire);
          if (status == ReadStatus::kDue) {
            due_reads.fetch_add(1, std::memory_order_relaxed);
            continue;  // data legitimately lost until the owner rewrites
          }
          std::uint64_t seq = 0;
          if (!payload_intact(read_buf, addr, &seq) || seq < lb || seq > ub) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  stop_injector.store(true, std::memory_order_relaxed);
  injector_thread.join();
  svc.drain();

  EXPECT_EQ(violations.load(), 0u);

  // Quiesced: rewrite any line the injector destroyed (a write over a lost
  // line resynchronises its parity), then the stored state must pass the
  // parity audit and every line must hold its last committed payload.
  ClientStats final_stats;
  BitVec buf;
  for (std::uint64_t addr = 0; addr < num_addrs; ++addr) {
    if (svc.read(addr, final_stats, buf) == ReadStatus::kDue) {
      const std::uint64_t seq = issued[addr].load() + 1;
      issued[addr].store(seq);
      svc.write(addr, payload(addr, seq), final_stats);
      committed[addr].store(seq);
    }
  }
  for (std::uint32_t bank = 0; bank < kBanks; ++bank) {
    svc.scrub_bank_now(bank);
    EXPECT_TRUE(svc.backend(bank).consistent()) << "bank " << bank;
  }
  std::uint64_t mismatches = 0;
  for (std::uint64_t addr = 0; addr < num_addrs; ++addr) {
    const ReadStatus status = svc.read(addr, final_stats, buf);
    ASSERT_NE(static_cast<int>(status), static_cast<int>(ReadStatus::kDue));
    std::uint64_t seq = 0;
    if (!payload_intact(buf, addr, &seq) || seq != committed[addr].load()) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);

  // The lock-free fast path must actually have carried traffic.
  std::uint64_t fast = 0;
  for (const auto& s : stats) {
    fast += s.registry().find_counter("service.read.fast")->value();
  }
  EXPECT_GT(fast, 0u);
}

// ---- graceful degradation under permanent faults ----------------------

// A mixed permanent/intermittent/transient scenario drives two banks while
// clients hammer them, with repeat-offender retirement enabled. The
// service must (a) lose no committed writes, (b) converge — once traffic
// stops and scrubs observe the stuck cells a few times — to a stable
// retired-line set, retiring each line exactly once, and (c) serve every
// line (spare-backed or not) with its last committed payload: degradation
// without silent corruption.
TEST(ServiceDegradation, RetiresRepeatOffendersWithoutLosingData) {
  constexpr std::uint32_t kClients = 6;
  constexpr std::uint32_t kBanks = 2;
  constexpr std::uint64_t kLinesPerBank = 1024;
  constexpr std::uint64_t kOpsPerClient = 1500;
  constexpr std::uint32_t kStrikes = 3;

  SudokuConfig cfg;
  cfg.geo.num_lines = kLinesPerBank;
  cfg.geo.group_size = 32;
  cfg.level = SudokuLevel::kZ;
  MemoryService svc({.banks = kBanks,
                     .repair_workers = 2,
                     .retire_strikes = kStrikes,
                     .spare_lines_per_bank = 64},
                    [&](std::uint32_t) { return make_sudoku_backend(cfg); });
  const std::uint64_t num_addrs = svc.num_lines();
  svc.format([&](std::uint32_t bank, std::uint64_t line) {
    return payload(line * kBanks + bank, 0);
  });

  // One scenario per bank (distinct seeds): stuck-at + intermittent +
  // cluster + iid, the "mixed" preset, against this bank's geometry.
  const faults::Geometry geo{kLinesPerBank, 553};
  std::vector<faults::FaultScenario> scenarios;
  for (std::uint32_t bank = 0; bank < kBanks; ++bank) {
    scenarios.emplace_back(faults::ScenarioSpec::builtin("mixed"), geo,
                           7000 + bank);
  }

  std::vector<std::atomic<std::uint64_t>> issued(num_addrs);
  std::vector<std::atomic<std::uint64_t>> committed(num_addrs);
  std::atomic<std::uint64_t> violations{0};

  // The injector runs a fixed number of fault intervals, paced by client
  // progress rather than wall time: interval t fires once the clients have
  // issued t/kTicks of their operations. The fault load is then the same on
  // any host and build. (A wall-clock injector gave a slow sanitizer build
  // many more intervals; the preset's wear-out population grows with t, and
  // the extra stuck lines overflowed the spare pools.)
  constexpr std::uint64_t kTicks = 12;
  constexpr std::uint64_t kTotalOps = kClients * kOpsPerClient;
  std::atomic<std::uint64_t> ops_started{0};
  std::thread injector_thread([&] {
    for (std::uint64_t t = 0; t < kTicks; ++t) {
      while (ops_started.load(std::memory_order_relaxed) < t * kTotalOps / kTicks) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      for (std::uint32_t bank = 0; bank < kBanks; ++bank) {
        svc.assert_stuck(bank, scenarios[bank].stuck(t).cells(),
                         /*scrub_async=*/true);
        svc.inject_faults(bank, scenarios[bank].transient(t),
                          /*scrub_async=*/true);
      }
    }
  });

  std::vector<ClientStats> stats(kClients);
  std::vector<std::thread> clients;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(4000 + c);
      BitVec read_buf;
      for (std::uint64_t op = 0; op < kOpsPerClient; ++op) {
        ops_started.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t addr = rng.next_below(num_addrs);
        const bool owns = addr % kClients == c;
        if (owns && rng.next_bool(0.5)) {
          const std::uint64_t seq = issued[addr].load(std::memory_order_relaxed) + 1;
          issued[addr].store(seq, std::memory_order_release);
          svc.write(addr, payload(addr, seq), stats[c]);
          committed[addr].store(seq, std::memory_order_release);
        } else {
          const std::uint64_t lb = committed[addr].load(std::memory_order_acquire);
          const ReadStatus status = svc.read(addr, stats[c], read_buf);
          const std::uint64_t ub = issued[addr].load(std::memory_order_acquire);
          if (status == ReadStatus::kDue) continue;  // legitimately lost
          std::uint64_t seq = 0;
          if (!payload_intact(read_buf, addr, &seq) || seq < lb || seq > ub) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  injector_thread.join();
  svc.drain();
  EXPECT_EQ(violations.load(), 0u);

  // Heal anything the fault storm destroyed outright (an owner rewrite is
  // the application-level recovery for a DUE), then converge: re-assert
  // the permanent cells and scrub until the retired set stops moving. The
  // stuck population is constant, so three consecutive dirty sweeps retire
  // every line whose stuck cells disagree with its payload, and nothing
  // else accumulates strikes once transients stop.
  ClientStats final_stats;
  BitVec buf;
  for (std::uint64_t addr = 0; addr < num_addrs; ++addr) {
    if (svc.read(addr, final_stats, buf) == ReadStatus::kDue) {
      const std::uint64_t seq = issued[addr].load() + 1;
      issued[addr].store(seq);
      svc.write(addr, payload(addr, seq), final_stats);
      committed[addr].store(seq);
    }
  }
  const auto converge_round = [&] {
    for (std::uint32_t bank = 0; bank < kBanks; ++bank) {
      svc.assert_stuck(bank, scenarios[bank].stuck(0).cells(),
                       /*scrub_async=*/false);
      svc.scrub_bank_now(bank);
    }
  };
  for (std::uint32_t round = 0; round < kStrikes + 1; ++round) converge_round();
  const DegradationReport before = svc.degradation_report();
  for (std::uint32_t round = 0; round < kStrikes + 1; ++round) converge_round();
  const DegradationReport after = svc.degradation_report();

  // Stable set, some lines actually retired, none spilled past the pool.
  EXPECT_GT(after.retired_mapped, 0u);
  EXPECT_EQ(after.retired_unmapped, 0u);
  ASSERT_EQ(before.banks.size(), after.banks.size());
  for (std::uint32_t bank = 0; bank < kBanks; ++bank) {
    EXPECT_EQ(before.banks[bank].retired_lines, after.banks[bank].retired_lines)
        << "retired set must be stable, bank " << bank;
  }
  EXPECT_DOUBLE_EQ(after.healthy_fraction(), 1.0);

  // Retirement happened exactly once per line: the counter agrees with the
  // set cardinality.
  obs::MetricsRegistry merged;
  svc.merge_metrics_into(merged);
  EXPECT_EQ(merged.find_counter("service.retired_lines")->value(),
            after.retired_mapped + after.retired_unmapped);
  EXPECT_EQ(merged.find_counter("service.retire.pool_exhausted")->value(), 0u);

  // Zero SDC: every address — spare-served or in place — still returns its
  // last committed payload.
  std::uint64_t mismatches = 0;
  ClientStats audit;
  for (std::uint64_t addr = 0; addr < num_addrs; ++addr) {
    const ReadStatus status = svc.read(addr, audit, buf);
    ASSERT_NE(static_cast<int>(status), static_cast<int>(ReadStatus::kDue))
        << "addr " << addr;
    std::uint64_t seq = 0;
    if (!payload_intact(buf, addr, &seq) || seq != committed[addr].load()) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // The audit walked every retired line through the spare path.
  EXPECT_EQ(audit.registry().find_counter("service.read.retired")->value(),
            after.retired_mapped);
}

// ---- repair queue -----------------------------------------------------

TEST(ServiceRepairQueue, DrainIsAFenceForQueuedScrubs) {
  const auto cfg = small_z_config();
  MemoryService svc({.banks = 2, .repair_workers = 2},
                    [&](std::uint32_t) { return make_sudoku_backend(cfg); });
  svc.format_zero();

  constexpr int kSweeps = 24;
  for (int i = 0; i < kSweeps; ++i) svc.scrub_bank_async(i % 2);
  svc.drain();
  EXPECT_EQ(svc.queue_depth(), 0u);
  EXPECT_GE(svc.queue_depth_max(), 1u);

  obs::MetricsRegistry merged;
  svc.merge_metrics_into(merged);
  const obs::Counter* tasks = merged.find_counter("service.repair.tasks");
  ASSERT_NE(tasks, nullptr);
  EXPECT_EQ(tasks->value(), static_cast<std::uint64_t>(kSweeps));
  const obs::Counter* units = merged.find_counter("service.repair.units_scrubbed");
  ASSERT_NE(units, nullptr);
  EXPECT_EQ(units->value(), kSweeps * cfg.geo.num_lines);
}

// ---- load generator ---------------------------------------------------

TEST(LoadGen, ClosedLoopAccountingAddsUp) {
  const auto cfg = small_z_config();
  MemoryService svc({.banks = 2, .repair_workers = 1},
                    [&](std::uint32_t) { return make_sudoku_backend(cfg); });
  svc.format_zero();

  LoadConfig lcfg;
  lcfg.clients = 3;
  lcfg.ops_per_client = 500;  // op-bounded: deterministic op count
  lcfg.duration_ms = 10000;   // irrelevant once op-bounded
  lcfg.seed = 42;
  const LoadReport rep = run_load(svc, lcfg);

  EXPECT_EQ(rep.ops, 3u * 500u);
  EXPECT_EQ(rep.reads + rep.writes, rep.ops);
  EXPECT_GT(rep.reads, 0u);
  EXPECT_GT(rep.writes, 0u);
  EXPECT_GT(rep.qps, 0.0);
  EXPECT_EQ(rep.read_latency_ns.count, rep.reads);
  EXPECT_GT(rep.read_latency_ns.p99, 0.0);
  EXPECT_GE(rep.read_latency_ns.p999, rep.read_latency_ns.p50);

  // Client counters made it into the merged registry.
  const obs::Counter* writes = rep.metrics.find_counter("service.write.count");
  ASSERT_NE(writes, nullptr);
  EXPECT_EQ(writes->value(), rep.writes);
  const obs::Counter* fast = rep.metrics.find_counter("service.read.fast");
  ASSERT_NE(fast, nullptr);
  EXPECT_GT(fast->value(), 0u);
}

TEST(LoadGen, OpenLoopWithInjectionRunsAndDrains) {
  const auto cfg = small_z_config();
  MemoryService svc({.banks = 2, .repair_workers = 1},
                    [&](std::uint32_t) { return make_sudoku_backend(cfg); });
  svc.format_zero();

  LoadConfig lcfg;
  lcfg.clients = 2;
  lcfg.open_loop = true;
  lcfg.open_loop_rate = 50000.0;
  lcfg.duration_ms = 50;
  lcfg.ber_per_interval = 1e-5;
  lcfg.inject_interval_ms = 5;
  lcfg.seed = 43;
  const LoadReport rep = run_load(svc, lcfg);

  EXPECT_GT(rep.ops, 0u);
  EXPECT_EQ(rep.reads + rep.writes, rep.ops);
  EXPECT_EQ(svc.queue_depth(), 0u);  // run_load drains before reporting
  const obs::Counter* tasks = rep.metrics.find_counter("service.repair.tasks");
  ASSERT_NE(tasks, nullptr);
  EXPECT_GT(tasks->value(), 0u);  // injection queued background scrubs
}

// ---- the LineScheme contract -------------------------------------------

// One bank scheme per case, with a fault pattern inside one unit that the
// scheme corrects and, for the region codes, one beyond their budget.
struct LineSchemeCase {
  const char* name;
  std::function<std::unique_ptr<baselines::LineScheme>()> make;
  std::uint64_t num_lines;
  std::uint64_t lines_per_unit;
  std::vector<std::uint32_t> correctable;    // bit positions in one unit
  ReadStatus corrected_as;                   // kCorrected or kRepaired
  std::vector<std::uint32_t> uncorrectable;  // empty: not exercised
};

void PrintTo(const LineSchemeCase& c, std::ostream* os) { *os << c.name; }

void flip_unit(baselines::LineScheme& scheme, std::uint64_t unit,
               const std::vector<std::uint32_t>& bits) {
  FaultBatch batch;
  batch[unit] = bits;
  FaultInjector::apply(batch, scheme.array());
}

class LineSchemeContract : public ::testing::TestWithParam<LineSchemeCase> {};

TEST_P(LineSchemeContract, DataPathProbeAndScrubAgree) {
  const LineSchemeCase& c = GetParam();
  const auto scheme = c.make();
  const std::uint64_t lpu = c.lines_per_unit;
  const auto unit_lines = [lpu](std::uint64_t unit) {
    std::vector<std::uint64_t> lines(lpu);
    for (std::uint64_t k = 0; k < lpu; ++k) lines[k] = unit * lpu + k;
    return lines;
  };
  const auto expect_read = [&](std::uint64_t line, ReadStatus status,
                               const BitVec& data) {
    const ReadResult r = scheme->read(line);
    EXPECT_EQ(static_cast<int>(r.status), static_cast<int>(status)) << line;
    EXPECT_EQ(r.data, data) << line;
  };

  // Geometry: lines map onto units lines_per_unit at a time.
  ASSERT_EQ(scheme->num_lines(), c.num_lines);
  ASSERT_EQ(scheme->num_units() * lpu, c.num_lines);
  for (const std::uint64_t line : {std::uint64_t{0}, lpu - 1, lpu, c.num_lines - 1}) {
    EXPECT_EQ(scheme->unit_of_line(line), line / lpu) << line;
  }

  // format, then every line reads back clean, and the lock-free probe
  // agrees with the full read on every clean line.
  scheme->format([](std::uint64_t line) { return payload(line, 0); });
  BitVec scratch, probed;
  for (std::uint64_t line = 0; line < c.num_lines; ++line) {
    expect_read(line, ReadStatus::kClean, payload(line, 0));
    ASSERT_TRUE(scheme->try_clean_read(line, scratch, probed)) << line;
    ASSERT_EQ(probed, payload(line, 0)) << line;
  }

  // A write reads back, and leaves the other lines of its unit intact.
  const std::uint64_t written = lpu + 1;
  scheme->write(written, payload(written, 5));
  for (const auto line : unit_lines(scheme->unit_of_line(written))) {
    expect_read(line, ReadStatus::kClean, payload(line, line == written ? 5 : 0));
  }
  ASSERT_TRUE(scheme->try_clean_read(written, scratch, probed));
  EXPECT_EQ(probed, payload(written, 5));

  // A correctable fault: the probe refuses the line, the read repairs it
  // and writes the repair back, after which the whole unit is clean.
  const std::uint64_t unit = 3;
  const std::uint64_t line = unit * lpu + lpu / 2;
  flip_unit(*scheme, unit, c.correctable);
  EXPECT_FALSE(scheme->try_clean_read(line, scratch, probed));
  expect_read(line, c.corrected_as, payload(line, 0));
  for (const auto l : unit_lines(unit)) {
    expect_read(l, ReadStatus::kClean, payload(l, 0));
  }
  ASSERT_TRUE(scheme->try_clean_read(line, scratch, probed));
  EXPECT_EQ(probed, payload(line, 0));

  // Beyond the budget: every line of the unit is lost, and the scrub
  // reports exactly that unit. Rewriting the unit's lines restores it.
  if (!c.uncorrectable.empty()) {
    const std::uint64_t lost = 5;
    flip_unit(*scheme, lost, c.uncorrectable);
    EXPECT_FALSE(scheme->try_clean_read(lost * lpu, scratch, probed));
    expect_read(lost * lpu, ReadStatus::kDue, BitVec(512));
    const std::uint64_t units[] = {lost};
    EXPECT_EQ(scheme->scrub_units(units).due_unit_ids,
              std::vector<std::uint64_t>{lost});
    for (const auto l : unit_lines(lost)) scheme->write(l, payload(l, 0));
  }

  EXPECT_TRUE(scheme->scrub_all().due_unit_ids.empty());
  EXPECT_TRUE(scheme->consistent());
  for (std::uint64_t l = 0; l < c.num_lines; ++l) {
    expect_read(l, ReadStatus::kClean, payload(l, l == written ? 5 : 0));
  }
}

std::unique_ptr<baselines::LineScheme> sudoku_bank(SudokuLevel level) {
  SudokuConfig cfg = small_z_config();
  cfg.level = level;
  return make_sudoku_backend(cfg);
}

// Three flips in one SuDoku line: beyond ECC-1, so RAID-4 rebuilds it.
const std::vector<std::uint32_t> kSudokuBurst = {7, 99, 250};

INSTANTIATE_TEST_SUITE_P(
    Banks, LineSchemeContract,
    ::testing::Values(
        LineSchemeCase{"SudokuX", [] { return sudoku_bank(SudokuLevel::kX); }, 4096, 1,
                       kSudokuBurst, ReadStatus::kRepaired, {}},
        LineSchemeCase{"SudokuY", [] { return sudoku_bank(SudokuLevel::kY); }, 4096, 1,
                       kSudokuBurst, ReadStatus::kRepaired, {}},
        LineSchemeCase{"SudokuZ", [] { return sudoku_bank(SudokuLevel::kZ); }, 4096, 1,
                       kSudokuBurst, ReadStatus::kRepaired, {}},
        LineSchemeCase{"TwoDp",
                       [] { return std::make_unique<baselines::TwoDpCache>(4096, 64); },
                       4096, 1, kSudokuBurst, ReadStatus::kRepaired, {}},
        // Hi-ECC: ECC-6 over 1 KB regions of 16 lines; six faults are
        // within budget, eight are not.
        LineSchemeCase{"HiEcc1KBt6",
                       [] { return std::make_unique<baselines::HiEccCache>(256); },
                       256, 16, {1, 100, 515, 3000, 7000, 8200}, ReadStatus::kCorrected,
                       {1, 2, 3, 600, 601, 602, 5000, 5001}},
        // ECC-4 per 64 B line: the (64 B, 4) region point.
        LineSchemeCase{"Ecc4",
                       [] { return std::make_unique<baselines::EccKCache>(256, 4); },
                       256, 1, {3, 200, 511, 540}, ReadStatus::kCorrected,
                       {1, 2, 3, 4, 5, 300, 301}},
        // A frontier point off the 1 KB axis: ECC-3 over 512 B regions.
        LineSchemeCase{"Region512Bt3",
                       [] { return std::make_unique<baselines::RegionEccCache>(256, 512, 3); },
                       256, 8, {5, 900, 4100}, ReadStatus::kCorrected,
                       {1, 2, 3, 2000, 4120}}),
    [](const ::testing::TestParamInfo<LineSchemeCase>& info) {
      return std::string(info.param.name);
    });

// ---- Hi-ECC as a service bank ------------------------------------------

std::unique_ptr<baselines::LineScheme> hiecc_bank(std::uint64_t num_lines) {
  return std::make_unique<baselines::HiEccCache>(num_lines);
}

TEST(HiEccBackend, LineRoundTripAndRegionGeometry) {
  auto backend = hiecc_bank(256);
  EXPECT_EQ(backend->num_lines(), 256u);
  EXPECT_EQ(backend->num_units(), 16u);  // 16 lines per 1 KB region
  EXPECT_EQ(backend->unit_of_line(0), 0u);
  EXPECT_EQ(backend->unit_of_line(15), 0u);
  EXPECT_EQ(backend->unit_of_line(16), 1u);

  backend->format([](std::uint64_t line) { return payload(line, 0); });
  for (const std::uint64_t line : {0ull, 15ull, 16ull, 255ull}) {
    const ReadResult reply = backend->read(line);
    EXPECT_EQ(static_cast<int>(reply.status), static_cast<int>(ReadStatus::kClean));
    EXPECT_EQ(reply.data, payload(line, 0)) << line;
  }

  // A write must leave the other 15 lines of its region intact.
  backend->write(17, payload(17, 5));
  EXPECT_EQ(backend->read(17).data, payload(17, 5));
  EXPECT_EQ(backend->read(16).data, payload(16, 0));
  EXPECT_EQ(backend->read(31).data, payload(31, 0));
}

TEST(HiEccBackend, CorrectsUpToTAndDeclaresDueBeyond) {
  auto backend = hiecc_bank(256);
  backend->format([](std::uint64_t line) { return payload(line, 0); });

  // 6 faults in region 2: within ECC-6's budget, read corrects in place.
  FaultBatch six;
  six[2] = {1, 100, 515, 3000, 7000, 8200};
  FaultInjector::apply(six, backend->array());
  EXPECT_EQ(static_cast<int>(backend->read(32).status),
            static_cast<int>(ReadStatus::kCorrected));
  EXPECT_EQ(backend->read(32).data, payload(32, 0));
  EXPECT_EQ(static_cast<int>(backend->read(33).status),
            static_cast<int>(ReadStatus::kClean));  // read-scrub repaired it

  // 8 faults in region 5: uncorrectable, every line of the region is lost.
  FaultBatch eight;
  eight[5] = {1, 2, 3, 600, 601, 602, 5000, 5001};
  FaultInjector::apply(eight, backend->array());
  EXPECT_EQ(static_cast<int>(backend->read(80).status),
            static_cast<int>(ReadStatus::kDue));
  const std::uint64_t units[] = {5};
  EXPECT_EQ(backend->scrub_units(units).due_unit_ids.size(), 1u);

  // try_clean_read refuses faulty regions and accepts clean ones.
  BitVec scratch, data;
  EXPECT_FALSE(backend->try_clean_read(80, scratch, data));
  ASSERT_TRUE(backend->try_clean_read(0, scratch, data));
  EXPECT_EQ(data, payload(0, 0));
}

}  // namespace
}  // namespace sudoku::service
