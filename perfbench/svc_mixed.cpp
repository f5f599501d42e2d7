// svc-mixed: the concurrent memory service over SuDoku-Z, driven by the
// benchmark's own closed-loop load. Two clients each run a fixed op count
// (30% writes, 80% of accesses to the hottest 10% of lines). Client 0
// drains the repair queue and injects one BER 1e-5 fault batch per bank
// every kInjectEvery of its ops, so the fault work per op does not depend
// on scheduling. Each client writes only lines of its own residue class,
// which lets the final audit compare every line with a shadow copy.
#include <algorithm>
#include <barrier>
#include <thread>

#include "service/service.h"
#include "sttram/fault_injector.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sudoku;

constexpr std::uint32_t kBanks = 8;
constexpr std::uint64_t kLinesPerBank = 65536;
constexpr std::uint32_t kGroup = 64;
constexpr std::uint32_t kClients = 2;
constexpr std::uint64_t kOpsPerClient = 1'500'000;  // at scale 1.0
constexpr std::uint64_t kInjectEvery = 20'000;
constexpr std::uint64_t kSegments = 10;  // timed stretches between client barriers
constexpr double kBer = 1e-5;
constexpr double kWriteFrac = 0.3;
constexpr double kHotFrac = 0.8;
constexpr double kHotLinesFrac = 0.1;
constexpr std::uint32_t kWriteBit = 1u << 31;

// Payload of `addr` after its `version`-th write (version 0 = format).
BitVec payload(std::uint64_t addr, std::uint32_t version) {
  BitVec data(512);
  std::uint64_t state = (addr << 20) ^ (std::uint64_t{version} * 0x9e3779b97f4a7c15ull) ^ 0x5eed;
  for (std::uint32_t i = 0; i < 512; i += 64) data.set_bits(i, 64, splitmix64_next(state));
  return data;
}

// Line-index parity inside a bank selects the writer: address a lives in
// bank a % kBanks at line a / kBanks.
std::uint32_t owner(std::uint64_t addr) {
  return static_cast<std::uint32_t>((addr / kBanks) % kClients);
}

enum ReadClass { kFast, kLocked, kCorrected, kRepaired, kDueClass, kClasses };

struct ClientLog {
  std::vector<float> read_ns, write_ns;
  std::vector<float> class_ns[kClasses];
  std::vector<double> drain_ns, inject_ns;
  std::uint64_t due_reads = 0;
  double run_s = 0.0;
};

// Sorted latencies of reads of lines that first get `nbits` flipped bits
// (1 = ECC-1 corrected, 2 = group repair), each checked against the shadow.
std::vector<double> prepared_reads(service::MemoryService& svc,
                                   const std::vector<std::uint32_t>& version,
                                   std::uint32_t nbits, RoundResult& out) {
  constexpr std::uint64_t kProbes = 200;
  const auto expect = nbits == 1 ? service::ReadStatus::kCorrected
                                 : service::ReadStatus::kRepaired;
  service::ClientStats stats;
  BitVec data(512);
  std::vector<double> ns;
  std::uint64_t off_path = 0;
  for (std::uint64_t i = 0; i < kProbes; ++i) {
    const std::uint64_t addr = (i * 2654435761u) % version.size();
    const auto bank = static_cast<std::uint32_t>(addr % kBanks);
    FaultBatch batch;
    for (std::uint32_t b = 0; b < nbits; ++b) {
      batch[svc.backend(bank).unit_of_line(addr / kBanks)].push_back(7 + 101 * b);
    }
    svc.inject_faults(bank, batch, /*scrub_async=*/false);
    const auto t0 = Clock::now();
    const auto status = svc.read(addr, stats, data);
    ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
    if (status != expect || data != payload(addr, version[addr])) ++off_path;
  }
  if (off_path != 0) {
    out.errors.push_back(std::to_string(off_path) + " prepared service reads off path");
    out.failed += off_path;
  }
  std::sort(ns.begin(), ns.end());
  return ns;
}

}  // namespace

RoundResult run_svc_mixed(const RoundSpec& spec) {
  RoundResult out;
  const std::uint64_t num_lines = kBanks * kLinesPerBank;
  const std::uint64_t hot_lines = static_cast<std::uint64_t>(kHotLinesFrac * num_lines);
  const std::uint64_t ops_per_client = std::max<std::uint64_t>(
      kInjectEvery, static_cast<std::uint64_t>(kOpsPerClient * spec.scale));
  const std::uint64_t injections = (ops_per_client - 1) / kInjectEvery;

  const auto t_setup = Clock::now();
  // ---- set-up: format, op streams, fault batches ----------------------
  service::ServiceConfig cfg;
  cfg.banks = kBanks;
  cfg.repair_workers = 1;
  service::MemoryService svc(cfg, [](std::uint32_t) {
    SudokuConfig sc;
    sc.geo.num_lines = kLinesPerBank;
    sc.geo.group_size = kGroup;
    sc.level = SudokuLevel::kZ;
    return service::make_sudoku_backend(sc);
  });
  svc.format([](std::uint32_t bank, std::uint64_t line) {
    return payload(line * kBanks + bank, 0);
  });

  // Op streams: address with the write flag in the top bit.
  std::vector<std::vector<std::uint32_t>> streams(kClients);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    Rng rng(Rng::derive_stream_seed(spec.seed, c));
    auto& ops = streams[c];
    ops.resize(ops_per_client);
    for (auto& op : ops) {
      std::uint64_t addr = rng.next_bool(kHotFrac) ? rng.next_below(hot_lines)
                                                   : rng.next_below(num_lines);
      const bool write = rng.next_bool(kWriteFrac);
      if (write && owner(addr) != c) addr ^= kBanks;  // move into own class
      op = static_cast<std::uint32_t>(addr) | (write ? kWriteBit : 0u);
    }
  }
  const std::uint32_t unit_bits = svc.backend(0).bits_per_unit();
  std::vector<FaultBatch> batches;
  {
    Rng rng(Rng::derive_stream_seed(spec.seed, kClients));
    const FaultInjector injector(kLinesPerBank, unit_bits, kBer);
    batches.reserve(injections * kBanks);
    for (std::uint64_t i = 0; i < injections * kBanks; ++i) {
      batches.push_back(injector.sample_interval(rng));
    }
  }
  std::vector<std::uint32_t> version(num_lines, 0);
  out.setup_s = seconds_between(t_setup, Clock::now());

  // ---- timed phase ----------------------------------------------------
  std::vector<ClientLog> logs(kClients);
  std::vector<service::ClientStats> stats(kClients);
  // The clients meet at a barrier every segment_ops ops, so each stretch
  // between barriers is a segment whose fastest time across the rounds
  // enters ops_per_s, as each case does in mc-campaign.
  const std::uint64_t segment_ops = std::max<std::uint64_t>(1, ops_per_client / kSegments);
  std::vector<Clock::time_point> marks;
  marks.reserve(kSegments + 1);
  std::barrier meet(kClients, [&marks]() noexcept { marks.push_back(Clock::now()); });
  const auto client = [&](std::uint32_t c) {
    ClientLog& log = logs[c];
    service::ClientStats& st = stats[c];
    log.read_ns.reserve(ops_per_client);
    log.write_ns.reserve(ops_per_client / 2);
    const obs::Counter* fast = st.registry().find_counter("service.read.fast");
    const obs::Counter* clean = st.registry().find_counter("service.read.clean");
    const obs::Counter* corrected = st.registry().find_counter("service.read.corrected");
    const obs::Counter* repaired = st.registry().find_counter("service.read.repaired");
    BitVec data(512);
    BitVec next(512);
    std::uint64_t injected = 0;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < ops_per_client; ++i) {
      if (i > 0 && i % segment_ops == 0 && i / segment_ops < kSegments) meet.arrive_and_wait();
      if (c == 0 && i > 0 && i % kInjectEvery == 0) {
        const auto d0 = Clock::now();
        svc.drain();
        const auto d1 = Clock::now();
        for (std::uint32_t b = 0; b < kBanks; ++b) {
          svc.inject_faults(b, batches[injected * kBanks + b], /*scrub_async=*/true);
        }
        const auto d2 = Clock::now();
        ++injected;
        log.drain_ns.push_back(std::chrono::duration<double, std::nano>(d1 - d0).count());
        log.inject_ns.push_back(std::chrono::duration<double, std::nano>(d2 - d1).count());
      }
      const std::uint32_t op = streams[c][i];
      const std::uint64_t addr = op & ~kWriteBit;
      if (op & kWriteBit) {
        next = payload(addr, version[addr] + 1);
        const auto t0 = Clock::now();
        svc.write(addr, next, st);
        const auto t1 = Clock::now();
        ++version[addr];
        log.write_ns.push_back(std::chrono::duration<float, std::nano>(t1 - t0).count());
        continue;
      }
      std::uint64_t before[4] = {};
      if (spec.trace) {
        before[0] = fast->value();
        before[1] = clean->value();
        before[2] = corrected->value();
        before[3] = repaired->value();
      }
      const auto t0 = Clock::now();
      const service::ReadStatus status = svc.read(addr, st, data);
      const auto t1 = Clock::now();
      const float ns = std::chrono::duration<float, std::nano>(t1 - t0).count();
      log.read_ns.push_back(ns);
      if (status == service::ReadStatus::kDue) ++log.due_reads;
      if (spec.trace) {
        int cls = kDueClass;
        if (fast->value() != before[0]) cls = kFast;
        else if (clean->value() != before[1]) cls = kLocked;
        else if (corrected->value() != before[2]) cls = kCorrected;
        else if (repaired->value() != before[3]) cls = kRepaired;
        log.class_ns[cls].push_back(ns);
      }
    }
    log.run_s = seconds_between(start, Clock::now());
  };
  const auto t0 = Clock::now();
  marks.push_back(t0);
  {
    std::vector<std::thread> threads;
    for (std::uint32_t c = 1; c < kClients; ++c) threads.emplace_back(client, c);
    client(0);
    for (auto& t : threads) t.join();
  }
  marks.push_back(Clock::now());
  out.wall_s = seconds_between(t0, marks.back());
  for (std::size_t k = 1; k < marks.size(); ++k) {
    out.segment_s.push_back(seconds_between(marks[k - 1], marks[k]));
  }
  out.ops = ops_per_client * kClients;

  // ---- output check: drain, then audit every line ---------------------
  svc.drain();
  std::uint64_t due_reads = 0;
  for (const auto& log : logs) due_reads += log.due_reads;
  if (due_reads != 0) out.errors.push_back(std::to_string(due_reads) + " reads returned DUE");
  std::uint64_t mismatches = 0;
  {
    service::ClientStats audit;
    BitVec data(512);
    for (std::uint64_t addr = 0; addr < num_lines; ++addr) {
      const auto status = svc.read(addr, audit, data);
      if (status == service::ReadStatus::kDue || data != payload(addr, version[addr])) {
        ++mismatches;
      }
    }
  }
  if (mismatches != 0) {
    out.errors.push_back(std::to_string(mismatches) + " lines differ from the shadow copy");
  }
  for (std::uint32_t b = 0; b < kBanks; ++b) {
    if (!svc.backend(b).consistent()) {
      out.errors.push_back("bank " + std::to_string(b) + " parities inconsistent");
      ++mismatches;
    }
  }
  out.failed = due_reads + mismatches;

  // ---- metrics --------------------------------------------------------
  std::vector<double> reads, writes;
  for (const auto& log : logs) {
    reads.insert(reads.end(), log.read_ns.begin(), log.read_ns.end());
    writes.insert(writes.end(), log.write_ns.begin(), log.write_ns.end());
  }
  std::sort(reads.begin(), reads.end());
  std::sort(writes.begin(), writes.end());
  const auto put = [&](const std::string& name, const std::vector<double>& sorted,
                       double q, double scale) {
    const Percentile p = nearest_rank(sorted, q);
    if (p.reportable) out.values[name] = p.value * scale;
  };
  put("read_p50_us", reads, 0.50, 1e-3);
  put("read_p99_us", reads, 0.99, 1e-3);
  put("write_p50_us", writes, 0.50, 1e-3);
  out.values["svc.read_samples"] = static_cast<double>(reads.size());
  out.values["svc.write_samples"] = static_cast<double>(writes.size());
  out.exact["svc.reads"] = reads.size();
  out.exact["svc.writes"] = writes.size();
  out.exact["svc.injections"] = injections;
  std::uint64_t faults = 0;
  for (const auto& b : batches) faults += FaultInjector::count(b);
  out.exact["svc.faults_injected"] = faults;

  if (spec.trace) {
    put("svc.read_p999_us", reads, 0.999, 1e-3);
    put("svc.write_us_p99", writes, 0.99, 1e-3);
    std::vector<double> cls[kClasses];
    for (const auto& log : logs) {
      for (int k = 0; k < kClasses; ++k) {
        cls[k].insert(cls[k].end(), log.class_ns[k].begin(), log.class_ns[k].end());
      }
    }
    for (auto& v : cls) std::sort(v.begin(), v.end());
    out.values["svc.fast_share"] =
        static_cast<double>(cls[kFast].size()) / static_cast<double>(reads.size());
    put("svc.read_fast_ns_p50", cls[kFast], 0.50, 1.0);
    put("svc.read_locked_us_p50", cls[kLocked], 0.50, 1e-3);
    put("svc.read_locked_us_p99", cls[kLocked], 0.99, 1e-3);
    // Corrected and repaired reads are too rare under this load for a
    // steady median, so time them on prepared lines through the service.
    put("svc.read_corrected_us_p50", prepared_reads(svc, version, 1, out), 0.50, 1e-3);
    put("svc.read_repaired_us_p50", prepared_reads(svc, version, 2, out), 0.50, 1e-3);
    const char* names[kClasses] = {"fast", "locked", "corrected", "repaired", "due"};
    for (int k = 0; k < kClasses; ++k) {
      out.values[std::string("svc.read_") + names[k] + "_samples"] =
          static_cast<double>(cls[k].size());
    }
    std::vector<double> drains = logs[0].drain_ns, injects = logs[0].inject_ns;
    double drain_total = 0.0;
    for (const double d : drains) drain_total += d;
    std::sort(drains.begin(), drains.end());
    std::sort(injects.begin(), injects.end());
    put("svc.drain_ms_p50", drains, 0.50, 1e-6);
    put("svc.inject_us_p50", injects, 0.50, 1e-3);
    out.values["svc.drain_share"] = drain_total * 1e-9 / logs[0].run_s;
    obs::MetricsRegistry merged;
    svc.merge_metrics_into(merged);
    const obs::Counter* units = merged.find_counter("service.repair.units_scrubbed");
    out.values["svc.repair_units"] = units ? static_cast<double>(units->value()) : 0.0;
    out.values["svc.queue_depth_max"] = static_cast<double>(svc.queue_depth_max());

    // Attribution: per-class latency x count over the clients' busy time.
    double explained_ns = 0.0;
    for (int k = 0; k < kClasses; ++k) {
      if (!cls[k].empty()) explained_ns += nearest_rank(cls[k], 0.5).value * cls[k].size();
    }
    if (!writes.empty()) explained_ns += nearest_rank(writes, 0.5).value * writes.size();
    if (!drains.empty()) explained_ns += nearest_rank(drains, 0.5).value * drains.size();
    if (!injects.empty()) explained_ns += nearest_rank(injects, 0.5).value * injects.size();
    out.values["svc-mixed.explained_frac"] = explained_ns * 1e-9 / (kClients * out.wall_s);
  }
  return out;
}

}  // namespace perfbench
