#include "service/load_gen.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exp/seed_stream.h"
#include "sim/workload.h"
#include "sttram/fault_injector.h"

namespace sudoku::service {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Log-2 latency buckets, 64 ns .. 64 ms. Reads land in the low decades;
// the wide top catches repair-stalled outliers without losing them to a
// single overflow bucket.
std::vector<double> latency_edges_ns() {
  std::vector<double> edges;
  for (double e = 64.0; e <= 67108864.0; e *= 2.0) edges.push_back(e);
  return edges;
}

struct ClientResult {
  ClientStats stats;
  obs::Histogram* latency = nullptr;  // lives in stats.registry()
  std::uint64_t ops = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t due_reads = 0;
};

struct Mix {
  double write_frac;
  double hot_frac;
  std::uint64_t hot_lines;  // leading hot region, in global lines
};

void client_loop(MemoryService& service, const LoadConfig& config,
                 const Mix& mix, std::uint32_t index, std::uint64_t rng_seed,
                 Clock::time_point start, Clock::time_point deadline,
                 ClientResult& out) {
  Rng rng(rng_seed);
  const std::uint64_t num_lines = service.num_lines();
  BitVec data(512);
  BitVec read_buf;

  // Open-loop arrival schedule: exponential gaps at the per-client rate.
  const double client_rate =
      config.open_loop_rate / static_cast<double>(config.clients);
  double next_arrival_s = 0.0;

  for (std::uint64_t op = 0;; ++op) {
    if (config.ops_per_client != 0 && op >= config.ops_per_client) break;

    Clock::time_point issue = Clock::now();
    if (config.open_loop) {
      next_arrival_s += rng.next_exponential(client_rate);
      const auto arrival =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(next_arrival_s));
      if (arrival > deadline) break;
      while (Clock::now() < arrival) {
        std::this_thread::yield();
      }
      issue = arrival;  // latency counts queueing behind schedule
    } else if (config.ops_per_client == 0 && Clock::now() >= deadline) {
      break;
    }

    std::uint64_t addr;
    if (mix.hot_lines > 0 && rng.next_bool(mix.hot_frac)) {
      addr = rng.next_below(mix.hot_lines);
    } else {
      addr = rng.next_below(num_lines);
    }

    if (rng.next_bool(mix.write_frac)) {
      // Cheap distinct payload; correctness of payloads is the stress
      // test's job, the load gen only needs realistic write cost.
      data.set_bits(0, 64, (static_cast<std::uint64_t>(index) << 48) ^ op);
      service.write(addr, data, out.stats);
      ++out.writes;
    } else {
      const ReadStatus status = service.read(addr, out.stats, read_buf);
      const auto done = Clock::now();
      out.latency->observe(seconds_between(issue, done) * 1e9);
      if (status == ReadStatus::kDue) ++out.due_reads;
      ++out.reads;
    }
    ++out.ops;
  }
}

void injector_loop(MemoryService& service, const LoadConfig& config,
                   std::uint64_t rng_seed, Clock::time_point deadline,
                   const std::atomic<bool>& stop) {
  Rng rng(rng_seed);
  std::vector<FaultInjector> injectors;
  injectors.reserve(service.banks());
  for (std::uint32_t bank = 0; bank < service.banks(); ++bank) {
    const baselines::LineScheme& scheme = service.backend(bank);
    injectors.emplace_back(scheme.num_units(), scheme.bits_per_unit(),
                           config.ber_per_interval);
  }
  const auto interval = std::chrono::milliseconds(config.inject_interval_ms);
  auto next = Clock::now() + interval;
  while (!stop.load(std::memory_order_relaxed) && Clock::now() < deadline) {
    if (Clock::now() < next) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    next += interval;
    for (std::uint32_t bank = 0; bank < service.banks(); ++bank) {
      const FaultBatch batch = injectors[bank].sample_interval(rng);
      service.inject_faults(bank, batch, /*scrub_async=*/true);
    }
  }
}

}  // namespace

LoadReport run_load(MemoryService& service, const LoadConfig& config) {
  Mix mix{config.write_frac, config.hot_frac,
          static_cast<std::uint64_t>(config.hot_lines_frac *
                                     static_cast<double>(service.num_lines()))};
  if (!config.profile.empty()) {
    const sim::BenchmarkProfile& p = sim::find_benchmark(config.profile);
    mix.write_frac = p.write_frac;
    mix.hot_frac = p.hot_frac;
    mix.hot_lines = static_cast<std::uint64_t>(
        p.hot_lines_frac * static_cast<double>(service.num_lines()));
  }

  const exp::SeedSequence seeds(config.seed);
  const auto edges = latency_edges_ns();
  std::vector<ClientResult> results(config.clients);
  for (auto& r : results) {
    r.latency = r.stats.registry().histogram("service.read.latency_ns", edges);
  }

  const auto start = Clock::now();
  const auto deadline = start + std::chrono::milliseconds(config.duration_ms);

  std::atomic<bool> stop_injector{false};
  std::thread injector;
  if (config.ber_per_interval > 0.0 && config.inject_interval_ms > 0) {
    injector = std::thread([&] {
      injector_loop(service, config, seeds.stream(config.clients), deadline,
                    stop_injector);
    });
  }

  std::vector<std::thread> clients;
  clients.reserve(config.clients);
  for (std::uint32_t c = 0; c < config.clients; ++c) {
    clients.emplace_back([&, c] {
      client_loop(service, config, mix, c, seeds.stream(c), start, deadline,
                  results[c]);
    });
  }
  for (auto& t : clients) t.join();
  const auto end = Clock::now();

  stop_injector.store(true, std::memory_order_relaxed);
  if (injector.joinable()) injector.join();
  service.drain();

  LoadReport report;
  report.wall_seconds = seconds_between(start, end);
  obs::Histogram merged_latency(edges);
  for (auto& r : results) {
    report.ops += r.ops;
    report.reads += r.reads;
    report.writes += r.writes;
    report.due_reads += r.due_reads;
    merged_latency += *r.latency;
    report.metrics += r.stats.registry();
  }
  service.merge_metrics_into(report.metrics);
  report.qps = report.wall_seconds > 0.0
                   ? static_cast<double>(report.ops) / report.wall_seconds
                   : 0.0;
  report.read_latency_ns = merged_latency.summary();
  report.queue_depth_max = service.queue_depth_max();
  return report;
}

}  // namespace sudoku::service
