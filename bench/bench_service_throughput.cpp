// Concurrent-service throughput (docs/service.md): drive the bank-sharded
// resilient-memory service with N closed-loop clients (plus one open-loop
// Poisson point) and sweep clients × banks × error rate for SuDoku-Z and
// the Hi-ECC baseline. Reports QPS, read-latency quantiles and the repair
// queue's depth watermark per point.
//
// Unlike the table/figure benches this artifact is host-timing: QPS and
// latency depend on the machine and the scheduler, so repro.sh checks only
// its *schema* against the golden copy (--ignore on the measured fields)
// and CI runs the --quick sweep under TSan for the data-race guarantee
// rather than the numbers.
#include <cstdio>
#include <vector>

#include "baselines/hiecc_cache.h"
#include "bench_util.h"
#include "common/rng.h"
#include "service/load_gen.h"
#include "service/service.h"

using namespace sudoku;

namespace {

struct Point {
  std::string scheme;   // "sudoku-z" | "hiecc"
  std::string mode;     // "closed" | "open"
  std::uint32_t clients;
  std::uint32_t banks;
  double ber;           // per bit per injection interval
};

BitVec pattern_line(std::uint32_t bank, std::uint64_t line) {
  BitVec data(512);
  std::uint64_t state = (static_cast<std::uint64_t>(bank) << 40) ^ line;
  for (std::uint32_t i = 0; i < 512; i += 64) {
    data.set_bits(i, 64, splitmix64_next(state));
  }
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs::Options opts;
  opts.threads = false;
  opts.checkpoint = false;
  opts.scale = false;
  opts.load = true;
  opts.extra_flags = {"--quick"};
  bench::Run run(argc, argv, opts);
  const auto& args = run.args;
  const bool quick = args.has_extra("--quick");

  const std::uint64_t lines_per_bank = quick ? 4096 : 16384;
  const std::uint32_t duration_ms =
      args.duration_ms != 0 ? args.duration_ms : (quick ? 60u : 200u);
  const std::uint64_t seed = args.seed_or(1);

  std::vector<std::uint32_t> client_sweep =
      quick ? std::vector<std::uint32_t>{1, 2} : std::vector<std::uint32_t>{1, 2, 4, 8};
  std::vector<std::uint32_t> bank_sweep =
      quick ? std::vector<std::uint32_t>{2} : std::vector<std::uint32_t>{1, 8};
  if (args.clients != 0) client_sweep = {args.clients};
  if (args.banks != 0) bank_sweep = {args.banks};
  const std::uint32_t top_clients = client_sweep.back();
  const std::uint32_t top_banks = bank_sweep.back();

  std::vector<Point> points;
  for (const auto banks : bank_sweep) {
    for (const auto clients : client_sweep) {
      points.push_back({"sudoku-z", "closed", clients, banks, 1e-5});
    }
  }
  for (const double ber : {0.0, 1e-4}) {  // 1e-5 already covered above
    points.push_back({"sudoku-z", "closed", top_clients, top_banks, ber});
  }
  points.push_back({"hiecc", "closed", top_clients, top_banks, 1e-5});
  points.push_back({"sudoku-z", "open", top_clients, top_banks, 1e-5});

  bench::print_header(
      "Concurrent service throughput: clients x banks x error rate");
  bench::print_subnote(
      "host-timing bench: numbers vary with machine load; schema is golden");
  bench::Table rows({{"scheme", "%-9s", "scheme"},
                     {"mode", "%-6s", "mode"},
                     {"clients", "%7u", "clients"},
                     {"banks", "%5u", "banks"},
                     {"", "", "lines_per_bank"},
                     {"ber", "%8s", "ber"},
                     {"", "", "duration_ms"},
                     {"qps", "%10.0f", ""},
                     {"p50_ns", "%9.0f", ""},
                     {"p99_ns", "%9.0f", ""},
                     {"p999_ns", "%9.0f", ""},
                     {"qmax", "%6u", ""}});
  run.stats.threads = top_clients;
  run.stats.shards = points.size();
  double qps_1_client = 0.0, qps_top_client = 0.0;

  for (const auto& p : points) {
    service::ServiceConfig scfg;
    scfg.banks = p.banks;
    scfg.repair_workers = 1;
    service::MemoryService svc(scfg, [&](std::uint32_t)
                                         -> std::unique_ptr<baselines::LineScheme> {
      if (p.scheme == "hiecc") {
        return std::make_unique<baselines::HiEccCache>(lines_per_bank);
      }
      SudokuConfig cfg;
      cfg.geo.num_lines = lines_per_bank;
      cfg.geo.group_size = 64;
      cfg.level = SudokuLevel::kZ;
      return service::make_sudoku_backend(cfg);
    });
    svc.format(pattern_line);

    service::LoadConfig lcfg;
    lcfg.clients = p.clients;
    lcfg.open_loop = p.mode == "open";
    lcfg.open_loop_rate = 200000.0;
    lcfg.duration_ms = duration_ms;
    lcfg.seed = seed;
    if (p.ber > 0.0) {
      lcfg.ber_per_interval = p.ber;
      lcfg.inject_interval_ms = 10;
    }
    const service::LoadReport rep = service::run_load(svc, lcfg);
    run.metrics() += rep.metrics;
    run.stats.trials += rep.ops;

    if (p.scheme == "sudoku-z" && p.mode == "closed" && p.banks == top_banks &&
        p.ber == 1e-5) {
      if (p.clients == 1) qps_1_client = rep.qps;
      if (p.clients == top_clients) qps_top_client = rep.qps;
    }

    exp::JsonObject measured;
    measured.set("ops", rep.ops)
        .set("reads", rep.reads)
        .set("writes", rep.writes)
        .set("due_reads", rep.due_reads)
        .set("qps", rep.qps)
        .set("p50_ns", rep.read_latency_ns.p50)
        .set("p99_ns", rep.read_latency_ns.p99)
        .set("p999_ns", rep.read_latency_ns.p999)
        .set("max_ns", rep.read_latency_ns.max)
        .set("queue_depth_max", rep.queue_depth_max)
        .set("wall_seconds", rep.wall_seconds);
    rows.row(p.scheme, p.mode, p.clients, p.banks, lines_per_bank, p.ber, duration_ms,
             rep.qps, rep.read_latency_ns.p50, rep.read_latency_ns.p99,
             rep.read_latency_ns.p999, rep.queue_depth_max)
        .set("measured", measured);
  }

  if (qps_1_client > 0.0 && top_clients > 1) {
    std::printf("\n  scaling %u -> %u clients (banks=%u, ber=1e-5): %.2fx\n",
                1u, top_clients, top_banks, qps_top_client / qps_1_client);
    bench::print_subnote(
        "acceptance: >= 2.5x on an 8-core host; meaningless on fewer cores");
  }

  exp::JsonObject config;
  config.set("quick", quick)
      .set("lines_per_bank", lines_per_bank)
      .set("group_size", 64)
      .set("duration_ms", duration_ms)
      .set("open_loop_rate", 200000.0)
      .set("inject_interval_ms", 10)
      .set("seed", seed);
  exp::JsonObject result;
  result.set("rows", rows.json());
  run.finish("service_throughput", config, result);
  return 0;
}
