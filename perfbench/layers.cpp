// Per-layer host costs, timed from outside through public calls on
// replayed inputs. Every probe runs a fixed number of calls and reports a
// median, and every prepared outcome (ECC-1, RAID-4, SDR, Hash-2) is checked
// through the controller's own counters before it is timed.
#include <algorithm>
#include <map>
#include <memory>

#include "baselines/ecck_cache.h"
#include "baselines/hiecc_cache.h"
#include "cache/cache_model.h"
#include "faults/scenario.h"
#include "sim/dram.h"
#include "sim/trace_io.h"
#include "sim/workload.h"
#include "sttram/fault_injector.h"
#include "sudoku/controller.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sudoku;

constexpr std::uint64_t kLines = 4096;
constexpr std::uint32_t kGroup = 64;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

// Median over `batches` batches of `calls` back-to-back calls, per call.
template <typename Fn>
double batched_ns(std::uint64_t batches, std::uint64_t calls, Fn&& fn) {
  std::vector<double> per_call;
  std::uint64_t i = 0;
  for (std::uint64_t b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (std::uint64_t k = 0; k < calls; ++k) fn(i++);
    per_call.push_back(ns_since(t0) / static_cast<double>(calls));
  }
  return median(per_call);
}

// Median of individually timed calls, each after an untimed `prepare`.
template <typename Prep, typename Fn>
double prepared_ns(std::uint64_t calls, Prep&& prepare, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(calls);
  for (std::uint64_t i = 0; i < calls; ++i) {
    prepare(i);
    const auto t0 = Clock::now();
    fn(i);
    samples.push_back(ns_since(t0));
  }
  return median(samples);
}

SudokuController make_controller(SudokuLevel level, std::uint64_t seed) {
  SudokuConfig cfg;
  cfg.geo.num_lines = kLines;
  cfg.geo.group_size = kGroup;
  cfg.level = level;
  SudokuController ctrl(cfg);
  Rng rng(seed);
  ctrl.format_random(rng);
  return ctrl;
}

std::vector<std::uint64_t> sorted_units(const FaultBatch& batch) {
  std::vector<std::uint64_t> units;
  units.reserve(batch.size());
  for (const auto& [unit, bits] : batch) units.push_back(unit);
  std::sort(units.begin(), units.end());
  return units;
}

struct Probe {
  RoundResult& out;
  void put(const std::string& name, double v) { out.values[name] = v; }
  void fail(const std::string& what) {
    out.errors.push_back(what);
    ++out.failed;
  }
};

// Reads prepared for one controller outcome: corrupt `lines` at `bits`,
// read the first line, and check the outcome and the repair counter moved.
double read_outcome_ns(Probe& p, SudokuLevel level, std::uint64_t seed,
                       const std::string& label, const char* counter,
                       std::uint64_t calls,
                       const std::function<std::vector<std::pair<std::uint64_t, std::uint32_t>>(
                           std::uint64_t)>& faults_for) {
  SudokuController ctrl = make_controller(level, seed);
  obs::MetricsRegistry reg;
  ctrl.attach_metrics(&reg);
  std::uint64_t target = 0;
  BitVec golden;
  std::uint64_t bad = 0;
  const double ns = prepared_ns(
      calls,
      [&](std::uint64_t i) {
        const auto flips = faults_for(i);
        target = flips.front().first;
        golden = ctrl.read_data(target).data;
        for (const auto& [line, bit] : flips) ctrl.array().flip(line, bit);
      },
      [&](std::uint64_t) {
        const auto before = counter ? reg.counter(counter)->value() : 0;
        const auto r = ctrl.read_data(target);
        if (r.data != golden || (counter && reg.counter(counter)->value() == before)) ++bad;
      });
  if (bad != 0) p.fail("sudoku." + label + ": " + std::to_string(bad) + " reads off the prepared path");
  return ns;
}

// Per-trial layer cost of one mc-campaign case replayed outside the engine:
// the fault draw plus the scrub of the touched units.
struct ReplayCost {
  double draw_us = 0.0;
  double scrub_us = 0.0;
};

ReplayCost replay_sudoku(SudokuLevel level, double ber, const faults::FaultScenario* scn,
                         std::uint64_t seed, std::uint64_t intervals) {
  SudokuController ctrl = make_controller(level, seed);
  std::vector<BitVec> golden(kLines);
  for (std::uint64_t l = 0; l < kLines; ++l) golden[l] = ctrl.array().read_line(l);
  const FaultInjector injector(kLines, ctrl.codec().total_bits(), ber);
  Rng rng(seed ^ 0xfeed);
  std::vector<double> draw, scrub;
  for (std::uint64_t t = 0; t < intervals; ++t) {
    auto t0 = Clock::now();
    const FaultBatch batch = scn ? scn->transient(t) : injector.sample_interval(rng);
    draw.push_back(ns_since(t0));
    FaultInjector::apply(batch, ctrl.array());
    const auto lines = sorted_units(batch);
    t0 = Clock::now();
    const ScrubStats st = ctrl.scrub_lines(lines);
    scrub.push_back(ns_since(t0));
    if (st.due_lines != 0) {
      for (const auto l : lines) ctrl.array().write_line(l, golden[l]);
      ctrl.rebuild_parities_for(lines);
    }
  }
  return {median(draw) * 1e-3, median(scrub) * 1e-3};
}

ReplayCost replay_baseline(baselines::CacheScheme& scheme, double ber,
                           const faults::FaultScenario* scn, std::uint64_t seed,
                           std::uint64_t intervals) {
  Rng rng(seed);
  scheme.format_random(rng);
  std::vector<BitVec> golden(scheme.num_units());
  for (std::uint64_t u = 0; u < scheme.num_units(); ++u) golden[u] = scheme.array().read_line(u);
  const FaultInjector injector(scheme.num_units(), scheme.bits_per_unit(), ber);
  std::vector<double> draw, scrub;
  for (std::uint64_t t = 0; t < intervals; ++t) {
    auto t0 = Clock::now();
    const FaultBatch batch = scn ? scn->transient(t) : injector.sample_interval(rng);
    draw.push_back(ns_since(t0));
    FaultInjector::apply(batch, scheme.array());
    const auto units = sorted_units(batch);
    t0 = Clock::now();
    const auto st = scheme.scrub_units(units);
    scrub.push_back(ns_since(t0));
    for (const auto u : st.due_unit_ids) scheme.restore_unit(u, golden[u]);
  }
  return {median(draw) * 1e-3, median(scrub) * 1e-3};
}

}  // namespace

RoundResult run_layer_probes(const RoundSpec& spec, const std::string& traces_dir) {
  RoundResult out;
  Probe p{out};
  const auto n = [&](std::uint64_t base) {
    return std::max<std::uint64_t>(8, static_cast<std::uint64_t>(base * spec.scale));
  };
  const auto t0 = Clock::now();
  const std::uint64_t seed = spec.seed;

  // ---- sttram / faults ------------------------------------------------
  SudokuController z = make_controller(SudokuLevel::kZ, seed);
  const std::uint32_t line_bits = z.codec().total_bits();
  {
    const FaultInjector inj(kLines, line_bits, 3.5e-4);
    Rng rng(seed);
    p.put("sttram.sample_interval_us",
          batched_ns(n(9), 20, [&](std::uint64_t) { keep(inj.sample_interval(rng).size()); }) * 1e-3);
    const faults::FaultScenario scn(faults::ScenarioSpec::builtin("mixed"),
                                    faults::Geometry{kLines, line_bits}, seed);
    p.put("faults.tick_us",
          batched_ns(n(9), 20, [&](std::uint64_t t) { keep(scn.transient(t).size()); }) * 1e-3);
  }

  // ---- codes ------------------------------------------------------------
  {
    const LineCodec& codec = z.codec();
    std::vector<BitVec> stored(64);
    for (std::uint64_t l = 0; l < 64; ++l) stored[l] = z.array().read_line(l * 61);
    p.put("codes.fully_clean_ns", batched_ns(n(9), 20000, [&](std::uint64_t i) {
            keep(codec.fully_clean(stored[i & 63]));
          }));
    BitPlanes planes;
    p.put("codes.fully_clean_batch_ns", batched_ns(n(9), 400, [&](std::uint64_t) {
            keep(codec.fully_clean_batch(stored, planes));
          }) / 64.0);
    p.put("codes.crc31_ns", batched_ns(n(9), 20000, [&](std::uint64_t i) {
            keep(codec.crc().compute(stored[i & 63], LineCodec::kMessageBits));
          }));
    BitVec work;
    std::uint64_t uncorrected = 0;
    p.put("codes.correct_ns", prepared_ns(
              n(20000),
              [&](std::uint64_t i) {
                work = stored[i & 63];
                work.flip((i * 131) % line_bits);
              },
              [&](std::uint64_t) {
                if (codec.check_and_correct(work) != LineCodec::LineState::kCorrected) ++uncorrected;
              }));
    if (uncorrected != 0) p.fail("codes.correct: single-bit errors left uncorrected");

    // Hi-ECC region code (1 KB payload, t = 6).
    const baselines::HiEccCache hiecc(kLines, 6);
    const Bch& bch = hiecc.codec();
    BitVec cw(bch.codeword_bits());
    Rng rng(seed);
    for (std::size_t i = 0; i < bch.message_bits(); ++i) cw.assign(i, rng.next_bool(0.5));
    bch.encode(cw);
    BitVec noisy = cw;
    for (int e = 0; e < bch.t(); ++e) noisy.flip((e * 977 + 13) % bch.codeword_bits());
    p.put("codes.bch_region_syndromes_ns", batched_ns(n(9), 200, [&](std::uint64_t) {
            keep(bch.syndromes(noisy).front());
          }));
    std::uint64_t undecoded = 0;
    p.put("codes.bch_decode_ns", prepared_ns(
              n(600), [&](std::uint64_t) { work = noisy; },
              [&](std::uint64_t) {
                if (bch.decode(work).status != Bch::DecodeStatus::kCorrected) ++undecoded;
              }));
    if (undecoded != 0 || work != cw) p.fail("codes.bch_decode: region codeword not restored");
  }

  // ---- sudoku -------------------------------------------------------------
  {
    p.put("sudoku.read_clean_ns", batched_ns(n(9), 5000, [&](std::uint64_t i) {
            keep(z.read_data((i * 61) % kLines).data.words()[0]);
          }));
    const auto one_line = [](std::uint64_t i, int nbits, std::uint32_t offset) {
      std::vector<std::pair<std::uint64_t, std::uint32_t>> flips;
      const std::uint64_t line = (i * 97) % kLines;
      for (int b = 0; b < nbits; ++b) flips.push_back({line, offset + 37u * b});
      return flips;
    };
    p.put("sudoku.read_ecc1_ns",
          read_outcome_ns(p, SudokuLevel::kZ, seed, "read_ecc1", nullptr, n(4000),
                          [&](std::uint64_t i) { return one_line(i, 1, 5); }));
    p.put("sudoku.read_raid4_ns",
          read_outcome_ns(p, SudokuLevel::kX, seed, "read_raid4", "sudoku.repair.raid4",
                          n(800), [&](std::uint64_t i) { return one_line(i, 2, 5); }));
    // Two 2-fault lines of one group at different bits: SDR resurrects one,
    // RAID-4 the other.
    p.put("sudoku.read_sdr_ns",
          read_outcome_ns(p, SudokuLevel::kY, seed, "read_sdr", "sudoku.repair.sdr",
                          n(400), [&](std::uint64_t i) {
                            auto f = one_line(i, 2, 5);
                            const std::uint64_t mate = f.front().first ^ 1;
                            f.push_back({mate, 300});
                            f.push_back({mate, 411});
                            return f;
                          }));
    // Same two bits flipped in two lines of one Hash-1 group: the parity
    // mismatch cancels, SDR has nothing to try, and Hash-2 repairs both.
    p.put("sudoku.read_hash2_ns",
          read_outcome_ns(p, SudokuLevel::kZ, seed, "read_hash2", "sudoku.repair.hash2",
                          n(400), [&](std::uint64_t i) {
                            auto f = one_line(i, 2, 5);
                            const std::uint64_t mate = f.front().first ^ 1;
                            f.push_back({mate, f[0].second});
                            f.push_back({mate, f[1].second});
                            return f;
                          }));
    BitVec data(LineCodec::kDataBits);
    Rng rng(seed);
    for (std::uint32_t i = 0; i < LineCodec::kDataBits; i += 64) data.set_bits(i, 64, rng.next_u64());
    p.put("sudoku.write_ns", batched_ns(n(9), 2000, [&](std::uint64_t i) {
            z.write_data((i * 61) % kLines, data);
          }));
    const ReplayCost zc = replay_sudoku(SudokuLevel::kZ, 3.5e-4, nullptr, seed, n(60));
    p.put("sudoku.scrub_us_per_interval", zc.scrub_us);
  }

  // ---- per-case replay costs for the mc-campaign attribution -----------
  {
    const faults::ScenarioSpec mixed = faults::ScenarioSpec::builtin("mixed");
    const faults::FaultScenario sudoku_mixed(mixed, faults::Geometry{kLines, line_bits}, seed);
    baselines::EccKCache ecc4(kLines, 4);
    const faults::FaultScenario ecc4_mixed(
        mixed, faults::Geometry{ecc4.num_units(), ecc4.bits_per_unit()}, seed);
    baselines::HiEccCache hiecc(kLines, 6);
    const std::uint64_t iv = n(30);
    const std::map<std::string, ReplayCost> costs = {
        {"sudoku-x", replay_sudoku(SudokuLevel::kX, 1e-4, nullptr, seed, iv)},
        {"sudoku-y", replay_sudoku(SudokuLevel::kY, 2.5e-4, nullptr, seed, iv)},
        {"sudoku-z", replay_sudoku(SudokuLevel::kZ, 3.5e-4, nullptr, seed, iv)},
        {"sudoku-z-mixed", replay_sudoku(SudokuLevel::kZ, 0.0, &sudoku_mixed, seed, iv)},
        {"ecc4-mixed", replay_baseline(ecc4, 0.0, &ecc4_mixed, seed, iv)},
        {"ecc4", replay_baseline(ecc4, 1e-4, nullptr, seed, iv)},
        {"hiecc", replay_baseline(hiecc, 1e-4, nullptr, seed, iv)},
    };
    for (const auto& [name, c] : costs) {
      p.put("mc." + name + ".layer_us_per_trial", c.draw_us + c.scrub_us);
    }
  }

  // ---- sim / cache / dram -------------------------------------------------
  {
    sim::TraceGenerator gen(sim::find_benchmark("mcf"), 0, seed);
    p.put("sim.tracegen_ns", batched_ns(n(9), 50000, [&](std::uint64_t) { keep(gen.next().addr); }));

    // Replay a recorded mixed access stream into the LLC and DRAM models.
    std::vector<sim::LlcAccess> stream;
    const std::uint64_t len = n(400000);
    stream.reserve(len);
    const char* names[] = {"mcf", "lbm", "omnetpp", "gcc"};
    std::vector<sim::TraceGenerator> gens;
    for (std::uint32_t c = 0; c < 4; ++c) gens.emplace_back(sim::find_benchmark(names[c]), c, seed);
    for (std::uint64_t i = 0; i < len; ++i) stream.push_back(gens[i & 3].next());
    cache::CacheModel llc(cache::CacheConfig{});
    const std::uint64_t per_batch = len / 8;
    p.put("cache.access_ns", batched_ns(8, per_batch, [&](std::uint64_t i) {
            keep(llc.access(stream[i].addr, stream[i].is_write).hit);
          }));
    sim::DramModel dram(sim::DramConfig{});
    double now = 0.0;
    p.put("dram.access_ns", batched_ns(8, per_batch, [&](std::uint64_t i) {
            now = dram.access(stream[i].addr, now, stream[i].is_write);
          }));
    // Parse cost per record: each call loads both traces from disk.
    const std::string ai = traces_dir + "/ai_stream.trace";
    const std::string hpc = traces_dir + "/hpc_mix.trace";
    const auto records = static_cast<double>(sim::Ramulator2TraceReader(ai).size() +
                                             sim::Ramulator2TraceReader(hpc).size());
    p.put("sim.trace_read_ns", batched_ns(n(9), 10, [&](std::uint64_t) {
            keep(sim::Ramulator2TraceReader(ai).size() + sim::Ramulator2TraceReader(hpc).size());
          }) / records);
  }
  out.wall_s = seconds_between(t0, Clock::now());
  return out;
}

}  // namespace perfbench
