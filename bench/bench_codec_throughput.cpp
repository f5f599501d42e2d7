// Microbenchmarks of the coding substrate, tracking the word-at-a-time
// and batch kernel speedups (docs/perf.md) as an artifact: bit-serial vs
// byte-table vs slicing-by-8 vs PCLMUL CRC-31, reference vs parity-mask
// vs bit-sliced Hamming syndrome, and, for ECC-2..6 plus the Hi-ECC
// geometry, the bit-serial BCH syndromes vs the table and CLMUL remainder
// kernels that encode, check and decode run on, plus the Hi-ECC locate
// (Berlekamp–Massey and Chien search) at 3 and 6 errors.
// Contextual for §II-D's point that multi-bit ECC decoders are far more
// expensive than ECC-1 + CRC: the BCH decode cost grows with k while the
// SuDoku fast path stays flat.
//
// The Hamming batch row streams kStreamLines codewords through BitPlanes
// batches of 64 — including a partial final batch, whose payload is
// charged at its *actual* width (bench::batched_items), not the nominal 64.
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "codes/batch_codec.h"
#include "codes/bch.h"
#include "codes/crc31.h"
#include "codes/hamming.h"
#include "common/rng.h"

using namespace sudoku;

namespace {

BitVec random_bits(std::size_t n, Rng& rng) {
  BitVec v(n);
  auto w = v.words();
  for (auto& word : w) word = rng.next_u64();
  if (n % 64) w[w.size() - 1] &= (std::uint64_t{1} << (n % 64)) - 1;
  return v;
}

struct Measurement {
  std::uint64_t iters = 0;
  double seconds = 0.0;
  double mb_per_s = 0.0;  // payload megabytes decoded/checked per second
};

// Run `op` (which must consume one `payload_bits`-bit block per call) until
// the clock budget is spent; calibrates in batches so the timer overhead
// stays negligible.
Measurement time_kernel(std::size_t payload_bits, std::uint64_t min_iters,
                        const std::function<void()>& op) {
  using Clock = std::chrono::steady_clock;
  Measurement m;
  const auto start = Clock::now();
  std::uint64_t batch = 256;
  for (;;) {
    for (std::uint64_t i = 0; i < batch; ++i) op();
    m.iters += batch;
    m.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    if (m.iters >= min_iters && m.seconds >= 0.05) break;
    batch = batch < (1u << 16) ? batch * 2 : batch;
  }
  m.mb_per_s = (static_cast<double>(m.iters) * static_cast<double>(payload_bits) /
                8.0 / 1e6) /
               m.seconds;
  return m;
}

struct Row {
  std::string code, kernel;
  Measurement m;
  double speedup = 1.0;           // vs the row's bit-serial reference kernel
  double speedup_vs_per_line = 0;  // batch rows: vs the per-line fast kernel
};

// Stream of `lines` random codewords of `nbits` for the batch rows.
std::vector<BitVec> random_stream(std::size_t lines, std::size_t nbits, Rng& rng) {
  std::vector<BitVec> stream(lines);
  for (auto& cw : stream) cw = random_bits(nbits, rng);
  return stream;
}

// Lines the batch rows stream per timed op: three full 64-line batches
// plus a partial 8-line tail, so the partial-batch payload accounting is
// exercised on every iteration.
constexpr std::uint64_t kStreamLines = 200;

// Time a bit-sliced batch zero check over a kStreamLines stream of
// `nbits`-bit codewords, transpose included, charging the partial tail
// batch at its actual width.
template <typename ZeroCheck>
Measurement time_batches(const std::vector<BitVec>& stream, std::size_t nbits,
                         std::uint64_t min_iters, const ZeroCheck& zero_check) {
  BitPlanes planes;
  volatile std::uint64_t zsink = 0;
  const std::uint64_t nb = bench::batch_count(kStreamLines, BitPlanes::kMaxLines);
  const std::uint64_t lines =
      bench::batched_items(kStreamLines, BitPlanes::kMaxLines, nb);
  const Measurement m = time_kernel(lines * nbits, min_iters, [&] {
    std::uint64_t z = 0;
    for (std::uint64_t b = 0; b < nb; ++b) {
      const std::uint64_t w = bench::batch_width(kStreamLines, BitPlanes::kMaxLines, b);
      planes.reset(nbits, w);
      for (std::uint64_t i = 0; i < w; ++i) {
        planes.load_line(i, stream[b * BitPlanes::kMaxLines + i].words());
      }
      planes.finalize();
      z ^= zero_check(planes);
    }
    zsink = z;
  });
  (void)zsink;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run(argc, argv, bench::single_threaded_options());
  const std::uint64_t base_iters = 2000 * run.args.scale;
  Rng rng(run.args.seed_or(17));

  bench::print_header("Codec kernel throughput (payload MB/s, higher is better)");
  bench::print_subnote(
      "speedup is vs the bit-serial oracle of the same code; all kernels are"
      " bit-identical (tests/test_codec_kernels.cpp)");

  std::vector<Row> rows;

  // ---- CRC-31 over the 512-bit data field ----
  {
    const Crc31 crc;
    const BitVec data = random_bits(512, rng);
    volatile std::uint32_t sink = 0;
    const Measurement serial = time_kernel(
        512, base_iters / 4, [&] { sink = crc.compute_bitserial(data, 512); });
    const Measurement bytewise = time_kernel(
        512, base_iters, [&] { sink = crc.compute_bytewise(data, 512); });
    const Measurement slicing =
        time_kernel(512, base_iters, [&] { sink = crc.compute_slicing8(data, 512); });
    // The CLMUL row is emitted on every host (stable artifact structure);
    // without pclmulqdq it records zero throughput instead of timing a
    // different kernel under the clmul name.
    Measurement clmul;
    if (Crc31::clmul_supported()) {
      clmul = time_kernel(512, base_iters, [&] { sink = crc.compute_clmul(data, 512); });
    }
    (void)sink;
    rows.push_back({"crc31", "bit_serial", serial, 1.0});
    rows.push_back({"crc31", "byte_table", bytewise, bytewise.mb_per_s / serial.mb_per_s});
    rows.push_back({"crc31", "slicing_by_8", slicing, slicing.mb_per_s / serial.mb_per_s});
    rows.push_back({"crc31", "clmul", clmul, clmul.mb_per_s / serial.mb_per_s});
  }

  // ---- Hamming ECC-1 syndrome + decode over the 553-bit line ----
  {
    const Hamming h(543);
    BitVec cw = random_bits(553, rng);
    h.encode(cw);
    BitVec dirty = cw;
    dirty.flip(rng.next_below(553));
    volatile std::uint32_t sink = 0;
    const Measurement ref = time_kernel(
        553, base_iters / 4, [&] { sink = h.syndrome_reference(cw); });
    // The dispatched kernel: AVX-512 where the host has it, else portable
    // (the row keeps its name so the artifact's rows stay fixed).
    const Measurement fast =
        time_kernel(553, base_iters, [&] { sink = h.syndrome(cw); });
    (void)sink;
    rows.push_back({"hamming_543", "syndrome_reference", ref, 1.0});
    rows.push_back({"hamming_543", "syndrome_masks", fast, fast.mb_per_s / ref.mb_per_s});
    BitVec scratch(553);
    const Measurement dec_clean = time_kernel(553, base_iters, [&] {
      scratch = cw;
      h.decode(scratch);
    });
    const Measurement dec_err = time_kernel(553, base_iters, [&] {
      scratch = dirty;
      h.decode(scratch);
    });
    rows.push_back({"hamming_543", "decode_clean", dec_clean,
                    dec_clean.mb_per_s / ref.mb_per_s});
    rows.push_back({"hamming_543", "decode_one_error", dec_err,
                    dec_err.mb_per_s / ref.mb_per_s});

    // Bit-sliced batch syndrome over a 200-line stream (64-line batches +
    // partial tail), including the transpose.
    const auto stream = random_stream(kStreamLines, 553, rng);
    const Measurement batch = time_batches(
        stream, 553, base_iters / 64,
        [&](const BitPlanes& planes) { return h.batch_syndromes_zero(planes); });
    rows.push_back({"hamming_543", "batch_sliced", batch,
                    batch.mb_per_s / ref.mb_per_s, batch.mb_per_s / fast.mb_per_s});
  }

  // ---- BCH ECC-t remainder (t = 2..6 over 512 bits, Hi-ECC's ECC-6 over
  // 1 KB at m = 14) ----
  // The CLMUL row is emitted on every host (stable artifact structure);
  // without pclmulqdq it records zero throughput.
  struct BchCode {
    std::string name;
    int m;
    int t;
    std::size_t k;
    std::uint64_t ref_div;  // the bit-serial oracle's iteration divisor
  };
  const BchCode codes[] = {{"bch_t2", 10, 2, 512, 8},
                           {"bch_t3", 10, 3, 512, 8},
                           {"bch_t6", 10, 6, 512, 8},
                           {"bch_hiecc_m14_t6", 14, 6, 8192, 32}};
  for (const auto& c : codes) {
    const Bch bch(c.m, c.t, c.k);
    const std::size_t n = bch.codeword_bits();
    BitVec cw = random_bits(n, rng);
    bch.encode(cw);
    volatile std::uint64_t sink = 0;
    const Measurement ref = time_kernel(n, base_iters / c.ref_div, [&] {
      sink = bch.syndromes_reference(cw)[0];
    });
    const Measurement table =
        time_kernel(n, base_iters / 4, [&] { sink = bch.remainder_table(cw)[0]; });
    Measurement clmul;
    if (Bch::clmul_supported()) {
      clmul = time_kernel(n, base_iters, [&] { sink = bch.remainder_clmul(cw)[0]; });
    }
    rows.push_back({c.name, "syndromes_reference", ref, 1.0});
    rows.push_back({c.name, "remainder_table", table, table.mb_per_s / ref.mb_per_s});
    rows.push_back({c.name, "remainder_clmul", clmul, clmul.mb_per_s / ref.mb_per_s});
    (void)sink;

    if (c.m != 14) continue;
    // Locate: Berlekamp–Massey plus the Chien search, from the syndromes
    // of a word with 3 and with 6 errors (the flips are undone by copying
    // the dirty word back before each call).
    for (const int errors : {3, 6}) {
      BitVec dirty = cw;
      for (int e = 0; e < errors; ++e) dirty.flip(rng.next_below(n));
      const auto s = bch.syndromes(dirty);
      BitVec scratch = dirty;
      const Measurement locate = time_kernel(n, base_iters / 64, [&] {
        scratch = dirty;
        sink = static_cast<std::uint64_t>(bch.decode_with_syndromes(scratch, s).corrected);
      });
      rows.push_back({c.name, "locate_deg" + std::to_string(errors), locate,
                      locate.mb_per_s / ref.mb_per_s});
    }
  }

  bench::Table table({{"code", "%-28s", "code"},
                      {"kernel", "%-22s", "kernel"},
                      {"", "", "iters"},
                      {"", "", "seconds"},
                      {"MB/s", "%9.1f MB/s", "mb_per_s"},
                      {"speedup", "%7.2fx", "speedup_vs_reference"},
                      {"vs per-line", "%11.2fx", "speedup_vs_per_line"}});
  for (const auto& r : rows) {
    table.row(r.code, r.kernel, r.m.iters, r.m.seconds, r.m.mb_per_s, r.speedup,
              r.speedup_vs_per_line);
    run.stats.trials += r.m.iters;
  }

  exp::JsonObject config;
  config.set("seed", run.args.seed_or(17)).set("scale", run.args.scale);
  exp::JsonObject result;
  result.set("rows", table.json());
  run.finish("codec_throughput", config, result);
  return 0;
}
