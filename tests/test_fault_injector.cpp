#include "sttram/fault_injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace sudoku {
namespace {

TEST(SttramArray, ReadWriteRoundTrip) {
  SttramArray arr(16, 553);
  BitVec v(553);
  v.set(0);
  v.set(511);
  v.set(552);
  arr.write_line(7, v);
  EXPECT_EQ(arr.read_line(7), v);
  EXPECT_TRUE(arr.read_line(6).none());
}

TEST(SttramArray, FlipAndTest) {
  SttramArray arr(4, 553);
  EXPECT_FALSE(arr.test(2, 100));
  arr.flip(2, 100);
  EXPECT_TRUE(arr.test(2, 100));
  arr.flip(2, 100);
  EXPECT_FALSE(arr.test(2, 100));
}

TEST(SttramArray, LinesAreIndependent) {
  SttramArray arr(8, 553);
  arr.flip(3, 552);
  for (std::uint64_t l = 0; l < 8; ++l) {
    if (l == 3) continue;
    EXPECT_TRUE(arr.read_line(l).none()) << l;
  }
}

TEST(SttramArray, XorLineIntoAccumulates) {
  SttramArray arr(4, 100);
  BitVec a(100), b(100);
  a.set(5);
  a.set(50);
  b.set(50);
  b.set(99);
  arr.write_line(0, a);
  arr.write_line(1, b);
  BitVec acc(100);
  arr.xor_line_into(0, acc);
  arr.xor_line_into(1, acc);
  EXPECT_TRUE(acc.test(5));
  EXPECT_FALSE(acc.test(50));
  EXPECT_TRUE(acc.test(99));
}

TEST(SttramArray, LineEquals) {
  SttramArray arr(2, 64);
  BitVec v(64);
  v.set(63);
  arr.write_line(1, v);
  EXPECT_TRUE(arr.line_equals(1, v));
  v.flip(0);
  EXPECT_FALSE(arr.line_equals(1, v));
}

TEST(FaultInjector, CountMatchesBatchContents) {
  Rng rng(1);
  FaultInjector inj(1024, 553, 1e-4);
  const auto batch = inj.sample_interval(rng);
  std::uint64_t manual = 0;
  for (const auto& [line, bits] : batch) manual += bits.size();
  EXPECT_EQ(FaultInjector::count(batch), manual);
}

TEST(FaultInjector, MeanFaultCountMatchesBer) {
  Rng rng(2);
  const std::uint64_t lines = 4096;
  const std::uint32_t bits = 553;
  const double ber = 1e-4;
  FaultInjector inj(lines, bits, ber);
  double total = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) total += static_cast<double>(FaultInjector::count(inj.sample_interval(rng)));
  const double expected = static_cast<double>(lines) * bits * ber;
  EXPECT_NEAR(total / trials, expected, expected * 0.1);
}

TEST(FaultInjector, PositionsAreInRange) {
  Rng rng(3);
  FaultInjector inj(128, 553, 1e-3);
  const auto batch = inj.sample_interval(rng);
  for (const auto& [line, bitsv] : batch) {
    EXPECT_LT(line, 128u);
    for (const auto b : bitsv) EXPECT_LT(b, 553u);
  }
}

TEST(FaultInjector, NoDuplicateBitWithinLine) {
  Rng rng(4);
  FaultInjector inj(4, 64, 0.2);  // dense enough to force collisions
  for (int t = 0; t < 50; ++t) {
    const auto batch = inj.sample_interval(rng);
    for (const auto& [line, bitsv] : batch) {
      auto sorted = bitsv;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
    }
  }
}

TEST(FaultInjector, ApplyFlipsExactlyTheBatch) {
  Rng rng(5);
  SttramArray arr(64, 553);
  FaultInjector inj(64, 553, 1e-3);
  const auto batch = inj.sample_interval(rng);
  FaultInjector::apply(batch, arr);
  std::uint64_t set_bits = 0;
  for (std::uint64_t l = 0; l < 64; ++l) set_bits += arr.read_line(l).popcount();
  EXPECT_EQ(set_bits, FaultInjector::count(batch));
  // Applying again cancels everything.
  FaultInjector::apply(batch, arr);
  for (std::uint64_t l = 0; l < 64; ++l) EXPECT_TRUE(arr.read_line(l).none());
}

TEST(FaultInjector, ZeroBerProducesNoFaults) {
  Rng rng(6);
  FaultInjector inj(1024, 553, 0.0);
  EXPECT_TRUE(inj.sample_interval(rng).empty());
}

// Canonical digest of a batch: FNV-style hash over the sorted (line, bit)
// pairs, independent of map iteration order.
std::uint64_t batch_digest(const FaultBatch& batch) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> flat;
  for (const auto& [line, bits] : batch)
    for (const auto b : bits) flat.emplace_back(line, b);
  std::sort(flat.begin(), flat.end());
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [l, b] : flat) {
    h ^= l * 0x100000001b3ull + b;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Pins sample_interval's exact output AND its RNG consumption for fixed
// seeds (values recorded from the pre-optimization per-line std::find
// implementation). The hash-set dedup rewrite must change nothing: the
// sampled positions are identical and the Rng is left in the same state,
// so everything drawn afterwards in a trial (host writes, write-error
// flips) replays bit-for-bit.
TEST(FaultInjector, PinnedOutputAndRngConsumptionForFixedSeeds) {
  struct Pin {
    std::uint64_t seed, lines;
    std::uint32_t bits;
    double ber;
    std::size_t n;
    std::uint64_t digest, rng_after;
  };
  // Recorded 2026-08-06 from the pre-rewrite sampler.
  const Pin pins[] = {
      {42, 64, 64, 0.05, 182, 0xe5b4f723fc26106eull, 0xb0f5ba450546f86bull},
      {7, 4096, 553, 1e-4, 224, 0x4616d6a3731676baull, 0x7d6ea8f15bba2752ull},
      {1234, 8, 16, 0.25, 24, 0xab7bb519648ab93dull, 0x57a12c8eee0e019bull},
      {99, 1u << 16, 553, 3e-6, 95, 0xac403e85f4a35c24ull, 0x0f522256fc551a94ull},
  };
  for (const auto& pin : pins) {
    Rng rng(pin.seed);
    FaultInjector inj(pin.lines, pin.bits, pin.ber);
    const auto batch = inj.sample_interval(rng);
    EXPECT_EQ(FaultInjector::count(batch), pin.n) << "seed " << pin.seed;
    EXPECT_EQ(batch_digest(batch), pin.digest) << "seed " << pin.seed;
    EXPECT_EQ(rng.next_u64(), pin.rng_after)
        << "seed " << pin.seed << ": RNG consumption changed";
  }
  // The dense small-space pin (seed 1234) forces many redraw collisions;
  // its exact contents are pinned too.
  Rng rng(1234);
  FaultInjector inj(8, 16, 0.25);
  const auto batch = inj.sample_interval(rng);
  const std::pair<std::uint64_t, std::uint32_t> want[] = {
      {0, 5},  {0, 10}, {0, 12}, {1, 2},  {1, 9},  {1, 13}, {2, 0},  {3, 0},
      {3, 1},  {3, 9},  {4, 0},  {4, 10}, {4, 15}, {5, 2},  {5, 3},  {5, 8},
      {6, 4},  {6, 8},  {6, 10}, {6, 11}, {6, 15}, {7, 2},  {7, 10}, {7, 11},
  };
  std::vector<std::pair<std::uint64_t, std::uint32_t>> flat;
  for (const auto& [line, bits] : batch)
    for (const auto b : bits) flat.emplace_back(line, b);
  std::sort(flat.begin(), flat.end());
  ASSERT_EQ(flat.size(), std::size(want));
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flat[i], want[i]) << "entry " << i;
  }
}

// Dedup-by-redraw samples *distinct* positions uniformly: conditioning
// i.i.d. uniform draws on all-distinct leaves every distinct set equally
// likely, so the marginal hit count of each position is equal. Verified
// empirically on a small dense space where redraws are frequent.
TEST(FaultInjector, RedrawDedupIsUniformOverPositions) {
  Rng rng(2024);
  const std::uint64_t lines = 4;
  const std::uint32_t bits = 16;  // 64 positions
  FaultInjector inj(lines, bits, 0.15);  // ~10 faults/interval, collisions likely
  std::vector<std::uint64_t> hits(lines * bits, 0);
  std::uint64_t total = 0;
  const int intervals = 20000;
  for (int t = 0; t < intervals; ++t) {
    const auto batch = inj.sample_interval(rng);
    for (const auto& [line, bitsv] : batch)
      for (const auto b : bitsv) {
        ++hits[line * bits + b];
        ++total;
      }
  }
  const double mean = static_cast<double>(total) / static_cast<double>(hits.size());
  // Each position's count is ~Binomial(total, 1/64); 5 sigma of slack.
  const double sigma = std::sqrt(mean * (1.0 - 1.0 / 64.0));
  for (std::size_t p = 0; p < hits.size(); ++p) {
    EXPECT_NEAR(static_cast<double>(hits[p]), mean, 5.0 * sigma) << "position " << p;
  }
}

TEST(FaultInjector, FaultsSpreadAcrossLines) {
  Rng rng(7);
  const std::uint64_t lines = 1u << 16;
  FaultInjector inj(lines, 553, 3e-5);  // ~1000 faults, mostly distinct lines
  const auto batch = inj.sample_interval(rng);
  std::uint64_t multi = 0;
  for (const auto& [line, bitsv] : batch)
    if (bitsv.size() >= 2) ++multi;
  // Multi-fault lines must be a small minority (birthday-problem level).
  EXPECT_LT(multi * 20, batch.size() + 1);
}

TEST(FaultInjector, DrawPositionsAppendsWithoutClearing) {
  FaultInjector inj(16, 32, 0.0);
  Rng rng(5);
  std::vector<std::uint64_t> out = {~0ull, 12345};
  inj.draw_positions(rng, 40, out);
  ASSERT_EQ(out.size(), 42u);
  EXPECT_EQ(out[0], ~0ull);
  EXPECT_EQ(out[1], 12345u);
  std::vector<std::uint64_t> drawn(out.begin() + 2, out.end());
  for (const auto pos : drawn) EXPECT_LT(pos, 16u * 32u);
  std::sort(drawn.begin(), drawn.end());
  EXPECT_TRUE(std::adjacent_find(drawn.begin(), drawn.end()) == drawn.end());
  // Zero faults appends nothing and draws nothing.
  const std::uint64_t before = Rng(rng).next_u64();
  inj.draw_positions(rng, 0, out);
  EXPECT_EQ(out.size(), 42u);
  EXPECT_EQ(rng.next_u64(), before);
}

TEST(FaultInjector, DrawPositionsAtSaturationReturnsEveryPositionOnce) {
  for (const std::uint64_t seed : {1ull, 2ull, 77ull}) {
    FaultInjector inj(3, 11, 0.0);  // 33 positions: not a power of two
    Rng rng(seed);
    std::vector<std::uint64_t> out;
    inj.draw_positions(rng, 33, out);
    std::sort(out.begin(), out.end());
    ASSERT_EQ(out.size(), 33u) << "seed " << seed;
    for (std::uint64_t p = 0; p < 33; ++p) EXPECT_EQ(out[p], p) << "seed " << seed;
  }
}

// sample_exact is draw_positions grouped by line in draw order into a map
// reserved for nfaults: same contents, the same map iteration order (which
// sets the i.i.d. scrub order) and the same post-call RNG state.
TEST(FaultInjector, GroupedDrawPositionsEqualsSampleExact) {
  using Entries = std::vector<std::pair<std::uint64_t, std::vector<std::uint32_t>>>;
  const auto entries = [](const FaultBatch& batch) {
    return Entries(batch.begin(), batch.end());
  };
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    // Alternate a dense space (many redraws) with a sparse SuDoku-like one.
    const bool dense = seed % 2 == 0;
    const std::uint64_t lines = dense ? 8 : 4096;
    const std::uint32_t bits = dense ? 16 : 553;
    const std::uint64_t nfaults = dense ? seed % 129 : seed % 300;
    const FaultInjector inj(lines, bits, 0.0);
    Rng a(seed), b(seed);
    const FaultBatch want = inj.sample_exact(a, nfaults);
    std::vector<std::uint64_t> drawn;
    inj.draw_positions(b, nfaults, drawn);
    FaultBatch got;
    got.reserve(nfaults);
    for (const auto pos : drawn)
      got[pos / bits].push_back(static_cast<std::uint32_t>(pos % bits));
    ASSERT_EQ(entries(got), entries(want)) << "seed " << seed;
    ASSERT_EQ(a.next_u64(), b.next_u64()) << "seed " << seed << ": RNG state differs";
  }
}

// The Monte-Carlo kernel's i.i.d. path (draw_count, draw_positions, flip
// the flat positions, scrub in batch_order) must match the FaultBatch path
// it replaced bit for bit: the same scrub order (batch_order equals the
// map's iteration order, which sets SuDoku-Z's repair split), the same
// flipped bits and the same post-call RNG state. Covers a Binomial count,
// a fixed count and zero faults per seed, on a dense space (many redraws,
// several faults per line) and a sparse SuDoku-like one.
TEST(FaultInjector, BatchOrderMatchesFaultBatchIteration) {
  const auto sorted_positions = [](const FaultBatch& batch, std::uint32_t bits) {
    std::vector<std::uint64_t> flat;
    for (const auto& [line, bitsv] : batch)
      for (const auto b : bitsv) flat.push_back(line * bits + b);
    std::sort(flat.begin(), flat.end());
    return flat;
  };
  std::vector<std::uint64_t> drawn, order;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    const bool dense = seed % 2 == 0;
    const std::uint64_t lines = dense ? 8 : 4096;
    const std::uint32_t bits = dense ? 16 : 553;
    const FaultInjector inj(lines, bits, dense ? 0.25 : 1e-4);
    const std::int64_t fixed = static_cast<std::int64_t>(dense ? seed % 129 : seed % 300);
    for (const std::int64_t nfixed : {std::int64_t{-1}, fixed, std::int64_t{0}}) {
      Rng a(seed), b(seed);
      const FaultBatch want = nfixed < 0 ? inj.sample_interval(a)
                                         : inj.sample_exact(a, static_cast<std::uint64_t>(nfixed));
      const std::uint64_t n =
          nfixed < 0 ? inj.draw_count(b) : static_cast<std::uint64_t>(nfixed);
      drawn.clear();
      inj.draw_positions(b, n, drawn);
      order.assign(3, ~0ull);  // batch_order replaces `out`, it does not append
      inj.batch_order(drawn, order);

      std::vector<std::uint64_t> want_order;
      for (const auto& [line, bitsv] : want) want_order.push_back(line);
      ASSERT_EQ(order, want_order) << "seed " << seed << " fixed " << nfixed;
      std::sort(drawn.begin(), drawn.end());
      ASSERT_EQ(drawn, sorted_positions(want, bits)) << "seed " << seed << " fixed " << nfixed;
      ASSERT_EQ(a.next_u64(), b.next_u64())
          << "seed " << seed << " fixed " << nfixed << ": RNG state differs";
    }
  }
}

TEST(FaultInjectorDeathTest, MoreFaultsThanBitsAbortsInsteadOfSpinning) {
  // A request for more distinct positions than the array has bits has no
  // valid sample; the rejection sampler used to spin forever. It must now
  // abort with a diagnostic.
  FaultInjector inj(2, 8, 0.0);  // 16 bits total
  Rng rng(1);
  EXPECT_DEATH(inj.sample_exact(rng, 17), "16 bits");
}

TEST(FaultInjector, ExactlyFullArrayIsStillValid) {
  // The boundary case nfaults == total_bits is legal: the sample is "every
  // bit", reached after finitely many redraws.
  FaultInjector inj(2, 8, 0.0);
  Rng rng(1);
  const auto batch = inj.sample_exact(rng, 16);
  EXPECT_EQ(FaultInjector::count(batch), 16u);
}

}  // namespace
}  // namespace sudoku
