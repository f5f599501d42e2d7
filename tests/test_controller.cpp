#include "sudoku/controller.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "sttram/fault_injector.h"

namespace sudoku {
namespace {

SudokuConfig small_config(SudokuLevel level) {
  SudokuConfig cfg;
  cfg.geo.num_lines = 1024;
  cfg.geo.group_size = 32;  // 32 groups; 10 line bits >= 2·5 group bits
  cfg.level = level;
  return cfg;
}

BitVec random_data(Rng& rng) {
  BitVec d(LineCodec::kDataBits);
  auto w = d.words();
  for (auto& word : w) word = rng.next_u64();
  return d;
}

// Inject `count` distinct faults into the data region of a stored line.
void inject(SudokuController& c, std::uint64_t line, int count, Rng& rng) {
  std::set<std::uint32_t> used;
  while (static_cast<int>(used.size()) < count) {
    const auto bit = static_cast<std::uint32_t>(rng.next_below(c.codec().total_bits()));
    if (used.insert(bit).second) c.array().flip(line, bit);
  }
}

TEST(Controller, FormatProducesConsistentParities) {
  for (const auto level : {SudokuLevel::kX, SudokuLevel::kZ}) {
    SudokuController c(small_config(level));
    Rng rng(1);
    c.format_random(rng);
    EXPECT_TRUE(c.parities_consistent());
  }
}

TEST(Controller, ReadBackAfterFormat) {
  SudokuController c(small_config(SudokuLevel::kZ));
  Rng rng(2);
  std::vector<BitVec> golden;
  c.format([&](std::uint64_t) {
    golden.push_back(random_data(rng));
    return golden.back();
  });
  for (const std::uint64_t line : {0ull, 100ull, 1023ull}) {
    const auto res = c.read_data(line);
    EXPECT_EQ(res.status, ReadStatus::kClean);
    EXPECT_EQ(res.data, golden[line]);
  }
}

TEST(Controller, WriteUpdatesParityAndReadsBack) {
  SudokuController c(small_config(SudokuLevel::kZ));
  Rng rng(3);
  c.format_random(rng);
  for (int t = 0; t < 50; ++t) {
    const auto line = rng.next_below(1024);
    const BitVec data = random_data(rng);
    c.write_data(line, data);
    EXPECT_EQ(c.read_data(line).data, data);
  }
  EXPECT_TRUE(c.parities_consistent());
}

TEST(Controller, SingleBitFaultCorrectedOnRead) {
  SudokuController c(small_config(SudokuLevel::kX));
  Rng rng(4);
  c.format_random(rng);
  const BitVec want = c.read_data(5).data;
  c.array().flip(5, 17);
  const auto res = c.read_data(5);
  EXPECT_EQ(res.status, ReadStatus::kCorrected);
  EXPECT_EQ(res.data, want);
  // Scrub-on-read persisted the fix.
  EXPECT_EQ(c.read_data(5).status, ReadStatus::kClean);
}

TEST(Controller, MultiBitFaultRepairedByRaid4) {
  // Paper Figure 2: one line with a 6-bit error is rebuilt from the group.
  SudokuController c(small_config(SudokuLevel::kX));
  Rng rng(5);
  c.format_random(rng);
  const BitVec want = c.read_data(40).data;
  inject(c, 40, 6, rng);
  const auto res = c.read_data(40);
  EXPECT_EQ(res.status, ReadStatus::kRepaired);
  EXPECT_EQ(res.data, want);
  EXPECT_TRUE(c.parities_consistent());
}

TEST(Controller, ScrubFixesScatteredSingleBitFaults) {
  SudokuController c(small_config(SudokuLevel::kX));
  Rng rng(6);
  c.format_random(rng);
  std::vector<std::uint64_t> touched;
  for (std::uint64_t line = 3; line < 1024; line += 97) {
    c.array().flip(line, static_cast<std::uint32_t>(rng.next_below(553)));
    touched.push_back(line);
  }
  const auto stats = c.scrub_lines(touched);
  EXPECT_EQ(stats.ecc1_corrections, touched.size());
  EXPECT_EQ(stats.due_lines, 0u);
  EXPECT_TRUE(c.parities_consistent());
}

TEST(Controller, SudokuXFailsOnTwoMultiBitLinesInGroup) {
  // The dominant SuDoku-X failure mode (§IV): two lines, two faults each.
  SudokuController c(small_config(SudokuLevel::kX));
  Rng rng(7);
  c.format_random(rng);
  inject(c, 10, 2, rng);  // lines 10 and 20 share hash-1 group 0 (size 32)
  inject(c, 20, 2, rng);
  const std::uint64_t lines[] = {10, 20};
  const auto stats = c.scrub_lines(lines);
  EXPECT_EQ(stats.due_lines, 2u);
}

TEST(Controller, SudokuYRepairsTwoTwoFaultLinesViaSdr) {
  SudokuController c(small_config(SudokuLevel::kY));
  Rng rng(8);
  c.format_random(rng);
  const BitVec want10 = c.read_data(10).data;
  const BitVec want20 = c.read_data(20).data;
  inject(c, 10, 2, rng);
  inject(c, 20, 2, rng);
  const std::uint64_t lines[] = {10, 20};
  const auto stats = c.scrub_lines(lines);
  EXPECT_EQ(stats.due_lines, 0u);
  EXPECT_GE(stats.sdr_repairs, 1u);  // at least one resurrected, other RAID-4
  EXPECT_EQ(c.read_data(10).data, want10);
  EXPECT_EQ(c.read_data(20).data, want20);
  EXPECT_TRUE(c.parities_consistent());
}

TEST(Controller, SudokuYRepairsThreeTwoFaultLines) {
  // §IV-C: three faulty lines with 2-bit failures each — six mismatch
  // positions, all repairable by SDR.
  SudokuController c(small_config(SudokuLevel::kY));
  Rng rng(9);
  c.format_random(rng);
  std::vector<BitVec> want;
  for (const std::uint64_t l : {3ull, 9ull, 27ull}) want.push_back(c.read_data(l).data);
  inject(c, 3, 2, rng);
  inject(c, 9, 2, rng);
  inject(c, 27, 2, rng);
  const std::uint64_t lines[] = {3, 9, 27};
  const auto stats = c.scrub_lines(lines);
  EXPECT_EQ(stats.due_lines, 0u);
  EXPECT_EQ(c.read_data(3).data, want[0]);
  EXPECT_EQ(c.read_data(9).data, want[1]);
  EXPECT_EQ(c.read_data(27).data, want[2]);
}

TEST(Controller, SudokuYHandlesTwoPlusThreeFaultPair) {
  // Figure 4: a 3-fault line paired with a 2-fault line — SDR resurrects
  // the 2-fault line, RAID-4 finishes the 3-fault one.
  SudokuController c(small_config(SudokuLevel::kY));
  Rng rng(10);
  c.format_random(rng);
  const BitVec want4 = c.read_data(4).data;
  const BitVec want8 = c.read_data(8).data;
  inject(c, 4, 2, rng);
  inject(c, 8, 3, rng);
  const std::uint64_t lines[] = {4, 8};
  const auto stats = c.scrub_lines(lines);
  EXPECT_EQ(stats.due_lines, 0u);
  EXPECT_EQ(c.read_data(4).data, want4);
  EXPECT_EQ(c.read_data(8).data, want8);
}

TEST(Controller, SudokuYFailsOnTwoThreeFaultLines) {
  // §V: two lines with 3+ faults each defeat SDR (one flip cannot bring a
  // 3-fault line within ECC-1 range).
  SudokuController c(small_config(SudokuLevel::kY));
  Rng rng(11);
  c.format_random(rng);
  inject(c, 6, 3, rng);
  inject(c, 12, 3, rng);
  const std::uint64_t lines[] = {6, 12};
  const auto stats = c.scrub_lines(lines);
  EXPECT_EQ(stats.due_lines, 2u);
}

TEST(Controller, SudokuZRepairsTwoThreeFaultLinesViaHash2) {
  // Figure 6: lines B and D fail under Hash-1 but are singletons in their
  // Hash-2 groups, where RAID-4 rebuilds them.
  SudokuController c(small_config(SudokuLevel::kZ));
  Rng rng(12);
  c.format_random(rng);
  const BitVec want6 = c.read_data(6).data;
  const BitVec want12 = c.read_data(12).data;
  inject(c, 6, 3, rng);
  inject(c, 12, 3, rng);
  const std::uint64_t lines[] = {6, 12};
  const auto stats = c.scrub_lines(lines);
  EXPECT_EQ(stats.due_lines, 0u);
  EXPECT_GE(stats.hash2_invocations, 1u);
  EXPECT_EQ(c.read_data(6).data, want6);
  EXPECT_EQ(c.read_data(12).data, want12);
  EXPECT_TRUE(c.parities_consistent());
}

TEST(Controller, SudokuZSurvivesBrokenFourCycle) {
  // A,B share a Hash-1 group; C (in A's Hash-2 group) and D (in B's) share
  // another Hash-1 group. With one of them only lightly damaged, the
  // global fixed-point iteration must untangle all four.
  SudokuConfig cfg = small_config(SudokuLevel::kZ);
  SudokuController c(cfg);
  const SkewedHash& h = c.hash();
  Rng rng(13);
  c.format_random(rng);
  const std::uint64_t a = 0;
  const std::uint64_t b = 1;                    // same hash-1 group as a
  const std::uint64_t cl = h.member2(h.group2(a), 3);  // a's hash-2 group
  const std::uint64_t d = h.member2(h.group2(b), 3);   // b's hash-2 group
  ASSERT_EQ(h.group1(a), h.group1(b));
  ASSERT_EQ(h.group1(cl), h.group1(d));
  ASSERT_NE(h.group1(a), h.group1(cl));
  std::vector<BitVec> want;
  for (const auto l : {a, b, cl, d}) want.push_back(c.read_data(l).data);
  inject(c, a, 3, rng);
  inject(c, b, 3, rng);
  inject(c, cl, 2, rng);  // the weak link: SDR-repairable in its h2 group
  inject(c, d, 3, rng);
  const std::uint64_t lines[] = {a, b, cl, d};
  const auto stats = c.scrub_lines(lines);
  EXPECT_EQ(stats.due_lines, 0u);
  int i = 0;
  for (const auto l : {a, b, cl, d}) {
    EXPECT_EQ(c.read_data(l).data, want[i++]) << "line " << l;
  }
}

TEST(Controller, SudokuZFailsOnFullFourCycle) {
  // The minimal genuinely-uncorrectable pattern: every involved group has
  // two 3-fault lines under both hashes.
  SudokuConfig cfg = small_config(SudokuLevel::kZ);
  SudokuController c(cfg);
  const SkewedHash& h = c.hash();
  Rng rng(14);
  c.format_random(rng);
  const std::uint64_t a = 0;
  const std::uint64_t b = 1;
  const std::uint64_t cl = h.member2(h.group2(a), 3);
  const std::uint64_t d = h.member2(h.group2(b), 3);
  inject(c, a, 3, rng);
  inject(c, b, 3, rng);
  inject(c, cl, 3, rng);
  inject(c, d, 3, rng);
  const std::uint64_t lines[] = {a, b, cl, d};
  const auto stats = c.scrub_lines(lines);
  EXPECT_EQ(stats.due_lines, 4u);
}

TEST(Controller, PltStorageMatchesPaperBudget) {
  // §VII-H: two PLTs, each 128 KB for a 64 MB cache with 512-line groups.
  // At full width (553 bits per parity line) each PLT holds 2048 lines.
  SudokuConfig cfg;
  cfg.level = SudokuLevel::kZ;
  SudokuController c(cfg);
  const double kb_per_plt =
      static_cast<double>(c.plt_storage_bits()) / 2.0 / 8.0 / 1024.0;
  // 2048 parity lines ≈ 138 KB raw (the paper quotes the 64 B data payload
  // = 128 KB); accept that range.
  EXPECT_GT(kb_per_plt, 120.0);
  EXPECT_LT(kb_per_plt, 150.0);
}

TEST(Controller, RandomFaultSoakNoSilentCorruption) {
  // Property test: inject random faults at an accelerated BER for many
  // intervals; every line the controller does not flag as DUE must decode
  // to its golden data.
  SudokuConfig cfg = small_config(SudokuLevel::kZ);
  SudokuController c(cfg);
  Rng rng(15);
  std::vector<BitVec> golden;
  c.format([&](std::uint64_t) {
    golden.push_back(random_data(rng));
    return golden.back();
  });
  FaultInjector inj(cfg.geo.num_lines, c.codec().total_bits(), 2e-4);
  std::uint64_t due_total = 0;
  for (int interval = 0; interval < 60; ++interval) {
    const auto batch = inj.sample_interval(rng);
    FaultInjector::apply(batch, c.array());
    std::vector<std::uint64_t> touched;
    touched.reserve(batch.size());
    for (const auto& [line, bits] : batch) touched.push_back(line);
    const auto stats = c.scrub_lines(touched);
    due_total += stats.due_lines;
    const std::set<std::uint64_t> due(stats.due_line_ids.begin(), stats.due_line_ids.end());
    for (const auto line : touched) {
      if (due.count(line)) {
        // Restore lost data so the soak can continue (models a refill).
        c.write_data(line, golden[line]);
        continue;
      }
      const auto res = c.read_data(line);
      ASSERT_EQ(res.data, golden[line]) << "silent corruption on line " << line;
    }
  }
  // At this BER multi-line events happen but Z should fix nearly all.
  SUCCEED() << "DUE lines across soak: " << due_total;
}

// ---- verified-clean bit ----------------------------------------------------

// Property: a line whose verified-clean bit is set passes fully_clean, after
// every operation of a random mix of host reads and writes, sparse and full
// scrubs, and external flips and line writes (the fault injector's and the
// MC harness's restore paths). Scrubs and reads keep setting the bit, so the
// check sees many verified lines.
TEST(Controller, VerifiedLinesStayFullyCleanUnderRandomOperations) {
  for (const auto level : {SudokuLevel::kX, SudokuLevel::kY, SudokuLevel::kZ}) {
    const std::uint64_t seed = 0x7e41f1ed + static_cast<std::uint64_t>(level);
    SCOPED_TRACE(std::string(to_string(level)) + ", replay seed " + std::to_string(seed));
    SudokuConfig cfg;
    cfg.geo.num_lines = 256;
    cfg.geo.group_size = 16;  // 16 groups; Z needs lines >= group^2
    cfg.level = level;
    SudokuController c(cfg);
    Rng rng(seed);
    c.format_random(rng);
    const std::uint64_t lines = cfg.geo.num_lines;
    const std::uint32_t bits = c.codec().total_bits();
    BitVec stored;
    std::uint64_t verified_checks = 0;
    for (int step = 0; step < 2000; ++step) {
      const std::uint64_t line = rng.next_below(lines);
      const char* op = "";
      switch (rng.next_below(7)) {
        case 0:
          op = "write_data";
          c.write_data(line, random_data(rng));
          break;
        case 1:
          op = "read_data";
          c.read_data(line);
          break;
        case 2: {
          op = "scrub_lines";
          std::vector<std::uint64_t> some(1 + rng.next_below(8));
          for (auto& l : some) l = rng.next_below(lines);  // duplicates allowed
          c.scrub_lines(some);
          break;
        }
        case 3:
          op = "scrub_all";
          if (step % 16 == 0) c.scrub_all();
          break;
        case 4:
          op = "flip";
          inject(c, line, 1 + static_cast<int>(rng.next_below(3)), rng);
          break;
        case 5: {
          op = "write_line";
          BitVec raw = c.codec().encode(random_data(rng));
          for (int f = static_cast<int>(rng.next_below(3)); f > 0; --f) {
            raw.flip(static_cast<std::uint32_t>(rng.next_below(bits)));
          }
          c.array().write_line(line, raw);
          break;
        }
        case 6: {
          op = "group burst";
          // Multi-bit faults in several lines of one group, for RAID-4/SDR.
          const std::uint64_t base = line - line % cfg.geo.group_size;
          for (int k = 0; k < 3; ++k) {
            inject(c, base + rng.next_below(cfg.geo.group_size),
                   1 + static_cast<int>(rng.next_below(3)), rng);
          }
          break;
        }
      }
      for (std::uint64_t l = 0; l < lines; ++l) {
        if (!c.array().verified(l)) continue;
        ++verified_checks;
        c.array().read_line(l, stored);
        ASSERT_TRUE(c.codec().fully_clean(stored))
            << "line " << l << " verified but not clean after step " << step << " (" << op
            << ")";
      }
    }
    EXPECT_GT(verified_checks, 0u);
  }
}

TEST(Controller, EveryMutationClearsTheVerifiedBit) {
  SudokuController c(small_config(SudokuLevel::kZ));
  Rng rng(21);
  c.format_random(rng);
  EXPECT_TRUE(c.array().verified(5));  // format writes encoded codewords
  c.array().flip(5, 3);
  EXPECT_FALSE(c.array().verified(5));
  EXPECT_TRUE(c.array().verified(4));  // neighbours sharing the bit word keep theirs
  EXPECT_TRUE(c.array().verified(6));
  c.scrub_lines(std::vector<std::uint64_t>{5});  // corrected and re-verified
  EXPECT_TRUE(c.array().verified(5));
  c.array().write_line(5, c.array().read_line(5));
  EXPECT_FALSE(c.array().verified(5));  // even a same-value write clears it
  EXPECT_EQ(c.read_data(5).status, ReadStatus::kClean);
  EXPECT_TRUE(c.array().verified(5));
}

}  // namespace
}  // namespace sudoku
