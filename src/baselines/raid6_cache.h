// RAID-6 baseline (paper §VIII-A / Table XI): per-line ECC-1 + CRC-31 plus
// two parity lines (P and Q) per 512-line group. CRC flags faulty lines, so
// the P/Q pair recovers up to two known-position multi-bit lines per group;
// three defeat it. No SDR — the comparison point the paper uses to show
// that skewed hashing + resurrection matter.
#pragma once

#include <optional>
#include <vector>

#include "baselines/scheme.h"
#include "raid/geometry.h"
#include "raid/raid6.h"
#include "raid/rdp.h"
#include "sudoku/line_codec.h"

namespace sudoku::baselines {

// Which double-erasure construction backs the two parity lines: the
// Reed-Solomon-style P+Q pair, or Row-Diagonal Parity — the "diagonal
// parity and row-wise parity" wording of the paper's §VIII-A. Both correct
// any two known-position line erasures per group, so their failure modes
// (and FIT) are identical; RDP is pure XOR, P+Q needs GF multipliers.
enum class Raid6Flavor { kPQ, kRdp };

class Raid6Cache final : public CacheScheme {
 public:
  Raid6Cache(std::uint64_t num_lines, std::uint32_t group_size,
             Raid6Flavor flavor = Raid6Flavor::kPQ);

  std::string name() const override {
    return flavor_ == Raid6Flavor::kPQ ? "RAID-6(P+Q)+CRC-31" : "RAID-6(RDP)+CRC-31";
  }
  std::uint64_t num_units() const override { return array_.num_lines(); }
  std::uint32_t bits_per_unit() const override { return array_.bits_per_line(); }
  SttramArray& array() override { return array_; }
  const SttramArray& array() const override { return array_; }
  std::unique_ptr<CacheScheme> clone() const override {
    return std::make_unique<Raid6Cache>(*this);
  }

  void format_random(Rng& rng) override;
  ScrubReport scrub_units(std::span<const std::uint64_t> units) override;
  double overhead_bits_per_line() const override {
    // 41 check bits + two parity lines amortised over the group.
    return 41.0 + 2.0 * codec_.total_bits() / geo_.group_size;
  }

  const LineCodec& codec() const { return codec_; }

 private:
  LineCodec codec_;
  RaidGeometry geo_;
  Raid6Flavor flavor_;
  Raid6 raid_;
  std::optional<RowDiagonalParity> rdp_;
  SttramArray array_;
  std::vector<BitVec> p_;  // per-group row/P parity
  std::vector<BitVec> q_;  // per-group diagonal/Q parity

  void rebuild_group(std::uint64_t group);
  std::vector<BitVec> read_group(std::uint64_t group) const;
};

}  // namespace sudoku::baselines
