// CPPC baseline (paper §VIII-A, Manoochehri et al. [17]) provisioned with
// SuDoku's per-line resources as the paper's Table XI prescribes: ECC-1 +
// CRC-31 per line, plus a single *global* parity line over the entire
// cache. One multi-bit-faulty line is recoverable from the global parity;
// two or more anywhere in the cache defeat it — which at the paper's error
// rate happens almost every scrub interval (FIT ~1.7e14).
#pragma once

#include "baselines/scheme.h"
#include "sudoku/line_codec.h"

namespace sudoku::baselines {

class CppcCache final : public CacheScheme {
 public:
  explicit CppcCache(std::uint64_t num_lines);

  std::string name() const override { return "CPPC+CRC-31"; }
  std::uint64_t num_units() const override { return array_.num_lines(); }
  std::uint32_t bits_per_unit() const override { return array_.bits_per_line(); }
  SttramArray& array() override { return array_; }
  const SttramArray& array() const override { return array_; }
  std::unique_ptr<CacheScheme> clone() const override {
    return std::make_unique<CppcCache>(*this);
  }

  void format_random(Rng& rng) override;
  ScrubReport scrub_units(std::span<const std::uint64_t> units) override;
  double overhead_bits_per_line() const override {
    // 41 check bits per line; one global parity amortises to ~0.
    return 41.0 + static_cast<double>(codec_.total_bits()) / num_units();
  }

  const LineCodec& codec() const { return codec_; }
  bool parity_consistent() const;

 private:
  LineCodec codec_;
  SttramArray array_;
  BitVec global_parity_;

  void rebuild_parity();
};

}  // namespace sudoku::baselines
