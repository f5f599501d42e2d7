// Per-line ECC-k baseline (paper §II-D): every 512-bit line carries a BCH
// code correcting up to k faults (10·k check bits). This is the scheme the
// paper argues against — ECC-6 meets the FIT target but costs 60 bits per
// line and multi-cycle decoders.
#pragma once

#include <memory>

#include "baselines/scheme.h"
#include "codes/bch.h"

namespace sudoku::baselines {

class EccKCache final : public CacheScheme {
 public:
  EccKCache(std::uint64_t num_lines, int k);

  std::string name() const override;
  std::uint64_t num_units() const override { return array_.num_lines(); }
  std::uint32_t bits_per_unit() const override { return array_.bits_per_line(); }
  SttramArray& array() override { return array_; }
  const SttramArray& array() const override { return array_; }

  void format_random(Rng& rng) override;
  ScrubReport scrub_units(std::span<const std::uint64_t> units) override;
  double overhead_bits_per_line() const override { return 10.0 * k_; }

  int k() const { return k_; }
  const Bch& codec() const { return bch_; }

 private:
  int k_;
  Bch bch_;
  SttramArray array_;
};

}  // namespace sudoku::baselines
