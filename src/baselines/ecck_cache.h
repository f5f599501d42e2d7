// Per-line ECC-k baseline (paper §II-D): every 512-bit line carries a BCH
// code correcting up to k faults (10·k check bits). This is the scheme the
// paper argues against — ECC-6 meets the FIT target but costs 60 bits per
// line and multi-cycle decoders.
//
// ECC-k is the (64 B, k) point of the large-codeword region cache
// (baselines/region_cache.h), the way Hi-ECC is its (1 KB, t) point:
// make_ecc_design(64, k) picks GF(2^10), so the code is Bch(10, k, 512)
// and a region is one line. The LineScheme data path and the batched
// scrub hook are inherited.
#pragma once

#include "baselines/region_cache.h"

namespace sudoku::baselines {

class EccKCache final : public RegionEccCache {
 public:
  EccKCache(std::uint64_t num_lines, int k)
      : RegionEccCache(num_lines, /*region_data_bytes=*/64, k), k_(k) {}

  std::string name() const override { return "ECC-" + std::to_string(k_); }
  std::unique_ptr<CacheScheme> clone() const override {
    return std::make_unique<EccKCache>(*this);
  }

  int k() const { return k_; }

 private:
  int k_;
};

}  // namespace sudoku::baselines
