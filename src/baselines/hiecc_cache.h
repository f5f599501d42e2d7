// Hi-ECC baseline (paper §VIII-C, Wilkerson et al. [71]): ECC-6 at 1 KB
// granularity. The 84 check bits (BCH over GF(2^14)) amortise to ~0.9%
// storage, but every region now exposes 8192+ bits to the same 6-error
// budget, which is why its FIT is orders of magnitude worse than SuDoku's
// (Table XII). The protection unit here is a whole 1 KB region — a DUE
// loses 16 cache lines at once.
//
// Hi-ECC is the (1 KB, t) point of the generalized large-codeword region
// cache (baselines/region_cache.h, ROADMAP item 5); this class pins that
// design point and its paper-facing name. The LineScheme data path (the
// service's Hi-ECC bank) and the batched scrub hook are inherited unchanged.
#pragma once

#include "baselines/region_cache.h"

namespace sudoku::baselines {

class HiEccCache final : public RegionEccCache {
 public:
  // `num_lines` is in 64 B cache lines; internally grouped 16-to-a-region.
  explicit HiEccCache(std::uint64_t num_lines, int t = 6)
      : RegionEccCache(num_lines, kRegionDataBits / 8, t), t_(t) {}

  std::string name() const override {
    return "Hi-ECC(ECC-" + std::to_string(t_) + "/1KB)";
  }
  std::unique_ptr<CacheScheme> clone() const override {
    return std::make_unique<HiEccCache>(*this);
  }

  static constexpr std::uint32_t kLinesPerRegion = 16;
  static constexpr std::uint32_t kRegionDataBits = 8192;

 private:
  int t_;
};

}  // namespace sudoku::baselines
