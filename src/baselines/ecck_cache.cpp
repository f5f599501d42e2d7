#include "baselines/ecck_cache.h"

#include "baselines/batch_scrub.h"

namespace sudoku::baselines {

EccKCache::EccKCache(std::uint64_t num_lines, int k)
    : k_(k),
      bch_(10, k, 512),
      array_(num_lines, static_cast<std::uint32_t>(bch_.codeword_bits())) {}

std::string EccKCache::name() const { return "ECC-" + std::to_string(k_); }

void EccKCache::format_random(Rng& rng) { format_random_bch(bch_, array_, rng); }

BaselineStats EccKCache::scrub_units(std::span<const std::uint64_t> units) {
  // Batched syndromes + decode_with_syndromes (bit-identical to per-line
  // decode); break-even width from docs/perf.md.
  return batch_scrub_bch(bch_, array_, units, /*min_batch=*/12);
}

}  // namespace sudoku::baselines
