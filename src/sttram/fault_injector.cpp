#include "sttram/fault_injector.h"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory_resource>
#include <unordered_set>

namespace sudoku {

FaultBatch FaultInjector::sample_interval(Rng& rng) const {
  return sample_exact(rng, draw_count(rng));
}

void FaultInjector::draw_positions(Rng& rng, std::uint64_t nfaults,
                                   std::vector<std::uint64_t>& out) const {
  const std::uint64_t total_bits = num_lines_ * bits_per_line_;

  // More faults than bits means there is no set of distinct positions to
  // sample — the rejection loop below would spin forever. Reachable from a
  // mis-tuned rare-event stratum or a scenario whose rates were written for
  // a larger array, so fail loudly instead of hanging the campaign.
  if (nfaults > total_bits) {
    std::fprintf(stderr,
                 "FaultInjector::draw_positions: %" PRIu64
                 " faults requested but the array has only %" PRIu64
                 " bits (%" PRIu64 " lines x %u bits/line)\n",
                 nfaults, total_bits, num_lines_, bits_per_line_);
    std::abort();
  }
  if (nfaults == 0) return;

  // Draw distinct flat positions, re-drawing on collision. Rejection
  // sampling conditions the joint distribution on "all positions
  // distinct", under which every set of distinct positions is equally
  // likely — i.e. the dedup introduces no bias (each accepted draw is
  // uniform over the not-yet-drawn positions; see the uniformity test in
  // tests/test_fault_injector.cpp). Membership is a linear-probing table of
  // at least 2·nfaults slots (load ≤ 1/2), allocated once per call; no
  // position equals the empty marker, since positions are < total_bits.
  constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  const int shift = 64 - std::bit_width(2 * nfaults - 1);
  std::vector<std::uint64_t> table(std::uint64_t{1} << (64 - shift), kEmpty);
  const std::uint64_t mask = table.size() - 1;
  out.reserve(out.size() + nfaults);
  for (std::uint64_t f = 0; f < nfaults; ++f) {
    for (;;) {
      const std::uint64_t pos = rng.next_below(total_bits);
      std::uint64_t slot = (pos * 0x9E3779B97F4A7C15ull) >> shift;
      while (table[slot] != kEmpty && table[slot] != pos) slot = (slot + 1) & mask;
      if (table[slot] == pos) continue;  // re-draw
      table[slot] = pos;
      out.push_back(pos);
      break;
    }
  }
}

FaultBatch FaultInjector::sample_exact(Rng& rng, std::uint64_t nfaults) const {
  std::vector<std::uint64_t> drawn;
  draw_positions(rng, nfaults, drawn);

  // Group by line in draw order (position <-> (line, bit) is a bijection,
  // so global distinctness equals per-line bit distinctness).
  FaultBatch batch;
  batch.reserve(nfaults);
  for (const auto pos : drawn) {
    batch[pos / bits_per_line_].push_back(
        static_cast<std::uint32_t>(pos % bits_per_line_));
  }
  return batch;
}

void FaultInjector::batch_order(std::span<const std::uint64_t> positions,
                                std::vector<std::uint64_t>& out) const {
  // About 24 bytes per line (node and bucket); past that, heap blocks.
  alignas(std::max_align_t) std::byte arena[16384];
  std::pmr::monotonic_buffer_resource pool(arena, sizeof arena);
  std::pmr::unordered_set<std::uint64_t> seen(&pool);
  seen.reserve(positions.size());
  for (const auto pos : positions) seen.insert(pos / bits_per_line_);
  out.assign(seen.begin(), seen.end());
}

void FaultInjector::apply(const FaultBatch& batch, SttramArray& array) {
  for (const auto& [line, bits] : batch) {
    for (const auto b : bits) array.flip(line, b);
  }
}

std::uint64_t FaultInjector::count(const FaultBatch& batch) {
  std::uint64_t n = 0;
  for (const auto& [line, bits] : batch) n += bits.size();
  return n;
}

}  // namespace sudoku
