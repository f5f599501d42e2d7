#include "baselines/batch_scrub.h"

#include <algorithm>

namespace sudoku::baselines {

void format_random_bch(const Bch& bch, SttramArray& array, Rng& rng) {
  // Message words are assigned whole; the parity words past them are
  // rewritten by encode(), so the scratch codeword needs no clearing.
  BitVec cw(bch.codeword_bits());
  const std::size_t k = bch.message_bits();
  for (std::uint64_t unit = 0; unit < array.num_lines(); ++unit) {
    const auto words = cw.words();
    for (std::size_t base = 0; base < k; base += 64) {
      const std::size_t width = std::min<std::size_t>(64, k - base);
      std::uint64_t w = 0;
      // One fair bit per draw, exactly rng.next_bool(0.5): next_double()
      // < 0.5 iff the draw's top bit is clear.
      for (std::size_t b = 0; b < width; ++b) w |= ((~rng.next_u64()) >> 63) << b;
      words[base / 64] = w;
    }
    bch.encode(cw);
    array.write_line(unit, cw);
  }
}

ScrubReport batch_scrub_bch(const Bch& bch, SttramArray& array,
                            std::span<const std::uint64_t> units, BitVec& scratch) {
  ScrubReport stats;
  for (const std::uint64_t unit : units) {
    array.read_line(unit, scratch);
    switch (bch.decode(scratch).status) {
      case Bch::DecodeStatus::kClean:
        break;
      case Bch::DecodeStatus::kCorrected:
        array.write_line(unit, scratch);  // note: may be a miscorrection (SDC)
        ++stats.corrected;
        break;
      case Bch::DecodeStatus::kUncorrectable:
        stats.due_unit_ids.push_back(unit);
        break;
    }
  }
  return stats;
}

}  // namespace sudoku::baselines
