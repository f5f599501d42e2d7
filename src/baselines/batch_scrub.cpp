#include "baselines/batch_scrub.h"

#include <algorithm>
#include <vector>

#include "codes/batch_codec.h"

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
                              std::span<const std::uint64_t> units,
                              std::size_t min_batch) {
  ScrubReport stats;
  const std::size_t nsyn = 2 * static_cast<std::size_t>(bch.t());
  const auto apply = [&](std::uint64_t unit, BitVec& cw,
                         Bch::DecodeResult res) {
    switch (res.status) {
      case Bch::DecodeStatus::kClean:
        break;
      case Bch::DecodeStatus::kCorrected:
        array.write_line(unit, cw);  // note: may be a miscorrection (SDC)
        ++stats.corrected;
        break;
      case Bch::DecodeStatus::kUncorrectable:
        stats.due_unit_ids.push_back(unit);
        break;
    }
  };

  // Per-thread scratch, so a steady-state scrub allocates no buffers.
  thread_local BitVec cw;
  thread_local std::vector<BitVec> batch;
  thread_local std::vector<std::uint32_t> syn;
  thread_local BitPlanes planes;
  for (std::size_t base = 0; base < units.size(); base += BitPlanes::kMaxLines) {
    const std::size_t count =
        std::min<std::size_t>(BitPlanes::kMaxLines, units.size() - base);
    if (count < min_batch) {
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t unit = units[base + i];
        array.read_line(unit, cw);
        apply(unit, cw, bch.decode(cw));
      }
      continue;
    }
    if (batch.size() < count) batch.resize(count);
    syn.resize(count * nsyn);
    planes.reset(bch.codeword_bits(), count);
    for (std::size_t i = 0; i < count; ++i) {
      array.read_line(units[base + i], batch[i]);
      planes.load_line(i, batch[i].words());
    }
    planes.finalize();
    bch.batch_syndromes(planes, syn.data());
    for (std::size_t i = 0; i < count; ++i) {
      apply(units[base + i], batch[i],
            bch.decode_with_syndromes(batch[i],
                                      {syn.data() + i * nsyn, nsyn}));
    }
  }
  return stats;
}

}  // namespace sudoku::baselines
