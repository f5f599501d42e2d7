#include "baselines/cppc_cache.h"

namespace sudoku::baselines {

CppcCache::CppcCache(std::uint64_t num_lines)
    : codec_(), array_(num_lines, codec_.total_bits()), global_parity_(codec_.total_bits()) {}

void CppcCache::format_random(Rng& rng) {
  BitVec data(LineCodec::kDataBits);
  for (std::uint64_t line = 0; line < array_.num_lines(); ++line) {
    auto w = data.words();
    for (auto& word : w) word = rng.next_u64();
    array_.write_line(line, codec_.encode(data));
  }
  rebuild_parity();
}

void CppcCache::rebuild_parity() {
  global_parity_.clear();
  for (std::uint64_t line = 0; line < array_.num_lines(); ++line) {
    array_.xor_line_into(line, global_parity_);
  }
}

bool CppcCache::parity_consistent() const {
  BitVec acc = global_parity_;
  for (std::uint64_t line = 0; line < array_.num_lines(); ++line) {
    array_.xor_line_into(line, acc);
  }
  return acc.none();
}

ScrubReport CppcCache::scrub_units(std::span<const std::uint64_t> units) {
  ScrubReport stats;
  std::vector<std::uint64_t> bad;
  BitVec stored(codec_.total_bits());
  for (const auto line : units) {
    array_.read_line(line, stored);
    switch (codec_.check_and_correct(stored)) {
      case LineCodec::LineState::kClean:
        break;
      case LineCodec::LineState::kCorrected:
        array_.write_line(line, stored);
        ++stats.corrected;
        break;
      case LineCodec::LineState::kUncorrectable:
        bad.push_back(line);
        break;
    }
  }
  if (bad.size() == 1) {
    // Reconstruct the lone victim: global parity XOR every other line.
    BitVec acc = global_parity_;
    for (std::uint64_t line = 0; line < array_.num_lines(); ++line) {
      if (line != bad[0]) array_.xor_line_into(line, acc);
    }
    if (codec_.fully_clean(acc)) {
      array_.write_line(bad[0], acc);
      ++stats.corrected;
      return stats;
    }
  }
  for (const auto line : bad) {
    stats.due_unit_ids.push_back(line);
  }
  return stats;
}

}  // namespace sudoku::baselines
