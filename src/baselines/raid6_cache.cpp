#include "baselines/raid6_cache.h"

#include <cassert>
#include <unordered_set>

namespace sudoku::baselines {

Raid6Cache::Raid6Cache(std::uint64_t num_lines, std::uint32_t group_size,
                       Raid6Flavor flavor)
    : codec_(),
      geo_{num_lines, group_size},
      flavor_(flavor),
      raid_(group_size, codec_.total_bits()),
      array_(num_lines, codec_.total_bits()),
      p_(geo_.num_groups()),
      q_(geo_.num_groups()) {
  assert(geo_.valid());
  if (flavor_ == Raid6Flavor::kRdp) {
    rdp_.emplace(group_size, codec_.total_bits());
  }
}

std::vector<BitVec> Raid6Cache::read_group(std::uint64_t group) const {
  std::vector<BitVec> lines(geo_.group_size);
  for (std::uint32_t s = 0; s < geo_.group_size; ++s) {
    lines[s] = array_.read_line(group * geo_.group_size + s);
  }
  return lines;
}

void Raid6Cache::rebuild_group(std::uint64_t group) {
  const auto lines = read_group(group);
  if (rdp_) {
    rdp_->compute(lines, p_[group], q_[group]);
  } else {
    raid_.compute(lines, p_[group], q_[group]);
  }
}

void Raid6Cache::format_random(Rng& rng) {
  BitVec data(LineCodec::kDataBits);
  for (std::uint64_t line = 0; line < array_.num_lines(); ++line) {
    auto w = data.words();
    for (auto& word : w) word = rng.next_u64();
    array_.write_line(line, codec_.encode(data));
  }
  for (std::uint64_t g = 0; g < geo_.num_groups(); ++g) rebuild_group(g);
}

ScrubReport Raid6Cache::scrub_units(std::span<const std::uint64_t> units) {
  ScrubReport stats;
  std::unordered_set<std::uint64_t> pending_groups;
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
        pending_groups.insert(line / geo_.group_size);
        break;
    }
  }

  for (const auto g : pending_groups) {
    // Re-scan the group, fixing single-bit lines, and collect survivors.
    std::vector<std::uint32_t> bad;
    for (std::uint32_t s = 0; s < geo_.group_size; ++s) {
      const std::uint64_t line = g * geo_.group_size + s;
      array_.read_line(line, stored);
      switch (codec_.check_and_correct(stored)) {
        case LineCodec::LineState::kClean:
          break;
        case LineCodec::LineState::kCorrected:
          array_.write_line(line, stored);
          ++stats.corrected;
          break;
        case LineCodec::LineState::kUncorrectable:
          bad.push_back(s);
          break;
      }
    }
    bool repaired = false;
    if (bad.size() == 1) {
      const auto lines = read_group(g);
      BitVec rebuilt = rdp_ ? rdp_->reconstruct_one(lines, bad[0], p_[g])
                            : raid_.reconstruct_one(lines, bad[0], p_[g]);
      if (codec_.fully_clean(rebuilt)) {
        array_.write_line(g * geo_.group_size + bad[0], rebuilt);
        ++stats.corrected;
        repaired = true;
      }
    } else if (bad.size() == 2) {
      const auto lines = read_group(g);
      const auto [da, db] =
          rdp_ ? rdp_->reconstruct_two(lines, bad[0], bad[1], p_[g], q_[g])
               : raid_.reconstruct_two(lines, bad[0], bad[1], p_[g], q_[g]);
      if (codec_.fully_clean(da) && codec_.fully_clean(db)) {
        array_.write_line(g * geo_.group_size + bad[0], da);
        array_.write_line(g * geo_.group_size + bad[1], db);
        stats.corrected += 2;
        repaired = true;
      }
    }
    if (!repaired && !bad.empty()) {
      for (const auto s : bad) {
        stats.due_unit_ids.push_back(g * geo_.group_size + s);
      }
    }
  }
  return stats;
}

}  // namespace sudoku::baselines
