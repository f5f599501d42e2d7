#include "sudoku/controller.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory_resource>
#include <unordered_map>
#include <unordered_set>

#include "obs/macros.h"

namespace sudoku {

const char* to_string(SudokuLevel level) {
  switch (level) {
    case SudokuLevel::kX: return "SuDoku-X";
    case SudokuLevel::kY: return "SuDoku-Y";
    case SudokuLevel::kZ: return "SuDoku-Z";
  }
  return "?";
}

SudokuController::SudokuController(const SudokuConfig& config)
    : config_(config),
      codec_(config.inner_ecc_t),
      array_(config.geo.num_lines, codec_.total_bits()),
      hash_(config.geo),
      plt1_(config.geo.num_groups(), codec_.total_bits()),
      parity_(codec_.total_bits()) {
  // Geometry violations are programming errors but must fail loudly even
  // in release builds — an invalid skewed hash silently corrupts memory.
  if (!config_.geo.valid()) {
    std::fprintf(stderr,
                 "SudokuController: invalid geometry (lines=%llu group=%u); "
                 "both must be powers of two with lines >= group\n",
                 static_cast<unsigned long long>(config_.geo.num_lines),
                 config_.geo.group_size);
    std::abort();
  }
  if (config_.level == SudokuLevel::kZ && !config_.geo.supports_skewed_hash()) {
    std::fprintf(stderr,
                 "SudokuController: SuDoku-Z needs num_lines >= group_size^2 "
                 "(lines=%llu group=%u) for disjoint Hash-2 groups\n",
                 static_cast<unsigned long long>(config_.geo.num_lines),
                 config_.geo.group_size);
    std::abort();
  }
  if (config_.level == SudokuLevel::kZ) {
    plt2_.emplace(config_.geo.num_groups(), codec_.total_bits());
  }
}

void SudokuController::attach_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    obs_ = Instruments{};
    return;
  }
  obs_.read_clean = registry->counter("sudoku.read.clean");
  obs_.read_corrected = registry->counter("sudoku.read.corrected");
  obs_.read_repaired = registry->counter("sudoku.read.repaired");
  obs_.read_due = registry->counter("sudoku.read.due");
  obs_.scrub_lines_scanned = registry->counter("sudoku.scrub.lines_scanned");
  obs_.scrub_lines_clean = registry->counter("sudoku.scrub.lines_clean");
  obs_.repair_ecc1 = registry->counter("sudoku.repair.ecc1");
  obs_.repair_raid4 = registry->counter("sudoku.repair.raid4");
  obs_.repair_sdr = registry->counter("sudoku.repair.sdr");
  obs_.repair_sdr_attempts = registry->counter("sudoku.repair.sdr_attempts");
  obs_.repair_hash2 = registry->counter("sudoku.repair.hash2");
  obs_.repair_groups = registry->counter("sudoku.repair.groups");
  obs_.repair_due_lines = registry->counter("sudoku.repair.due_lines");
  obs_.sdr_case1 = registry->counter("sudoku.sdr.case1");
  obs_.sdr_case2 = registry->counter("sudoku.sdr.case2");
  obs_.sdr_case3 = registry->counter("sudoku.sdr.case3");
  obs_.sdr_mismatch_bits = registry->histogram(
      "sudoku.sdr.mismatch_bits", {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0});
}

ParityTable& SudokuController::plt(int which_hash) {
  return which_hash == 1 ? plt1_ : *plt2_;
}
const ParityTable& SudokuController::plt(int which_hash) const {
  return which_hash == 1 ? plt1_ : *plt2_;
}

void SudokuController::format(const std::function<BitVec(std::uint64_t)>& make_data) {
  for (std::uint64_t line = 0; line < config_.geo.num_lines; ++line) {
    codec_.encode(make_data(line), line_);
    array_.write_line(line, line_);
    array_.mark_verified(line);
  }
  rebuild_parities();
}

void SudokuController::format_random(Rng& rng) {
  // format() with one reused data buffer instead of one per line.
  BitVec data(LineCodec::kDataBits);
  for (std::uint64_t line = 0; line < config_.geo.num_lines; ++line) {
    for (auto& w : data.words()) w = rng.next_u64();
    codec_.encode(data, line_);
    array_.write_line(line, line_);
    array_.mark_verified(line);
  }
  rebuild_parities();
}

void SudokuController::xor_group_into(std::uint64_t group, int which_hash,
                                      BitVec& acc) const {
  array_.xor_lines_into(config_.geo.group_size,
                        [&](std::uint32_t s) { return member(group, which_hash, s); }, acc);
}

void SudokuController::rebuild_parity(int which_hash, std::uint64_t group) {
  parity_.clear();
  xor_group_into(group, which_hash, parity_);
  plt(which_hash).write(group, parity_);
}

void SudokuController::rebuild_parities() {
  for (int h = 1; h <= (plt2_ ? 2 : 1); ++h) {
    for (std::uint64_t g = 0; g < config_.geo.num_groups(); ++g) rebuild_parity(h, g);
  }
}

void SudokuController::write_data(std::uint64_t line, const BitVec& data) {
  // First read-modify-write: the data line. The old value participates in
  // the parity delta, so it must be a consistent codeword — correct it
  // first (a verified line already is); if it is beyond ECC-1, run the
  // group repair machinery.
  BitVec old = array_.read_line(line);
  bool old_consistent = true;
  if (!array_.verified(line) &&
      codec_.check_and_correct(old) == LineCodec::LineState::kUncorrectable) {
    ScrubStats scratch;
    repair_hash1_group(hash_.group1(line), scratch);
    old = array_.read_line(line);
    // If the old line is still broken its data is already lost; the write
    // overwrites it, and we must resynchronise parity the hard way below.
    old_consistent = codec_.fully_clean(old);
  }
  codec_.encode(data, line_);
  array_.write_line(line, line_);
  array_.mark_verified(line);
  if (old_consistent) {
    // Second read-modify-write: PLT delta update (paper §III-B).
    old ^= line_;  // the delta
    plt1_.apply_delta(hash_.group1(line), old);
    if (plt2_) plt2_->apply_delta(hash_.group2(line), old);
  } else {
    // Rare fallback: rebuild the parities of the affected groups from the
    // stored lines.
    rebuild_parities_for({&line, 1});
  }
}

ReadResult SudokuController::read_data(std::uint64_t line) {
  BitVec stored = array_.read_line(line);
  if (array_.verified(line)) {
    OBS_INC(obs_.read_clean);
    return {codec_.extract_data(stored), ReadStatus::kClean};
  }
  switch (codec_.check_and_correct(stored)) {
    case LineCodec::LineState::kClean:
      array_.mark_verified(line);
      OBS_INC(obs_.read_clean);
      return {codec_.extract_data(stored), ReadStatus::kClean};
    case LineCodec::LineState::kCorrected:
      array_.write_line(line, stored);  // scrub-on-read of the fixed bit
      array_.mark_verified(line);
      OBS_INC(obs_.read_corrected);
      return {codec_.extract_data(stored), ReadStatus::kCorrected};
    case LineCodec::LineState::kUncorrectable:
      break;
  }
  ScrubStats scratch;
  const auto& losers = repair_hash1_group(hash_.group1(line), scratch);
  if (std::find(losers.begin(), losers.end(), line) != losers.end()) {
    OBS_INC(obs_.read_due);
    return {BitVec(LineCodec::kDataBits), ReadStatus::kDue};
  }
  stored = array_.read_line(line);
  OBS_INC(obs_.read_repaired);
  return {codec_.extract_data(stored), ReadStatus::kRepaired};
}

LineCodec::LineState SudokuController::check_line(std::uint64_t line, BitVec& stored,
                                                  ScrubStats& stats) {
  if (array_.verified(line)) return LineCodec::LineState::kClean;
  array_.read_line(line, stored);
  const auto state = codec_.check_and_correct(stored);
  if (state == LineCodec::LineState::kUncorrectable) return state;
  if (state == LineCodec::LineState::kCorrected) {
    array_.write_line(line, stored);
    ++stats.ecc1_corrections;
    stats.repaired_line_ids.push_back(line);
    OBS_INC(obs_.repair_ecc1);
  }
  array_.mark_verified(line);
  return state;
}

bool SudokuController::raid4_reconstruct(std::uint64_t group, int which_hash,
                                         std::uint64_t victim, ScrubStats& stats) {
  // Effective parity over everything except the victim equals the victim's
  // fault-free codeword — provided all other members are consistent.
  BitVec& acc = parity_;
  plt(which_hash).read(group, acc);
  xor_group_into(group, which_hash, acc);
  array_.xor_line_into(victim, acc);  // take the victim back out
  if (!codec_.fully_clean(acc)) return false;
  array_.write_line(victim, acc);
  array_.mark_verified(victim);
  ++stats.raid4_repairs;
  stats.repaired_line_ids.push_back(victim);
  OBS_INC(obs_.repair_raid4);
  return true;
}

const SudokuController::Lines& SudokuController::repair_group(std::uint64_t group,
                                                              int which_hash,
                                                              ScrubStats& stats) {
  // Pass 1 (paper §III-C): fix every single-bit line with ECC-1.
  Lines& bad = bad_[which_hash - 1];
  bad.clear();
  for (std::uint32_t s = 0; s < config_.geo.group_size; ++s) {
    const std::uint64_t line = member(group, which_hash, s);
    if (check_line(line, line_, stats) == LineCodec::LineState::kUncorrectable) {
      bad.push_back(line);
    }
  }
  if (bad.empty()) return bad;
  ++stats.groups_repaired;
  OBS_INC(obs_.repair_groups);
  // Fig. 3 case breakdown by the number of multi-bit-faulty lines left in
  // the group: 1 = plain RAID-4 erasure (case 1), 2 = the SDR pair
  // scenario (case 2), 3+ = the hard multi-line pile-up (case 3).
  OBS_INC(bad.size() == 1   ? obs_.sdr_case1
          : bad.size() == 2 ? obs_.sdr_case2
                            : obs_.sdr_case3);

  if (bad.size() == 1) {
    if (raid4_reconstruct(group, which_hash, bad[0], stats)) bad.clear();
    return bad;
  }

  // Several multi-bit lines. SuDoku-X stops here.
  if (config_.level == SudokuLevel::kX) return bad;

  // SuDoku-Y: Sequential Data Resurrection (paper §IV). The parity
  // mismatch positions are candidate faulty-bit locations; flipping one of
  // a 2-fault line's bits makes the remainder ECC-1-correctable.
  bool progress = true;
  while (progress && bad.size() >= 2) {
    progress = false;

    BitVec& mismatch = parity_;
    plt(which_hash).read(group, mismatch);
    xor_group_into(group, which_hash, mismatch);
    const std::uint32_t cap = config_.sdr_mismatch_cap();
    std::vector<std::size_t>& positions = positions_;
    mismatch.set_positions(positions, cap + 1);
    if (positions.empty() || positions.size() > cap) break;
    OBS_OBSERVE(obs_.sdr_mismatch_bits, positions.size());

    BitVec& trial = line_;
    for (auto it = bad.begin(); it != bad.end() && !progress; ++it) {
      array_.read_line(*it, trial);
      for (const auto pos : positions) {
        // check_and_correct leaves an uncorrectable line unmodified, so
        // undoing the flip restores the stored value for the next try.
        trial.flip(pos);
        OBS_INC(obs_.repair_sdr_attempts);
        if (codec_.check_and_correct(trial) != LineCodec::LineState::kUncorrectable) {
          array_.write_line(*it, trial);
          array_.mark_verified(*it);
          ++stats.sdr_repairs;
          stats.repaired_line_ids.push_back(*it);
          OBS_INC(obs_.repair_sdr);
          bad.erase(it);
          progress = true;  // mismatch positions changed; recompute
          break;
        }
        trial.flip(pos);
      }
    }
  }
  if (bad.size() == 1) {
    if (raid4_reconstruct(group, which_hash, bad[0], stats)) bad.clear();
  }
  return bad;
}

const SudokuController::Lines& SudokuController::repair_group_skewed(std::uint64_t group1,
                                                                     ScrubStats& stats) {
  const auto& bad = repair_group(group1, 1, stats);  // bad_[0]; Hash-2 uses bad_[1]
  while (!bad.empty()) {
    // Try every surviving line under its Hash-2 group (paper §V-B). Any
    // line repaired there shrinks the Hash-1 problem; iterate to a fixed
    // point, since even one success can unlock RAID-4 for the remainder.
    bool progress = false;
    for (const auto line : bad) {
      ++stats.hash2_invocations;
      OBS_INC(obs_.repair_hash2);
      const auto& left = repair_group(hash_.group2(line), 2, stats);
      if (std::find(left.begin(), left.end(), line) == left.end()) progress = true;
    }
    if (!progress) break;
    repair_group(group1, 1, stats);
  }
  return bad;
}

const SudokuController::Lines& SudokuController::repair_hash1_group(std::uint64_t group1,
                                                                    ScrubStats& stats) {
  return config_.level == SudokuLevel::kZ ? repair_group_skewed(group1, stats)
                                          : repair_group(group1, 1, stats);
}

ScrubStats SudokuController::scrub_lines(std::span<const std::uint64_t> lines) {
  ScrubStats stats;
  stats.lines_scanned = lines.size();
  stats.repaired_line_ids.reserve(lines.size());  // one allocation, not log(n)
  OBS_ADD(obs_.scrub_lines_scanned, lines.size());

  // Per-line fast path, in input order; verified lines are counted clean
  // without being read. Groups that still contain an uncorrectable line go
  // through the RAID machinery once each.
  // The group sets live in a stack arena (heap past ~200 groups).
  alignas(std::max_align_t) std::byte arena[16384];
  std::pmr::monotonic_buffer_resource pool(arena, sizeof arena);
  std::pmr::unordered_set<std::uint64_t> pending_groups(&pool);
  for (const auto line : lines) {
    switch (check_line(line, line_, stats)) {
      case LineCodec::LineState::kClean:
        ++stats.lines_clean;
        OBS_INC(obs_.scrub_lines_clean);
        break;
      case LineCodec::LineState::kCorrected:
        break;
      case LineCodec::LineState::kUncorrectable:
        pending_groups.insert(hash_.group1(line));
        break;
    }
  }

  // Repair pending groups to a *global* fixed point: a line fixed through
  // its Hash-2 group may unblock another pending Hash-1 group (and vice
  // versa), so keep retrying failing groups while any pass makes progress.
  // This order, like FaultInjector::batch_order's, sets SuDoku-Z's split.
  std::pmr::unordered_map<std::uint64_t, std::size_t> failing(&pool);  // group -> #losers
  for (const auto g : pending_groups) failing.emplace(g, SIZE_MAX);
  bool progress = true;
  while (progress && !failing.empty()) {
    progress = false;
    for (auto it = failing.begin(); it != failing.end();) {
      const std::size_t losers = repair_hash1_group(it->first, stats).size();
      if (losers == 0) {
        it = failing.erase(it);
        progress = true;
      } else {
        if (losers < it->second) progress = true;
        it->second = losers;
        ++it;
      }
    }
  }
  // Whatever still fails is a detectable uncorrectable error.
  for (const auto& [g, count] : failing) {
    for (const auto l : repair_hash1_group(g, stats)) {
      ++stats.due_lines;
      OBS_INC(obs_.repair_due_lines);
      stats.due_line_ids.push_back(l);
    }
  }
  return stats;
}

ScrubStats SudokuController::scrub_all() {
  std::vector<std::uint64_t> all(config_.geo.num_lines);
  for (std::uint64_t i = 0; i < all.size(); ++i) all[i] = i;
  return scrub_lines(all);
}

std::uint64_t SudokuController::plt_storage_bits() const {
  return plt1_.storage_bits() + (plt2_ ? plt2_->storage_bits() : 0);
}

void SudokuController::rebuild_parities_for(std::span<const std::uint64_t> lines) {
  for (int h = 1; h <= (plt2_ ? 2 : 1); ++h) {
    std::vector<std::uint64_t> groups;  // of the lines under hash h
    for (const auto l : lines) groups.push_back(h == 1 ? hash_.group1(l) : hash_.group2(l));
    std::sort(groups.begin(), groups.end());
    groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
    for (const auto g : groups) rebuild_parity(h, g);
  }
}

bool SudokuController::parities_consistent() const {
  BitVec acc(codec_.total_bits());
  for (int h = 1; h <= (plt2_ ? 2 : 1); ++h) {
    for (std::uint64_t g = 0; g < config_.geo.num_groups(); ++g) {
      acc.clear();
      xor_group_into(g, h, acc);
      plt(h).xor_into(g, acc);
      if (acc.any()) return false;
    }
  }
  return true;
}

}  // namespace sudoku
