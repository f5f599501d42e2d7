// RAID-Group geometry and the skewed hash pair of SuDoku-Z (paper §V-A).
//
// Hash-1 groups consecutive lines: group = addr >> log2(G) — i.e. masking
// out addr[g-1:0]. Hash-2 masks out the *next* g bits instead: its group id
// is formed from addr[g-1:0] plus the address bits above 2g. Two lines that
// share a Hash-1 group (same high bits, different low field) therefore land
// in different Hash-2 groups — the disjointness guarantee SuDoku-Z needs.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>

namespace sudoku {

struct RaidGeometry {
  std::uint64_t num_lines = 1ull << 20;  // 64 MB / 64 B
  std::uint32_t group_size = 512;        // lines per RAID-Group

  std::uint64_t num_groups() const { return num_lines / group_size; }
  std::uint32_t group_bits() const {
    return static_cast<std::uint32_t>(std::countr_zero(std::uint64_t{group_size}));
  }
  std::uint32_t line_bits() const {
    return static_cast<std::uint32_t>(std::countr_zero(num_lines));
  }

  bool valid() const {
    return std::has_single_bit(num_lines) && std::has_single_bit(std::uint64_t{group_size}) &&
           num_lines >= group_size;
  }
  // Hash-2 needs at least 2·g address bits so the two fields don't overlap.
  bool supports_skewed_hash() const { return valid() && line_bits() >= 2 * group_bits(); }
};

class SkewedHash {
 public:
  explicit SkewedHash(const RaidGeometry& geo) : geo_(geo) {
    assert(geo.valid());
    g_ = geo.group_bits();
    low_mask_ = (std::uint64_t{1} << g_) - 1;
  }

  const RaidGeometry& geometry() const { return geo_; }

  // ---- Hash-1: consecutive lines ----
  std::uint64_t group1(std::uint64_t line) const { return line >> g_; }

  std::uint64_t member1(std::uint64_t group, std::uint32_t slot) const {
    return (group << g_) | slot;
  }

  // ---- Hash-2: swap the addr[g-1:0] and addr[2g-1:g] fields' roles ----
  // group id = addr[g-1:0] | addr[top:2g] << g ; members vary addr[2g-1:g].
  std::uint64_t group2(std::uint64_t line) const {
    assert(geo_.supports_skewed_hash());
    const std::uint64_t low = line & low_mask_;
    const std::uint64_t high = line >> (2 * g_);
    return low | (high << g_);
  }

  std::uint64_t member2(std::uint64_t group, std::uint32_t slot) const {
    const std::uint64_t low = group & low_mask_;
    const std::uint64_t high = group >> g_;
    return low | (static_cast<std::uint64_t>(slot) << g_) | (high << (2 * g_));
  }

  // Slot of a line within its group (either hash).
  std::uint32_t slot1(std::uint64_t line) const {
    return static_cast<std::uint32_t>(line & low_mask_);
  }
  std::uint32_t slot2(std::uint64_t line) const {
    return static_cast<std::uint32_t>((line >> g_) & low_mask_);
  }

 private:
  RaidGeometry geo_;
  std::uint32_t g_;
  std::uint64_t low_mask_;
};

}  // namespace sudoku
