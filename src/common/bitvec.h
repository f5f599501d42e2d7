// Dynamic bit vector used to represent stored cache-line codewords and
// parity lines. Sized in bits; storage is 64-bit words. Supports the word
// level operations the RAID/SDR machinery needs: XOR accumulation,
// popcount, and enumeration of set-bit positions (parity mismatches).
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>
#include <span>
#include <string>

namespace sudoku {

class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t nbits) : nbits_(nbits), words_((nbits + 63) / 64, 0) {}

  std::size_t size() const { return nbits_; }
  bool empty() const { return nbits_ == 0; }

  bool test(std::size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1u; }
  void set(std::size_t i) { words_[i >> 6] |= (std::uint64_t{1} << (i & 63)); }
  void reset(std::size_t i) { words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63)); }
  void flip(std::size_t i) { words_[i >> 6] ^= (std::uint64_t{1} << (i & 63)); }
  void assign(std::size_t i, bool v) { v ? set(i) : reset(i); }

  void clear();                       // zero all bits, keep size
  void resize(std::size_t nbits);     // resize; new bits are zero

  // In-place XOR with another vector of identical size.
  BitVec& operator^=(const BitVec& o);
  friend BitVec operator^(BitVec a, const BitVec& b) { a ^= b; return a; }

  bool operator==(const BitVec& o) const = default;

  bool any() const;
  bool none() const { return !any(); }
  std::size_t popcount() const;

  // Replace `out` with the positions of set bits, ascending. `limit` caps
  // the scan (0 = no cap); used by SDR, which gives up beyond 6 mismatches
  // anyway and passes scratch, so a warm `out` allocates nothing.
  void set_positions(std::vector<std::size_t>& out, std::size_t limit = 0) const;

  // Read/write a field of up to 64 bits starting at `pos`, word-parallel
  // (at most two word accesses). Bit `pos` lands in bit 0 of the result.
  // Used by the codec hot path to move the CRC field without per-bit calls.
  std::uint64_t get_bits(std::size_t pos, unsigned nbits) const;
  void set_bits(std::size_t pos, unsigned nbits, std::uint64_t value);

  // Hamming distance to another vector of identical size.
  std::size_t distance(const BitVec& o) const;

  std::span<const std::uint64_t> words() const { return words_; }
  std::span<std::uint64_t> words() { return words_; }

  // Debug helper: "0101..." MSB-last (index order).
  std::string to_string() const;

 private:
  std::size_t nbits_ = 0;
  std::vector<std::uint64_t> words_;

  void mask_tail();  // clear bits beyond nbits_ in the last word
};

}  // namespace sudoku
