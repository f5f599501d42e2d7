// Flat bit-array holding the stored codewords of an STTRAM cache: N lines
// of `bits_per_line` each (553 bits for SuDoku's data+CRC+ECC layout).
// Storage is a single contiguous word vector (one million 553-bit lines
// would otherwise mean one million small heap allocations).
//
// Word accesses go through relaxed atomics: the concurrent service
// (src/service) reads lines on a seqlock fast path while a writer or the
// scrubber may be mutating the same bank, and the epoch re-check discards
// any torn copy — but the racing loads themselves must still be atomic for
// the program to be data-race-free (and for TSan to stay quiet). Relaxed
// 64-bit loads/stores compile to the same plain movs as before on every
// target we build for, so the single-threaded simulator paths keep their
// exact behaviour and cost.
//
// Each line also carries a verified-clean bit (docs/perf.md, "Verified-clean
// lines"). Every mutation — flip() and write_line() — clears it; only the
// SuDoku controller sets it, via mark_verified(), right after it has checked
// the line's current content or written a codeword it just encoded or
// validated. So verified(line) implies the line passes the full CRC + inner
// ECC check, and a scrub or repair may skip it. The bits are plain (not
// atomic): they are only touched under the exclusive access that already
// guards a mutation of the line words, and the service's lock-free read
// probe never reads them.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/bitvec.h"

namespace sudoku {

class SttramArray {
 public:
  SttramArray(std::uint64_t num_lines, std::uint32_t bits_per_line)
      : num_lines_(num_lines),
        bits_per_line_(bits_per_line),
        words_per_line_((bits_per_line + 63) / 64),
        words_(num_lines * words_per_line_, 0),
        verified_((num_lines + 63) / 64, 0) {}

  std::uint64_t num_lines() const { return num_lines_; }
  std::uint32_t bits_per_line() const { return bits_per_line_; }

  bool test(std::uint64_t line, std::uint32_t bit) const {
    return (load_word(line * words_per_line_ + (bit >> 6)) >> (bit & 63)) & 1u;
  }
  void flip(std::uint64_t line, std::uint32_t bit) {
    const std::uint64_t i = line * words_per_line_ + (bit >> 6);
    store_word(i, load_word(i) ^ (std::uint64_t{1} << (bit & 63)));
    clear_verified(line);
  }

  bool verified(std::uint64_t line) const {
    return (verified_[line >> 6] >> (line & 63)) & 1u;
  }
  void mark_verified(std::uint64_t line) {
    verified_[line >> 6] |= std::uint64_t{1} << (line & 63);
  }

  // Copy a stored line out into a BitVec sized bits_per_line().
  void read_line(std::uint64_t line, BitVec& out) const {
    if (out.size() != bits_per_line_) out.resize(bits_per_line_);
    auto w = out.words();
    const std::uint64_t base = line * words_per_line_;
    for (std::uint32_t i = 0; i < words_per_line_; ++i) w[i] = load_word(base + i);
    mask_tail(out);
  }

  BitVec read_line(std::uint64_t line) const {
    BitVec v(bits_per_line_);
    read_line(line, v);
    return v;
  }

  void write_line(std::uint64_t line, const BitVec& in) {
    auto w = in.words();
    const std::uint64_t base = line * words_per_line_;
    for (std::uint32_t i = 0; i < words_per_line_; ++i) store_word(base + i, w[i]);
    clear_verified(line);
  }

  // XOR a stored line into an accumulator (used for parity computation).
  void xor_line_into(std::uint64_t line, BitVec& acc) const {
    auto w = acc.words();
    const std::uint64_t base = line * words_per_line_;
    for (std::uint32_t i = 0; i < words_per_line_; ++i) w[i] ^= load_word(base + i);
  }

  // acc ^= lines line_of(0) .. line_of(count - 1) (a RAID-Group's parity).
  // The widths SuDoku's codec produces (9 words at inner t <= 3, 10 at
  // t = 4..6) sum in local words and touch `acc` once; others go line by
  // line.
  template <typename LineOf>
  void xor_lines_into(std::uint32_t count, LineOf line_of, BitVec& acc) const {
    switch (words_per_line_) {
      case 9: return xor_lines_fixed<9>(count, line_of, acc);
      case 10: return xor_lines_fixed<10>(count, line_of, acc);
      default:
        for (std::uint32_t s = 0; s < count; ++s) xor_line_into(line_of(s), acc);
    }
  }

  bool line_equals(std::uint64_t line, const BitVec& v) const {
    auto w = v.words();
    const std::uint64_t base = line * words_per_line_;
    for (std::uint32_t i = 0; i < words_per_line_; ++i)
      if (load_word(base + i) != w[i]) return false;
    return true;
  }

  // Line `line` of this array against the same line of `other`, compared
  // in place (both arrays must have this one's line width).
  bool line_equals(std::uint64_t line, const SttramArray& other) const {
    assert(other.words_per_line_ == words_per_line_);
    const std::uint64_t base = line * words_per_line_;
    for (std::uint32_t i = 0; i < words_per_line_; ++i)
      if (load_word(base + i) != other.load_word(base + i)) return false;
    return true;
  }

  std::uint64_t total_bits() const { return num_lines_ * bits_per_line_; }

 private:
  std::uint64_t num_lines_;
  std::uint32_t bits_per_line_;
  std::uint32_t words_per_line_;
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> verified_;  // one bit per line

  template <std::uint32_t W, typename LineOf>
  void xor_lines_fixed(std::uint32_t count, LineOf line_of, BitVec& acc) const {
    std::uint64_t sum[W] = {};
    for (std::uint32_t s = 0; s < count; ++s) {
      const std::uint64_t base = line_of(s) * W;
      // Unrolled, so that sum[] lives in registers.
#pragma GCC unroll 16
      for (std::uint32_t i = 0; i < W; ++i) sum[i] ^= load_word(base + i);
    }
    auto w = acc.words();
    for (std::uint32_t i = 0; i < W; ++i) w[i] ^= sum[i];
  }

  void clear_verified(std::uint64_t line) {
    verified_[line >> 6] &= ~(std::uint64_t{1} << (line & 63));
  }
  std::uint64_t load_word(std::uint64_t i) const {
    return __atomic_load_n(&words_[i], __ATOMIC_RELAXED);
  }
  void store_word(std::uint64_t i, std::uint64_t v) {
    __atomic_store_n(&words_[i], v, __ATOMIC_RELAXED);
  }
  void mask_tail(BitVec& v) const {
    const std::uint32_t rem = bits_per_line_ & 63;
    if (rem != 0) {
      auto w = v.words();
      w[words_per_line_ - 1] &= (std::uint64_t{1} << rem) - 1;
    }
  }
};

}  // namespace sudoku
