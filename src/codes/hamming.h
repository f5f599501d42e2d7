// Single-error-correcting Hamming code (ECC-1, paper §I/§III). For SuDoku's
// line layout the message is 543 bits (512 data + 31 CRC) and the code adds
// 10 check bits — exactly the "10 bits per line" the paper budgets for
// ECC-1 — giving a 553-bit stored codeword.
//
// Classic positional construction: codeword positions 1..n, check bits at
// power-of-two positions, syndrome = XOR of the positions of all set bits.
// A zero syndrome means "consistent"; a syndrome that names a valid
// position is corrected by flipping that bit (which miscorrects when more
// than one bit is faulty — the behaviour SuDoku's CRC re-check is designed
// to catch); a syndrome beyond the codeword length is reported as
// uncorrectable.
#pragma once

#include <cstdint>
#include <vector>

#include "codes/batch_codec.h"
#include "common/bitvec.h"

namespace sudoku {

class Hamming {
 public:
  // `message_bits` is the number of protected bits (data + CRC).
  explicit Hamming(std::size_t message_bits);

  std::size_t message_bits() const { return k_; }
  std::size_t check_bits() const { return r_; }
  std::size_t codeword_bits() const { return n_; }

  // Compute check bits for a message laid out in codeword[0..k). The
  // codeword layout is [message | check bits]; this fills the check bits
  // in place. `codeword` must be codeword_bits() long.
  void encode(BitVec& codeword) const;

  // Syndrome of a (possibly corrupted) codeword. 0 = consistent.
  // Word-parallel: one AND + popcount-parity per check bit per backing
  // word, using the per-word parity masks precomputed at construction.
  std::uint32_t syndrome(const BitVec& codeword) const;

  // Bit-serial oracle (XOR of the positions of all set bits, walking set
  // bits one at a time). Identical value to syndrome(); kept as the
  // reference for the differential kernel tests and the throughput bench.
  std::uint32_t syndrome_reference(const BitVec& codeword) const;

  enum class DecodeStatus {
    kClean,          // syndrome 0, nothing done
    kCorrected,      // one bit flipped (correct iff exactly one fault)
    kUncorrectable,  // syndrome names no valid position
  };

  // Attempt single-error correction in place.
  DecodeStatus decode(BitVec& codeword) const;

  // Codeword index of the single-bit error that has syndrome `syn` (a
  // nonzero syndrome), or codeword_bits() when `syn` names no valid
  // position. Flipping that bit zeroes the syndrome.
  std::size_t error_index(std::uint32_t syn) const {
    return syn <= n_ && pos_to_index_plus1_[syn] != 0 ? pos_to_index_plus1_[syn] - 1
                                                       : n_;
  }

  // --- bit-sliced batch kernels (the BatchCodec engine, docs/perf.md) ---
  // Syndromes of a whole transposed batch at once: `out` receives
  // planes.count() entries, entry L identical to syndrome() of the
  // codeword staged in slot L. planes.nbits() must be codeword_bits().
  void batch_syndromes(const BitPlanes& planes, std::uint32_t* out) const;

  // Bit L of the result is set iff slot L's syndrome is zero — the
  // batched clean check.
  std::uint64_t batch_syndromes_zero(const BitPlanes& planes) const;

 private:
  std::size_t k_;  // message bits
  std::size_t r_;  // check bits
  std::size_t n_;  // k + r

  // index (0-based, message-first layout) -> Hamming position (1-based)
  std::vector<std::uint32_t> index_to_pos_;
  // Hamming position -> index + 1 (0 = invalid position)
  std::vector<std::uint32_t> pos_to_index_plus1_;
  // Per-check-bit parity masks over the codeword's backing words: row j
  // (words_per_cw_ words starting at j*words_per_cw_) selects the indices
  // whose Hamming position has bit j set. Syndrome bit j is the parity of
  // popcount(codeword & row_j).
  std::size_t words_per_cw_ = 0;
  std::vector<std::uint64_t> check_masks_;

  // Bit-slice program for the batch kernels: for codeword index i,
  // entries [slice_off_[i], slice_off_[i+1]) name the syndrome bits of
  // index_to_pos_[i] — XORing plane i into those accumulator words
  // computes syndrome bit j for all 64 staged lines at once. Built in the
  // constructor (a few KB).
  std::vector<std::uint32_t> slice_off_;
  std::vector<std::uint16_t> slice_idx_;

  // Run the program; acc must hold check_bits() words (acc[j] bit L =
  // syndrome bit j of slot L).
  void accumulate_planes(const BitPlanes& planes, std::uint64_t* acc) const;
};

}  // namespace sudoku
