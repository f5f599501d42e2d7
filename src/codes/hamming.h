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
  // `message_bits` is the number of protected bits (data + CRC). Throws
  // std::invalid_argument past 16 check bits (message_bits > 65519).
  explicit Hamming(std::size_t message_bits);

  std::size_t message_bits() const { return k_; }
  std::size_t check_bits() const { return r_; }
  std::size_t codeword_bits() const { return n_; }

  // Compute check bits for a message laid out in codeword[0..k). The
  // codeword layout is [message | check bits]; this fills the check bits
  // in place. `codeword` must be codeword_bits() long.
  void encode(BitVec& codeword) const;

  // Syndrome of a (possibly corrupted) codeword. 0 = consistent. Runs
  // syndrome_avx512() when the host has AVX-512F and AVX-512 VPOPCNTDQ,
  // else syndrome_portable(); the choice is made once per process, from
  // the CPU alone.
  std::uint32_t syndrome(const BitVec& codeword) const {
    return avx512_ ? syndrome_avx512(codeword) : syndrome_portable(codeword);
  }

  // Word-parallel kernel: for each backing word, one AND + XOR per check
  // bit into that bit's accumulator, then one popcount parity per check
  // bit.
  std::uint32_t syndrome_portable(const BitVec& codeword) const;

  // AVX-512 kernel: each backing word is broadcast and ternlog-ed against
  // its 16 check-bit masks in two zmm accumulators; VPOPCNTQ gives all the
  // parities at once. Only callable when avx512_supported(); compiled to
  // an abort stub on targets other than x86-64.
  std::uint32_t syndrome_avx512(const BitVec& codeword) const;

  // True iff the build carries the AVX-512 kernel and the host CPU has
  // AVX-512F and AVX-512 VPOPCNTDQ. Evaluated once per process.
  static bool avx512_supported();

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
  // Parity masks, transposed: entry [wi * kMaskLanes + j] selects the
  // indices of backing word wi whose Hamming position has bit j set, and
  // lanes j >= r_ are zero. Syndrome bit j is the parity of the XOR over
  // wi of (word_wi & entry[wi][j]). One 128-byte row per word is two zmm
  // loads for the AVX-512 kernel; the portable kernel reads the same rows.
  static constexpr std::size_t kMaskLanes = 16;
  std::size_t words_per_cw_ = 0;
  std::vector<std::uint64_t> masks_;
  bool avx512_ = false;  // syndrome() runs syndrome_avx512()

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
