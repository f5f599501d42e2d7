// Binary BCH ECC-t encoder/decoder. Implements the multi-bit ECC the paper
// uses as its baseline: ECC-t over a 512-bit dataword costs ~10·t check
// bits (m = 10, n = 1023 shortened), e.g. the 60-bit ECC-6 of §II-D, and
// ECC-6 over 1 KB (m = 14) for the Hi-ECC comparison.
//
// Encoder: byte-at-a-time table LFSR over a reflected remainder held in
// two 64-bit words (deg g = r <= 96), bit-serial for the last k mod 8
// message bits.
// Decoder: power-sum syndromes, Berlekamp–Massey error locator, then the
// locator's roots — closed form for degree 1 and 2 (a GF(2)-linear solve
// of y² + y = c), a Chien search that stops at the deg-th root otherwise.
// More than t faults either raise a detected decode failure or (rarely)
// miscorrect — both behaviours are faithfully exposed, since the
// reliability analysis depends on them. docs/perf.md has the derivations.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "codes/batch_codec.h"
#include "common/bitvec.h"
#include "codes/gf2m.h"

namespace sudoku {

class Bch {
 public:
  // Capacity of the bit-sliced syndrome accumulator, in words (t·m): sized
  // for the largest frontier design, t = 6 over GF(2^16).
  static constexpr std::size_t kMaxSyndromeWords = 6 * 16;

  // Code over GF(2^m) correcting up to t errors, shortened to carry
  // `message_bits` of payload. Throws std::invalid_argument unless
  // t >= 1, 3 <= m <= 16, t·m <= kMaxSyndromeWords and
  // message_bits + parity <= 2^m - 1.
  Bch(int m, int t, std::size_t message_bits);

  // deg g of the code Bch(m, t, ·) builds: the size of the union of the
  // cyclotomic cosets of 1..2t mod 2^m - 1, without building the field.
  // Validates (m, t) as the constructor does.
  static std::size_t generator_degree(int m, int t);

  int t() const { return t_; }
  std::size_t message_bits() const { return k_; }
  std::size_t parity_bits() const { return r_; }
  std::size_t codeword_bits() const { return n_; }

  // Codeword layout: [message | parity]. Fills parity in place.
  void encode(BitVec& codeword) const;

  enum class DecodeStatus {
    kClean,          // no errors detected
    kCorrected,      // <= t errors located and flipped
    kUncorrectable,  // decoder detected an inconsistent pattern
  };

  struct DecodeResult {
    DecodeStatus status = DecodeStatus::kClean;
    int corrected = 0;  // number of bits flipped
  };

  DecodeResult decode(BitVec& codeword) const;

  // decode() with the power-sum syndromes already in hand (e.g. from
  // batch_syndromes). Given the same syndrome values, the correction and
  // status are identical to decode() — the batched scrub paths rely on
  // that to stay bit-identical to the per-line code.
  DecodeResult decode_with_syndromes(BitVec& codeword,
                                     std::span<const std::uint32_t> s) const;

  // Power-sum syndromes S_1..S_2t of a (possibly corrupted) codeword.
  // Word-at-a-time Horner: per backing word, one multiply by alpha^(64·j)
  // plus an XOR of a precomputed weight per set bit, instead of one field
  // multiply per codeword bit. Public so the differential kernel tests and
  // the throughput bench can compare it against the bit-serial oracle.
  std::vector<std::uint32_t> syndromes(const BitVec& codeword) const;

  // Bit-serial oracle (one field multiply per bit per syndrome); identical
  // values to syndromes().
  std::vector<std::uint32_t> syndromes_reference(const BitVec& codeword) const;

  // True iff every syndrome is zero. Allocation-free with per-syndrome
  // early exit — the scrub fast path for clean lines, which no longer
  // copies the codeword through a trial decode.
  bool syndromes_zero(const BitVec& codeword) const;

  // --- bit-sliced batch kernels (the BatchCodec engine, docs/perf.md) ---
  // All of a transposed batch's syndromes at once: `out` receives
  // planes.count() rows of 2t values, row L = the syndromes of the
  // codeword staged in slot L, identical to syndromes() on that codeword.
  // planes.nbits() must equal codeword_bits().
  void batch_syndromes(const BitPlanes& planes, std::uint32_t* out) const;

  // Bit L of the result is set iff slot L's syndromes are all zero — the
  // batched clean check (one word XOR per accumulator touch for all 64
  // lines together, no per-line extraction).
  std::uint64_t batch_syndromes_zero(const BitPlanes& planes) const;

 private:
  int m_;
  int t_;
  std::size_t k_;  // message bits
  std::size_t r_;  // parity bits (deg g)
  std::size_t n_;  // k + r
  GF2m field_;

  // Encoder LFSR state: the remainder reflected, bit j = coefficient of
  // x^(r-1-j) (the parity bit stored at k_+j), over two words since
  // r = deg g can exceed 63 (84 for Hi-ECC's ECC-6 over 1 KB, 96 at most).
  using Remainder = std::array<std::uint64_t, 2>;
  Remainder gen_reflected_{};           // g(x) - x^r, reflected
  std::vector<Remainder> enc_table_;    // 256 entries: 8 message bits at once
  void encode_bit(Remainder& rem, std::uint32_t bit) const;

  // Degree-2 locator solve: y² + y is GF(2)-linear with kernel {0, 1}, so a
  // root of y² + y = c (when one exists) is the XOR of quad_solve_[b] over
  // the set bits b of c.
  std::array<std::uint32_t, 16> quad_solve_{};

  // Word-level syndrome tables, built once per code. For syndrome j
  // (1-based), row j-1 of syn_weights_ holds alpha^(j·(63-k)) for word-bit
  // position k, syn_pow64_ holds alpha^(64·j) (the per-word Horner
  // multiplier), and syn_powtail_ holds alpha^(tail_bits·j) for the final
  // partial word. Tail weights reuse the same row at offset 64-tail_bits.
  std::size_t words_per_cw_ = 0;
  std::size_t tail_bits_ = 0;  // n_ mod 64 (0 = codeword ends word-aligned)
  std::vector<std::uint32_t> syn_weights_;  // 2t rows of 64
  std::vector<std::uint32_t> syn_pow64_;
  std::vector<std::uint32_t> syn_powtail_;

  // Horner step over one word chunk of `width` bits for syndrome row j0.
  std::uint32_t syndrome_word_step(std::uint32_t acc, std::uint64_t w, int j0,
                                   std::uint32_t pow, unsigned weight_offset) const {
    acc = field_.mul(acc, pow);
    const std::uint32_t* weights = &syn_weights_[static_cast<std::size_t>(j0) * 64];
    while (w != 0) {
      acc ^= weights[weight_offset + static_cast<unsigned>(std::countr_zero(w))];
      w &= w - 1;
    }
    return acc;
  }

  std::uint32_t syndrome_one(const BitVec& codeword, int j0) const;

  // BM + root finding shared by decode() and decode_with_syndromes().
  DecodeResult locate_and_correct(BitVec& codeword,
                                  std::span<const std::uint32_t> s) const;

  // Codeword bit index whose Chien point alpha^(i-(n-1)) is `root` (!= 0);
  // >= n_ when the root falls outside the shortened code.
  std::size_t root_position(std::uint32_t root) const {
    return (field_.log(root) + n_ - 1) % field_.order();
  }

  // Bit-slice program, built lazily on first batch call (the Hi-ECC
  // geometry's program is ~0.7 MB — per-line users never pay for it).
  // For codeword position i, entries [off[i], off[i+1]) name the
  // accumulator words (odd syndrome j = 2o+1, field bit b -> o*m + b)
  // that plane i is XORed into: exactly the set bits of alpha^(j*(n-1-i))
  // for each odd j. Even syndromes are exact field squarings (S_2j =
  // S_j^2 in a binary BCH code) applied per line at extraction — halving
  // the program the accumulation streams through. Weights are computed
  // directly from the field's antilog table so the batch path shares no
  // derived tables with the word-Horner kernel (independent
  // implementations for the differential tests). Heap-held so the
  // once_flag doesn't cost Bch its copy and move constructors, and shared
  // by copies: the program is immutable once built, so the copies of one
  // code (the Monte-Carlo shards' schemes) build it once between them.
  struct SliceProgram {
    std::once_flag once;
    std::vector<std::uint32_t> off;  // n_ + 1 offsets
    std::vector<std::uint16_t> idx;
  };
  void build_slice_program() const;
  std::shared_ptr<SliceProgram> slice_ = std::make_shared<SliceProgram>();

  // Run the slice program over a finalized batch: acc[j0*m + b] bit L =
  // bit b of slot L's syndrome S_{j0+1}.
  void accumulate_planes(const BitPlanes& planes, std::uint64_t* acc) const;
};

}  // namespace sudoku
