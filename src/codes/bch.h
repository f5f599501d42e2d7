// Binary BCH ECC-t encoder/decoder. Implements the multi-bit ECC the paper
// uses as its baseline: ECC-t over a 512-bit dataword costs ~10·t check
// bits (m = 10, n = 1023 shortened), e.g. the 60-bit ECC-6 of §II-D, and
// ECC-6 over 1 KB (m = 14) for the Hi-ECC comparison.
//
// One remainder serves encode, the clean check and the syndromes: the
// reflected remainder of message(x)·x^r modulo g(x), held in two 64-bit
// words (deg g = r <= 96). encode() stores it as the parity;
// syndromes_zero() compares it with the stored parity; decode() evaluates
// d = remainder ^ parity (degree < r) at the t odd points alpha^j and
// squares for the even ones, exact because g(alpha^j) = 0. Two kernels
// compute it: a byte-table LFSR (portable) and PCLMUL folding
// (bch_clmul.cpp, x86-64 with pclmulqdq), picked once per process.
// Decoder: Berlekamp–Massey error locator, then the locator's roots —
// closed form for degree 1 and 2 (a GF(2)-linear solve of y² + y = c), a
// log-domain Chien search that stops at the deg-th root otherwise.
// More than t faults either raise a detected decode failure or (rarely)
// miscorrect — both behaviours are faithfully exposed, since the
// reliability analysis depends on them. docs/perf.md has the derivations.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bitvec.h"
#include "codes/gf2m.h"

namespace sudoku {

class Bch {
 public:
  // Largest t·m the constructor accepts: deg g <= t·m <= 96 keeps the
  // remainder in two words. Sized for the largest frontier design, t = 6
  // over GF(2^16).
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

  // Allocation-free: the syndromes live on the stack.
  DecodeResult decode(BitVec& codeword) const;

  // decode() with the power-sum syndromes S_1..S_2t already in hand. Given
  // the syndromes of `codeword`, the correction and status are identical
  // to decode(); the differential tests also feed it free syndrome vectors
  // to reach every locator shape.
  DecodeResult decode_with_syndromes(BitVec& codeword,
                                     std::span<const std::uint32_t> s) const;

  // Power-sum syndromes S_1..S_2t of a (possibly corrupted) codeword, from
  // the remainder: identical values to syndromes_reference().
  std::vector<std::uint32_t> syndromes(const BitVec& codeword) const;

  // Bit-serial oracle (one field multiply per bit per syndrome).
  std::vector<std::uint32_t> syndromes_reference(const BitVec& codeword) const;

  // True iff every syndrome is zero, i.e. iff the remainder of the stored
  // message equals the stored parity. Allocation-free.
  bool syndromes_zero(const BitVec& codeword) const;

  // --- the remainder kernels ---
  // Reflected remainder of message(x)·x^r mod g(x), where the message is
  // codeword[0, k) with bit 0 the highest degree: bit j (of the 128) is the
  // coefficient of x^(r-1-j), i.e. the parity bit encode() stores at k + j.
  // Bits j >= r are zero. The parity bits of `codeword` are not read.
  using Remainder = std::array<std::uint64_t, 2>;

  // The dispatched kernel: remainder_clmul() when clmul_supported(), else
  // remainder_table().
  Remainder remainder(const BitVec& codeword) const {
    return clmul_ ? remainder_clmul(codeword) : remainder_table(codeword);
  }

  // Byte-table LFSR: one 16-byte lookup per message byte, the last k mod 8
  // bits clocked bit-serially.
  Remainder remainder_table(const BitVec& codeword) const;

  // PCLMUL folding of 256-bit blocks, then a carry-less finish and the
  // byte table for the bits past the last whole block. Only callable when
  // clmul_supported(); compiled to an abort stub otherwise.
  Remainder remainder_clmul(const BitVec& codeword) const;

  // True iff the build carries the PCLMUL kernel (SUDOKU_ENABLE_PCLMUL on
  // x86-64) and the host CPU has pclmulqdq. Evaluated once per process.
  static bool clmul_supported();

  // Chien search over the codeword positions for the locator `lambda`
  // (lambda[0] = 1, degree lambda.size() - 1 <= t): writes the positions
  // i < n whose point alpha^(i-(n-1)) is a root to `positions`, ascending,
  // and returns their count. Stops at the deg-th root; a locator with
  // fewer roots in range (roots past n, double roots, irreducible factors)
  // is scanned in full. Log domain: one antilog lookup per term and point.
  int chien_search(std::span<const std::uint32_t> lambda, std::size_t* positions) const;

 private:
  // Immutable per-code tables, built once in the constructor and shared
  // by copies of the code (each Monte-Carlo shard's scheme holds one).
  struct Tables {
    explicit Tables(int m) : field(m) {}
    GF2m field;
    Remainder gen_reflected{};  // g(x) - x^r, reflected
    // Entry v: the register after clocking v's 8 bits (bit 0 first)
    // through a zero LFSR.
    std::array<Remainder, 256> byte_table{};
    // Degree-2 locator solve: y² + y is GF(2)-linear with kernel {0, 1},
    // so a root of y² + y = c (when one exists) is the XOR of
    // quad_solve[b] over the set bits b of c.
    std::array<std::uint32_t, 16> quad_solve{};
    // odd_weights[b·t + o] = alpha^((2o+1)(r-1-b)): what bit b of the
    // difference adds to the odd syndrome S_(2o+1).
    std::vector<std::uint32_t> odd_weights;
    // PCLMUL constants for word w = 0..3 of a 256-bit block, in the
    // remainder format: fold[w] = x^(319+r-64w) mod g, which read with top
    // degree 128 is x^(64(3-w)+256) mod g times x^(129-r); finish[w] =
    // x^(64(3-w)+r) mod g.
    std::array<Remainder, 4> fold{};
    std::array<Remainder, 4> finish{};
  };

  int m_;
  int t_;
  std::size_t k_;  // message bits
  std::size_t r_;  // parity bits (deg g)
  std::size_t n_;  // k + r
  bool clmul_ = false;  // remainder() runs remainder_clmul()
  std::shared_ptr<const Tables> tab_;

  const GF2m& field() const { return tab_->field; }

  // One byte-table LFSR step: the low 8 bits of `byte` clocked into `rem`.
  // By linearity the bits above rem's low byte only shift during the 8
  // clocks, so the step is one lookup of the register after clocking
  // (rem ^ byte)'s low byte through a zero register.
  static void byte_step(Remainder& rem, const std::array<Remainder, 256>& table,
                        std::uint64_t byte) {
    const Remainder& e = table[(rem[0] ^ byte) & 0xFF];
    rem[0] = ((rem[0] >> 8) | (rem[1] << 56)) ^ e[0];
    rem[1] = (rem[1] >> 8) ^ e[1];
  }

  // Byte-table LFSR from `rem` over message bits [from, k_); `from` is a
  // multiple of 64.
  Remainder table_from(Remainder rem, const BitVec& codeword, std::size_t from) const;

  // Remainder ^ stored parity: zero iff the codeword is clean.
  Remainder parity_difference(const BitVec& codeword) const;

  // S_1..S_2t of a nonzero difference d into s[0, 2t).
  void syndromes_of(const Remainder& d, std::uint32_t* s) const;

  // BM + root finding shared by decode() and decode_with_syndromes().
  DecodeResult locate_and_correct(BitVec& codeword,
                                  std::span<const std::uint32_t> s) const;

  // Codeword bit index whose Chien point alpha^(i-(n-1)) is `root` (!= 0);
  // >= n_ when the root falls outside the shortened code.
  std::size_t root_position(std::uint32_t root) const {
    return (field().log(root) + n_ - 1) % field().order();
  }
};

}  // namespace sudoku
