// PCLMUL BCH remainder kernel (docs/perf.md "BCH syndromes"). Compiled
// only on x86-64 builds with SUDOKU_ENABLE_PCLMUL; the function carries its
// own target attribute, so the rest of the library still builds for the
// baseline ISA, and Bch picks it at runtime only when clmul_supported().
//
// Math. A BitVec word is the reflected image of a degree-63 polynomial
// chunk (bit b = coefficient of x^(63-b)). For a 64-bit lane L read that
// way and a constant c whose bit j is the coefficient of x^(D-j), the
// carry-less product's bit q is the coefficient of x^(63+D-q) of L·C, so
// the constant's reading fixes where the product lands.
//
// Fold. The state F is 256 message bits (word w = degrees
// 255-64w .. 192-64w) congruent to the message prefix mod g. The next
// block N gives F' = F·x^256 + N; lane w's term L_w·x^(64(3-w)+256) is
// replaced by L_w·C_w with C_w ≡ x^(64(3-w)+256) mod g of degree <= 128.
// C_w = x^(129-r)·(x^(319+r-64w) mod g), whose remainder-format words read
// with top degree 128 (word 0: x^128..x^65, word 1: x^64..x^1), so the two
// products land at degrees 191..64 (words 1-2 of F') and 127..0 (words
// 2-3). For r <= 64 word 1 of every constant is zero and is skipped.
//
// Finish. F·x^r ≡ U = sum of L_w·(x^(64(3-w)+r) mod g), with the constants
// in the remainder format (top degree r-1): U has degree <= r+62 and bit p
// of [P0 | P1 << 64] is its coefficient of x^(r+62-p). Its part below x^r,
// bits 63.., is already in the remainder format; the 63 coefficients
// above x^r are clocked through the byte table (8 lookups) from a zero
// register, which adds their x^r multiple reduced mod g. The message bits
// past the last whole block continue through the byte table.
#include "codes/bch.h"

#if SUDOKU_HAS_PCLMUL

#include <immintrin.h>

#include <cassert>

namespace sudoku {

bool Bch::clmul_supported() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return supported;
}

namespace {

__attribute__((target("pclmul,sse2"))) inline __m128i
lane_pair(const Bch::Remainder& a, const Bch::Remainder& b, int word) {
  return _mm_set_epi64x(static_cast<long long>(b[word]), static_cast<long long>(a[word]));
}

// XOR of the four lane products: lanes 0/1 of f01 against k01, 2/3 of f23
// against k23.
__attribute__((target("pclmul,sse2"))) inline __m128i
fold4(__m128i f01, __m128i f23, __m128i k01, __m128i k23) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(f01, k01, 0x00), _mm_clmulepi64_si128(f01, k01, 0x11)),
      _mm_xor_si128(_mm_clmulepi64_si128(f23, k23, 0x00), _mm_clmulepi64_si128(f23, k23, 0x11)));
}

__attribute__((target("sse2"))) inline std::uint64_t lo64(__m128i v) {
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(v));
}

__attribute__((target("sse2"))) inline std::uint64_t hi64(__m128i v) {
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)));
}

}  // namespace

__attribute__((target("pclmul,sse2")))
Bch::Remainder Bch::remainder_clmul(const BitVec& codeword) const {
  assert(codeword.size() == n_);
  assert(clmul_supported());
  const std::size_t blocks = k_ / 256;
  if (blocks == 0) return table_from({}, codeword, 0);
  const Tables& tab = *tab_;
  const bool wide = r_ > 64;  // constants have a second word
  const std::uint64_t* words = codeword.words().data();
  const auto load = [](const std::uint64_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };

  __m128i f01 = load(words);
  __m128i f23 = load(words + 2);
  const __m128i a01 = lane_pair(tab.fold[0], tab.fold[1], 0);
  const __m128i a23 = lane_pair(tab.fold[2], tab.fold[3], 0);
  const __m128i b01 = lane_pair(tab.fold[0], tab.fold[1], 1);
  const __m128i b23 = lane_pair(tab.fold[2], tab.fold[3], 1);
  for (std::size_t blk = 1; blk < blocks; ++blk) {
    const __m128i a = fold4(f01, f23, a01, a23);  // degrees 191..64
    const __m128i b = wide ? fold4(f01, f23, b01, b23) : _mm_setzero_si128();  // 127..0
    f01 = _mm_xor_si128(load(words + 4 * blk), _mm_slli_si128(a, 8));
    f23 = _mm_xor_si128(_mm_xor_si128(load(words + 4 * blk + 2), _mm_srli_si128(a, 8)), b);
  }

  const __m128i p0 = fold4(f01, f23, lane_pair(tab.finish[0], tab.finish[1], 0),
                           lane_pair(tab.finish[2], tab.finish[3], 0));
  const __m128i p1 = wide ? fold4(f01, f23, lane_pair(tab.finish[0], tab.finish[1], 1),
                                  lane_pair(tab.finish[2], tab.finish[3], 1))
                          : _mm_setzero_si128();
  const std::uint64_t u0 = lo64(p0);
  const std::uint64_t u1 = hi64(p0) ^ lo64(p1);
  const std::uint64_t u2 = hi64(p1);
  // U's coefficients of x^(r+62)..x^r are bits 0..62: as a 64-bit message
  // chunk (bit i = x^(63-i) of U / x^r) that is u0 << 1.
  Remainder rem{};
  std::uint64_t high = u0 << 1;
  for (int b = 0; b < 8; ++b, high >>= 8) byte_step(rem, tab.byte_table, high);
  rem[0] ^= (u0 >> 63) | (u1 << 1);
  rem[1] ^= (u1 >> 63) | (u2 << 1);
  return table_from(rem, codeword, 256 * blocks);
}

}  // namespace sudoku

#endif  // SUDOKU_HAS_PCLMUL
