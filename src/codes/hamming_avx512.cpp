// AVX-512 Hamming syndrome kernel (docs/perf.md "Hamming syndrome"). Only
// compiled for x86-64 targets; the function carries its own target
// attribute, so the rest of the library still builds for the baseline ISA,
// and Hamming picks it at runtime only when avx512_supported().
//
// The transposed mask table holds one 16-lane row per backing word (lane j
// = the word's bits whose Hamming position has bit j set). Each word is
// broadcast to all lanes and folded into two zmm accumulators with one
// ternlog each (acc ^= word & row); after the last word, lane j holds the
// XOR of every masked word, so its popcount parity is syndrome bit j.
// VPOPCNTQ counts all 16 lanes and a test against 1 packs the parities
// into two 8-bit masks: the syndrome, with zero in every lane past r.
#include "codes/hamming.h"

#if SUDOKU_HAS_AVX512

#include <immintrin.h>

#include <cassert>

namespace sudoku {

bool Hamming::avx512_supported() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512vpopcntdq") != 0;
  }();
  return supported;
}

__attribute__((target("avx512f,avx512vpopcntdq")))
std::uint32_t Hamming::syndrome_avx512(const BitVec& codeword) const {
  assert(codeword.size() == n_);
  assert(avx512_supported());
  static_assert(kMaskLanes == 16, "two zmm accumulators of 8 lanes");
  const auto words = codeword.words();
  const std::uint64_t* mask = masks_.data();
  __m512i lo = _mm512_setzero_si512();  // check bits 0..7
  __m512i hi = _mm512_setzero_si512();  // check bits 8..15
  for (std::size_t wi = 0; wi < words_per_cw_; ++wi, mask += kMaskLanes) {
    const __m512i w = _mm512_set1_epi64(static_cast<long long>(words[wi]));
    // 0x78 = A ^ (B & C) for the operands (acc, word, row).
    lo = _mm512_ternarylogic_epi64(lo, w, _mm512_loadu_si512(mask), 0x78);
    hi = _mm512_ternarylogic_epi64(hi, w, _mm512_loadu_si512(mask + 8), 0x78);
  }
  const __m512i one = _mm512_set1_epi64(1);
  const std::uint32_t syn_lo = _mm512_test_epi64_mask(_mm512_popcnt_epi64(lo), one);
  const std::uint32_t syn_hi = _mm512_test_epi64_mask(_mm512_popcnt_epi64(hi), one);
  return syn_lo | (syn_hi << 8);
}

}  // namespace sudoku

#endif  // SUDOKU_HAS_AVX512
