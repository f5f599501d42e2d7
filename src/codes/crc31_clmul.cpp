// PCLMUL CRC-31 folding kernel. Compiled only on x86-64 builds with
// SUDOKU_ENABLE_PCLMUL (the function carries its own target attribute, so
// the rest of the library still builds for the baseline ISA and the
// kernel is gated at runtime by clmul_supported()).
//
// Math (docs/perf.md "CLMUL CRC-31"): BitVec stores the first-transmitted
// message bit at a word's LSB, i.e. each 64-bit word is the *reflected*
// image of a degree-63 polynomial chunk. For reflected operands the
// carry-less multiply obeys
//
//   clmul(refl(A), refl(B)) = refl128(A · B · x)
//
// (the product of two 64-bit reflections occupies bits 0..126 of the
// 128-bit result, i.e. it lands shifted up by one — the extra x). So
// multiplying a lane by x^e modulo g, up to congruence, uses the constant
// refl(x^(e-1) mod g): the fold state F = [hi-degree lane | lo-degree
// lane] advances over one 128-bit chunk as
//
//   F' = clmul(F.hi_deg, refl(x^191 mod g))
//      ^ clmul(F.lo_deg, refl(x^127 mod g)) ^ next_chunk
//
// keeping the invariant F ≡ message-prefix (mod g) with deg(F) ≤ 127.
//
// Barrett finish. With F = H·x^64 + L, the CRC register after the folded
// prefix is R = F·x^31 mod g = (H·x^95 + L·x^31) mod g, in three clmuls:
//
//   U  = H·(x^94 mod g)·x + L·x^31      ≡ F·x^31, deg U ≤ 94
//   q  = floor(floor(U / x^31) · μ / x^63),  μ = floor(x^94 / g)
//   R  = (U + q·g) mod x^31
//
// q is exact: Barrett's estimate equals floor(U / g) whenever
// deg U ≤ deg g + deg μ (here 94 ≤ 31 + 63). In the reflected domain U's
// quotient part floor(U / x^31) is U shifted down by 33, q is the low word
// of its product with refl(μ), and R is read off the top 31 bits of
// U ^ (q·g·x) — reflected, so one 32-bit bit reversal yields the register.
// The scalar tail path then continues from the next word boundary.
#include "codes/crc31.h"

#if SUDOKU_HAS_PCLMUL

#include <immintrin.h>

#include <cassert>

namespace sudoku {

namespace {

std::uint32_t bitrev32(std::uint32_t v) {
  v = ((v >> 1) & 0x55555555u) | ((v & 0x55555555u) << 1);
  v = ((v >> 2) & 0x33333333u) | ((v & 0x33333333u) << 2);
  v = ((v >> 4) & 0x0F0F0F0Fu) | ((v & 0x0F0F0F0Fu) << 4);
  return __builtin_bswap32(v);
}

}  // namespace

bool Crc31::clmul_supported() { return __builtin_cpu_supports("pclmul") != 0; }

__attribute__((target("pclmul,sse2")))
std::uint32_t Crc31::compute_clmul(const BitVec& bits, std::size_t nbits) const {
  assert(nbits <= bits.size());
  assert(clmul_supported());
  const auto words = bits.words();
  const std::size_t nchunks = nbits / 128;
  std::uint32_t reg = 0;
  if (nchunks != 0) {
    // K.lo multiplies the earlier word (higher degrees -> x^192), K.hi the
    // later one (x^128); words[2c] holds message bits 128c..128c+63, whose
    // degrees are the chunk's high half.
    const __m128i K =
        _mm_set_epi64x(static_cast<long long>(clmul_fold_[1]),
                       static_cast<long long>(clmul_fold_[0]));
    __m128i F = _mm_set_epi64x(static_cast<long long>(words[1]),
                               static_cast<long long>(words[0]));
    for (std::size_t c = 1; c < nchunks; ++c) {
      const __m128i next =
          _mm_set_epi64x(static_cast<long long>(words[2 * c + 1]),
                         static_cast<long long>(words[2 * c]));
      const __m128i hi_deg = _mm_clmulepi64_si128(F, K, 0x00);
      const __m128i lo_deg = _mm_clmulepi64_si128(F, K, 0x11);
      F = _mm_xor_si128(_mm_xor_si128(hi_deg, lo_deg), next);
    }
    // B = [x^94 mod g | μ], G = [g | -], all reflected.
    const __m128i B =
        _mm_set_epi64x(static_cast<long long>(clmul_barrett_[1]),
                       static_cast<long long>(clmul_barrett_[0]));
    const __m128i G = _mm_cvtsi64_si128(static_cast<long long>(clmul_barrett_[2]));
    const auto lo64 = [](__m128i v) {
      return static_cast<std::uint64_t>(_mm_cvtsi128_si64(v));
    };
    const std::uint64_t l = lo64(_mm_unpackhi_epi64(F, F));
    // U = H·(x^94 mod g)·x ^ L·x^31; the second term is L shifted up 33.
    const __m128i hk = _mm_clmulepi64_si128(F, B, 0x00);
    const std::uint64_t u_lo = lo64(hk) ^ (l << 33);
    const std::uint64_t u_hi = lo64(_mm_unpackhi_epi64(hk, hk)) ^ (l >> 31);
    const std::uint64_t u1 = (u_lo >> 33) | (u_hi << 31);  // floor(U / x^31)
    const __m128i q = _mm_clmulepi64_si128(
        _mm_cvtsi64_si128(static_cast<long long>(u1)), B, 0x10);
    const __m128i qg = _mm_clmulepi64_si128(q, G, 0x00);
    const std::uint64_t y = u_hi ^ (lo64(_mm_unpackhi_epi64(qg, qg)) << 1);
    reg = bitrev32(static_cast<std::uint32_t>(y >> 32)) & 0x7FFFFFFFu;
    if (nbits == nchunks * 128) return reg;  // no tail (a 512-bit data field)
  }
  return finish_scalar(reg, bits, nchunks * 128, nbits);
}

}  // namespace sudoku

#endif  // SUDOKU_HAS_PCLMUL
