#include "codes/crc31.h"

#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "codes/gf2poly.h"

namespace sudoku {

namespace {

std::uint8_t bitrev8(std::uint8_t b) {
  b = static_cast<std::uint8_t>(((b & 0xF0u) >> 4) | ((b & 0x0Fu) << 4));
  b = static_cast<std::uint8_t>(((b & 0xCCu) >> 2) | ((b & 0x33u) << 2));
  b = static_cast<std::uint8_t>(((b & 0xAAu) >> 1) | ((b & 0x55u) << 1));
  return b;
}

std::uint64_t bitrev64(std::uint64_t v) {
  std::uint64_t r = 0;
  for (int i = 0; i < 8; ++i) {
    r = (r << 8) | bitrev8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  return r;
}

// Active kernel, process-wide. -1 = not yet resolved (first compute() or
// active_kernel() call reads SUDOKU_CRC31_KERNEL and picks the default).
std::atomic<int> g_crc_kernel{-1};

}  // namespace

const char* to_string(CrcKernel k) {
  switch (k) {
    case CrcKernel::kAuto: return "auto";
    case CrcKernel::kBitSerial: return "bit_serial";
    case CrcKernel::kByteTable: return "byte_table";
    case CrcKernel::kSlicing8: return "slicing8";
    case CrcKernel::kClmul: return "clmul";
  }
  return "?";
}

CrcKernel Crc31::kernel_from_name(const char* name) {
  if (name != nullptr) {
    for (const auto k : {CrcKernel::kAuto, CrcKernel::kBitSerial,
                         CrcKernel::kByteTable, CrcKernel::kSlicing8,
                         CrcKernel::kClmul}) {
      if (std::strcmp(name, to_string(k)) == 0) return k;
    }
  }
  // A typo must not silently fall back to a different kernel: the bench
  // records and the dispatch tests both depend on getting exactly the
  // kernel they named.
  std::fprintf(stderr,
               "Crc31: unknown CRC-31 kernel '%s' (valid: auto, bit_serial, "
               "byte_table, slicing8, clmul)\n",
               name == nullptr ? "(null)" : name);
  std::abort();
}

void Crc31::force_kernel(CrcKernel k) {
  if (k == CrcKernel::kAuto) {
    k = clmul_supported() ? CrcKernel::kClmul : CrcKernel::kSlicing8;
  } else if (k == CrcKernel::kClmul && !clmul_supported()) {
    std::fprintf(stderr,
                 "Crc31: clmul kernel requested but not available on this "
                 "build/CPU\n");
    std::abort();
  }
  g_crc_kernel.store(static_cast<int>(k), std::memory_order_relaxed);
}

CrcKernel Crc31::active_kernel() {
  int k = g_crc_kernel.load(std::memory_order_relaxed);
  if (k < 0) {
    // First use: honour the environment override, else pick the fastest.
    // Concurrent first calls race benignly — both resolve the same value.
    force_kernel(kernel_from_name(std::getenv("SUDOKU_CRC31_KERNEL") != nullptr
                                      ? std::getenv("SUDOKU_CRC31_KERNEL")
                                      : "auto"));
    k = g_crc_kernel.load(std::memory_order_relaxed);
  }
  return static_cast<CrcKernel>(k);
}

std::uint64_t Crc31::canonical_generator() {
  // (x+1) * (smallest primitive polynomial of degree 30). Computed once;
  // the search is a few milliseconds. Verified primitive in tests.
  static const std::uint64_t g = [] {
    const std::uint64_t p30 = gf2::find_primitive(30);
    return gf2::mul(p30, 0b11);  // multiply by (x + 1)
  }();
  return g;
}

Crc31::Crc31() : poly_(canonical_generator()) {
  build_table();
  build_slices();
}

Crc31::Crc31(std::uint64_t generator) : poly_(generator) {
  assert(gf2::degree(generator) == kBits);
  build_table();
  build_slices();
}

void Crc31::build_table() {
  // MSB-first table over the low 31 bits of the generator, operating in a
  // 32-bit register whose top bit (bit 31) is the "about to shift out" slot.
  const std::uint32_t low = static_cast<std::uint32_t>(poly_ & 0x7FFFFFFFu);
  for (std::uint32_t byte = 0; byte < 256; ++byte) {
    // Place the byte at the top of the 31-bit register.
    std::uint32_t reg = byte << 23;
    for (int i = 0; i < 8; ++i) {
      const bool top = (reg >> 30) & 1u;
      reg = (reg << 1) & 0x7FFFFFFFu;
      if (top) reg ^= low;
    }
    table_[byte] = reg;
  }
}

void Crc31::build_slices() {
  // The byte step is affine-linear over GF(2): with A(reg) = advance8(reg)
  // and T[] the byte table, step(reg, b) = A(reg) ^ T[b]. Eight steps give
  //   reg' = A^8(reg) ^ A^7(T[b0]) ^ A^6(T[b1]) ^ ... ^ T[b7]
  // so slice k holds A^k(T[.]) and a word costs 8 lookups plus 4 more to
  // advance the register. BitVec stores the first-transmitted bit of each
  // byte lane in the lane's LSB while the CRC consumes it MSB-first; the
  // bit reversal is folded into the slice index.
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t v = table_[bitrev8(static_cast<std::uint8_t>(b))];
    slice_[0][b] = v;
    for (int k = 1; k < 8; ++k) {
      v = advance8(v);
      slice_[k][b] = v;
    }
  }
  // A^8 is linear in the register; decompose it into the four byte lanes.
  for (std::uint32_t b = 0; b < 256; ++b) {
    for (int j = 0; j < 4; ++j) {
      std::uint32_t v = (b << (8 * j)) & 0x7FFFFFFFu;
      for (int s = 0; s < 8; ++s) v = advance8(v);
      fold_[j][b] = v;
    }
  }
  // CLMUL folding constants (always derived — a few microseconds — so the
  // kernel can be force-selected at any time). With BitVec words in
  // reflected bit order, clmul(refl(A), refl(B)) = refl(A·B·x), so to
  // multiply a lane by x^e (mod-congruent) the constant must be
  // refl(x^(e-1) mod g): e = 192 advances the high-degree lane of a
  // 128-bit state over one 128-bit chunk, e = 128 the low-degree lane.
  clmul_fold_[0] = bitrev64(gf2::pow_x_mod(191, poly_));
  clmul_fold_[1] = bitrev64(gf2::pow_x_mod(127, poly_));
  // Barrett finish (compute_clmul): x^94 mod g folds the state's high word
  // down to degree <= 94, floor(x^94 / g) (degree 63) estimates the
  // quotient of that, and g itself turns the quotient into the remainder.
  clmul_barrett_[0] = bitrev64(gf2::pow_x_mod(94, poly_));
  clmul_barrett_[1] = bitrev64(gf2::pow_x_div(94, poly_));
  clmul_barrett_[2] = bitrev64(poly_);
}

std::uint32_t Crc31::compute(const BitVec& bits, std::size_t nbits) const {
  switch (active_kernel()) {
    case CrcKernel::kBitSerial: return compute_bitserial(bits, nbits);
    case CrcKernel::kByteTable: return compute_bytewise(bits, nbits);
    case CrcKernel::kClmul: return compute_clmul(bits, nbits);
    default: return compute_slicing8(bits, nbits);
  }
}

std::uint32_t Crc31::finish_scalar(std::uint32_t reg, const BitVec& bits,
                                   std::size_t from, std::size_t nbits) const {
  assert(from % 64 == 0 && from <= nbits);
  // Bulk: one 64-bit message word per step, straight off the backing words.
  const std::size_t whole_words = nbits / 64;
  const auto words = bits.words();
  for (std::size_t wi = from / 64; wi < whole_words; ++wi) {
    reg = word_step(reg, words[wi]);
  }
  std::size_t i = whole_words * 64;
  // Tail: whole bytes through the byte table, then bit-serial.
  const std::size_t whole_bytes = nbits / 8;
  for (std::size_t b = i / 8; b < whole_bytes; ++b) {
    std::uint32_t byte = 0;
    for (int k = 0; k < 8; ++k) byte = (byte << 1) | (bits.test(i + k) ? 1u : 0u);
    reg = ((reg << 8) & 0x7FFFFFFFu) ^ table_[((reg >> 23) ^ byte) & 0xFFu];
    i += 8;
  }
  const std::uint32_t low = static_cast<std::uint32_t>(poly_ & 0x7FFFFFFFu);
  for (; i < nbits; ++i) {
    const bool fold = (((reg >> 30) & 1u) ^ (bits.test(i) ? 1u : 0u)) != 0;
    reg = (reg << 1) & 0x7FFFFFFFu;
    if (fold) reg ^= low;
  }
  return reg;
}

std::uint32_t Crc31::compute_slicing8(const BitVec& bits, std::size_t nbits) const {
  assert(nbits <= bits.size());
  return finish_scalar(0, bits, 0, nbits);
}

std::uint32_t Crc31::compute_bytewise(const BitVec& bits, std::size_t nbits) const {
  assert(nbits <= bits.size());
  std::uint32_t reg = 0;
  std::size_t i = 0;
  // Bulk: process whole bytes through the table.
  const std::size_t whole_bytes = nbits / 8;
  for (std::size_t b = 0; b < whole_bytes; ++b) {
    std::uint32_t byte = 0;
    for (int k = 0; k < 8; ++k) byte = (byte << 1) | (bits.test(i + k) ? 1u : 0u);
    reg = ((reg << 8) & 0x7FFFFFFFu) ^ table_[((reg >> 23) ^ byte) & 0xFFu];
    i += 8;
  }
  // Tail bits, bit-serial (non-augmented MSB-first, same recurrence the
  // byte table implements: fold the message bit into the top of the
  // register before shifting).
  const std::uint32_t low = static_cast<std::uint32_t>(poly_ & 0x7FFFFFFFu);
  for (; i < nbits; ++i) {
    const bool fold = (((reg >> 30) & 1u) ^ (bits.test(i) ? 1u : 0u)) != 0;
    reg = (reg << 1) & 0x7FFFFFFFu;
    if (fold) reg ^= low;
  }
  return reg;
}

#if !SUDOKU_HAS_PCLMUL
// Builds without the PCLMUL translation unit (non-x86-64 targets or
// -DSUDOKU_ENABLE_PCLMUL=OFF): the kernel is never selectable, and a
// direct call is a programming error that must not silently return a
// different kernel's result.
bool Crc31::clmul_supported() { return false; }

std::uint32_t Crc31::compute_clmul(const BitVec&, std::size_t) const {
  std::fprintf(stderr, "Crc31: compute_clmul called in a build without PCLMUL support\n");
  std::abort();
}
#endif

std::uint32_t Crc31::compute_bitserial(const BitVec& bits, std::size_t nbits) const {
  assert(nbits <= bits.size());
  const std::uint32_t low = static_cast<std::uint32_t>(poly_ & 0x7FFFFFFFu);
  std::uint32_t reg = 0;
  for (std::size_t i = 0; i < nbits; ++i) {
    const bool fold = (((reg >> 30) & 1u) ^ (bits.test(i) ? 1u : 0u)) != 0;
    reg = (reg << 1) & 0x7FFFFFFFu;
    if (fold) reg ^= low;
  }
  return reg;
}

}  // namespace sudoku
