// CRC-31 error-detection code (paper §III-A). Each 64-byte cache line
// carries a 31-bit CRC computed over its 512 data bits. The generator is
// g(x) = (x+1)·p(x) with p primitive of degree 30 (found and verified at
// startup), which guarantees:
//   * every odd-weight error pattern is detected (1, 3, 5, 7, ... faults);
//   * any burst of length <= 31 is detected;
//   * undetected patterns occur with probability ~2^-31, matching the
//     misdetection probability the paper assumes for 8+ bit errors.
// The paper cites Koopman's CRC-31 with HD=8 at 512 bits; our construction
// is the closest reproducible equivalent (the exact Koopman polynomial is
// behind a web table) and the analytical models use the paper's stated
// detection properties. See DESIGN.md §4.
//
// Four compute kernels, all returning the identical CRC value (enforced
// by the differential tests in tests/test_codec_kernels.cpp and
// tests/test_batch_codec.cpp):
//   compute()           dispatches to the fastest available kernel (see
//                       below);
//   compute_clmul()     PCLMUL carry-less-multiply folding over 128-bit
//                       chunks with a carry-less Barrett finish — only on
//                       x86-64 CPUs with the pclmulqdq extension;
//   compute_slicing8()  slicing-by-8: one 64-bit message word per step,
//                       12 table lookups, no per-bit access;
//   compute_bytewise()  classic byte-at-a-time table CRC (assembles bytes
//                       from individual bits);
//   compute_bitserial() tableless shift-and-fold oracle, the reference the
//                       fast kernels are verified against.
//
// compute() picks CLMUL when the build and the host CPU support it and
// slicing-by-8 otherwise. The choice can be overridden for tests and
// benches with force_kernel() or the SUDOKU_CRC31_KERNEL environment
// variable (values: auto, bit_serial, byte_table, slicing8, clmul); an
// unknown name, or selecting clmul on a host without it, aborts loudly.
// See docs/perf.md for the kernel layout and docs/API.md for the override.
#pragma once

#include <cstdint>

#include "common/bitvec.h"

namespace sudoku {

// CRC compute-kernel selector for Crc31::force_kernel / the
// SUDOKU_CRC31_KERNEL environment override.
enum class CrcKernel : int {
  kAuto = 0,    // fastest available (clmul if supported, else slicing8)
  kBitSerial,   // definitional oracle
  kByteTable,   // byte-at-a-time table
  kSlicing8,    // slicing-by-8 word kernel
  kClmul,       // PCLMUL 128-bit folding
};

const char* to_string(CrcKernel k);

class Crc31 {
 public:
  static constexpr int kBits = 31;

  // Default-constructed instances share the canonical generator polynomial.
  Crc31();
  explicit Crc31(std::uint64_t generator);  // 32-bit poly, x^31 term set

  std::uint64_t generator() const { return poly_; }

  // CRC over the first `nbits` bits of `bits` (bit i is coefficient of
  // x^(nbits-1-i), i.e. index order = transmission order). Routes to the
  // active kernel — identical value whichever kernel runs.
  std::uint32_t compute(const BitVec& bits, std::size_t nbits) const;

  // CRC over a full bit vector.
  std::uint32_t compute(const BitVec& bits) const { return compute(bits, bits.size()); }

  // Slicing-by-8 word kernel (the portable fast path).
  std::uint32_t compute_slicing8(const BitVec& bits, std::size_t nbits) const;

  // PCLMUL folding kernel. Only callable when clmul_supported(); compiled
  // to an abort stub otherwise.
  std::uint32_t compute_clmul(const BitVec& bits, std::size_t nbits) const;

  // Byte-at-a-time table kernel (the pre-slicing hot path, kept so the
  // throughput bench can track the win and as a second differential point).
  std::uint32_t compute_bytewise(const BitVec& bits, std::size_t nbits) const;

  // Tableless bit-serial oracle: the definitional shift-and-fold loop.
  std::uint32_t compute_bitserial(const BitVec& bits, std::size_t nbits) const;

  // True iff the build carries the PCLMUL kernel and the host CPU has it.
  static bool clmul_supported();

  // Kernel override hook (process-wide). kAuto restores dispatch to the
  // fastest available kernel; selecting kClmul without clmul_supported()
  // aborts. Used by the dispatch-path tests and the throughput bench.
  static void force_kernel(CrcKernel k);

  // The kernel compute() currently routes to (never kAuto). Resolves the
  // SUDOKU_CRC31_KERNEL environment variable on first use.
  static CrcKernel active_kernel();

  // Parse a kernel name ("auto", "bit_serial", "byte_table", "slicing8",
  // "clmul"); aborts with a loud message on anything else (death-tested —
  // a typo in SUDOKU_CRC31_KERNEL must not silently change kernels).
  static CrcKernel kernel_from_name(const char* name);

  // The canonical generator used across the library (computed once).
  static std::uint64_t canonical_generator();

 private:
  std::uint64_t poly_;               // full generator incl. x^31 term
  std::uint32_t table_[256];         // byte-at-a-time table (poly w/o top bit)
  // Slicing-by-8 tables. A message word w contributes 8 bytes; byte lane j
  // (bits 8j..8j+7 of w, transmitted LSB-of-lane first) indexes
  // slice_[7-j] directly — the bit-reversal from BitVec bit order to CRC
  // transmission order is folded into the tables at construction.
  std::uint32_t slice_[8][256];
  // Register advance over 8 zero bytes, decomposed into the four register
  // byte lanes: A^8(reg) = fold_[0][reg&FF] ^ ... ^ fold_[3][reg>>24].
  std::uint32_t fold_[4][256];

  // CLMUL constants, each bit-reversed into the reflected domain BitVec
  // words live in (first-transmitted bit at the LSB); see compute_clmul.
  // Folding: bitrev64(x^191 mod g), bitrev64(x^127 mod g). Barrett finish:
  // bitrev64(x^94 mod g), bitrev64(floor(x^94 / g)), bitrev64(g).
  std::uint64_t clmul_fold_[2];
  std::uint64_t clmul_barrett_[3];

  void build_table();
  void build_slices();

  // One byte-step of the CRC register with a zero message byte.
  std::uint32_t advance8(std::uint32_t reg) const {
    return ((reg << 8) & 0x7FFFFFFFu) ^ table_[(reg >> 23) & 0xFFu];
  }

  // One slicing-by-8 step: fold message word `w` (64 bits, BitVec order)
  // into the register.
  std::uint32_t word_step(std::uint32_t reg, std::uint64_t w) const {
    return fold_[0][reg & 0xFFu] ^ fold_[1][(reg >> 8) & 0xFFu] ^
           fold_[2][(reg >> 16) & 0xFFu] ^ fold_[3][(reg >> 24) & 0xFFu] ^
           slice_[7][w & 0xFFu] ^ slice_[6][(w >> 8) & 0xFFu] ^
           slice_[5][(w >> 16) & 0xFFu] ^ slice_[4][(w >> 24) & 0xFFu] ^
           slice_[3][(w >> 32) & 0xFFu] ^ slice_[2][(w >> 40) & 0xFFu] ^
           slice_[1][(w >> 48) & 0xFFu] ^ slice_[0][(w >> 56) & 0xFFu];
  }

  // Finish a computation whose register already covers bits [0, from):
  // remaining whole words through word_step, then byte table, then
  // bit-serial. `from` must be word-aligned.
  std::uint32_t finish_scalar(std::uint32_t reg, const BitVec& bits,
                              std::size_t from, std::size_t nbits) const;
};

}  // namespace sudoku
