// Per-line code layout (paper §III-E):
//
//   stored line = [ data 512 | CRC-31(data) | inner ECC over (data+CRC) ]
//
// CRC over the data, ECC over data+CRC: a single-bit fault anywhere in
// data or CRC is correctable by the inner code, and re-checking the CRC
// after an ECC correction exposes ECC miscorrections on multi-fault lines.
//
// The inner code is ECC-1 (Hamming, 10 check bits — the paper's default)
// or, per the §VII-G enhancement, a BCH ECC-t with 10·t check bits. With
// ECC-t, Sequential Data Resurrection can resurrect lines with t+1 faults
// (flip one known-bad position, let the inner code fix the remaining t).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/bitvec.h"
#include "codes/batch_codec.h"
#include "codes/bch.h"
#include "codes/crc31.h"
#include "codes/hamming.h"

namespace sudoku {

class LineCodec {
 public:
  static constexpr std::uint32_t kDataBits = 512;
  static constexpr std::uint32_t kCrcBits = Crc31::kBits;          // 31
  static constexpr std::uint32_t kMessageBits = kDataBits + kCrcBits;  // 543

  // `inner_ecc_t` = correction strength of the per-line inner code.
  explicit LineCodec(int inner_ecc_t = 1);

  int inner_ecc_t() const { return inner_t_; }
  std::uint32_t ecc_bits() const;
  std::uint32_t total_bits() const { return kMessageBits + ecc_bits(); }

  // Encode 512 data bits into a full stored line. The two-argument forms
  // overwrite a caller-owned BitVec (resized if needed), not allocating one.
  void encode(const BitVec& data, BitVec& stored) const;
  BitVec encode(const BitVec& data) const { BitVec s; encode(data, s); return s; }

  // Extract the data field.
  void extract_data(const BitVec& stored, BitVec& data) const;
  BitVec extract_data(const BitVec& stored) const { BitVec d; extract_data(stored, d); return d; }

  // True if the stored CRC matches the CRC recomputed over the data field
  // (paper: the 1-cycle syndrome check on every read).
  bool crc_ok(const BitVec& stored) const;

  // True if CRC matches AND the inner-code syndrome is clean (full
  // consistency, used by the scrubber so faults in ECC bits don't linger).
  bool fully_clean(const BitVec& stored) const;

  // Batched fully_clean over up to BitPlanes::kMaxLines stored lines: bit
  // k of the result is set iff fully_clean(stored[k]). With the ECC-1
  // inner code the Hamming syndromes run bit-sliced across the whole batch
  // (the BatchCodec engine); the CRC — already word-at-a-time or CLMUL —
  // runs per line, and only for lines whose inner syndromes are clean,
  // mirroring fully_clean's evaluation order. `planes` is caller-owned
  // scratch so a sweep reuses the transpose buffers across batches. A BCH
  // inner code checks each line with fully_clean (one remainder per line)
  // and leaves `planes` untouched.
  std::uint64_t fully_clean_batch(std::span<const BitVec> stored,
                                  BitPlanes& planes) const;

  enum class LineState {
    kClean,           // no inconsistency observed
    kCorrected,       // inner code fixed <= t bits, CRC+ECC re-verified
    kUncorrectable,   // beyond the inner code: needs RAID/SDR repair
  };

  // The per-line fast path: if inconsistent, attempt inner-code correction
  // and re-validate with CRC + ECC. Leaves the line unmodified when it
  // cannot be repaired. kClean and kCorrected both leave a line that
  // fully_clean() accepts. For ECC-1 this computes one syndrome per call.
  LineState check_and_correct(BitVec& stored) const;

  const Crc31& crc() const { return crc_; }

 private:
  int inner_t_;
  Crc31 crc_;
  std::optional<Hamming> hamming_;  // inner_t == 1
  std::optional<Bch> bch_;          // inner_t >= 2

  bool inner_syndrome_clean(const BitVec& stored) const;
};

}  // namespace sudoku
