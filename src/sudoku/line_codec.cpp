#include "sudoku/line_codec.h"

#include <bit>
#include <cassert>

namespace sudoku {

LineCodec::LineCodec(int inner_ecc_t) : inner_t_(inner_ecc_t), crc_() {
  assert(inner_ecc_t >= 1 && inner_ecc_t <= 6);
  if (inner_ecc_t == 1) {
    hamming_.emplace(kMessageBits);
  } else {
    bch_.emplace(10, inner_ecc_t, kMessageBits);
  }
}

std::uint32_t LineCodec::ecc_bits() const {
  return hamming_ ? static_cast<std::uint32_t>(hamming_->check_bits())
                  : static_cast<std::uint32_t>(bch_->parity_bits());
}

// The data field is word-aligned (512 = 8 whole words), so encode/extract
// move it as words rather than bit by bit.
static_assert(LineCodec::kDataBits % 64 == 0);

void LineCodec::encode(const BitVec& data, BitVec& stored) const {
  assert(data.size() == kDataBits);
  if (stored.size() != total_bits()) stored.resize(total_bits());
  const auto src = data.words();
  auto dst = stored.words();
  for (std::size_t wi = 0; wi < kDataBits / 64; ++wi) dst[wi] = src[wi];
  // The CRC and check bits are overwritten whole, whatever they held.
  stored.set_bits(kDataBits, kCrcBits, crc_.compute(data, kDataBits));
  if (hamming_) {
    hamming_->encode(stored);
  } else {
    bch_->encode(stored);
  }
}

void LineCodec::extract_data(const BitVec& stored, BitVec& data) const {
  if (data.size() != kDataBits) data.resize(kDataBits);
  const auto src = stored.words();
  auto dst = data.words();
  for (std::size_t wi = 0; wi < kDataBits / 64; ++wi) dst[wi] = src[wi];
}

bool LineCodec::crc_ok(const BitVec& stored) const {
  const std::uint32_t computed = crc_.compute(stored, kDataBits);
  const std::uint32_t held =
      static_cast<std::uint32_t>(stored.get_bits(kDataBits, kCrcBits));
  return computed == held;
}

bool LineCodec::inner_syndrome_clean(const BitVec& stored) const {
  if (hamming_) return hamming_->syndrome(stored) == 0;
  // Zero-syndrome fast path: checking the power sums directly skips the
  // codeword copy and Berlekamp-Massey setup a trial decode would do —
  // clean lines (the overwhelmingly common case at realistic BERs) now
  // cost no allocation at all.
  return bch_->syndromes_zero(stored);
}

bool LineCodec::fully_clean(const BitVec& stored) const {
  return inner_syndrome_clean(stored) && crc_ok(stored);
}

std::uint64_t LineCodec::fully_clean_batch(std::span<const BitVec> stored,
                                           BitPlanes& planes) const {
  assert(!stored.empty() && stored.size() <= BitPlanes::kMaxLines);
  std::uint64_t mask = 0;
  if (!hamming_) {
    for (std::size_t i = 0; i < stored.size(); ++i) {
      if (fully_clean(stored[i])) mask |= std::uint64_t{1} << i;
    }
    return mask;
  }
  planes.reset(total_bits(), stored.size());
  for (std::size_t i = 0; i < stored.size(); ++i) {
    assert(stored[i].size() == total_bits());
    planes.load_line(i, stored[i].words());
  }
  planes.finalize();
  mask = hamming_->batch_syndromes_zero(planes);
  // CRC only for inner-clean lines — the same short-circuit fully_clean
  // takes, so the two paths agree bit for bit.
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    const auto i = static_cast<std::size_t>(std::countr_zero(m));
    if (!crc_ok(stored[i])) mask &= ~(std::uint64_t{1} << i);
  }
  return mask;
}

LineCodec::LineState LineCodec::check_and_correct(BitVec& stored) const {
  if (hamming_) {
    // One syndrome. A zero syndrome leaves only the CRC to decide; a
    // nonzero one names the bit to flip, and flipping it zeroes the
    // syndrome by linearity, so again only the CRC is re-checked. A CRC
    // failure after the flip is an ECC-1 miscorrection: undo it.
    const std::uint32_t syn = hamming_->syndrome(stored);
    if (syn == 0) return crc_ok(stored) ? LineState::kClean : LineState::kUncorrectable;
    const std::size_t bit = hamming_->error_index(syn);
    if (bit == hamming_->codeword_bits()) return LineState::kUncorrectable;
    stored.flip(bit);
    if (crc_ok(stored)) return LineState::kCorrected;
    stored.flip(bit);
    return LineState::kUncorrectable;
  }
  if (fully_clean(stored)) return LineState::kClean;
  // One shot of the inner code, then re-validate everything. Work on a
  // copy so an unsuccessful (mis)correction does not dirty the stored line.
  BitVec trial = stored;
  if (bch_->decode(trial).status == Bch::DecodeStatus::kCorrected && fully_clean(trial)) {
    stored = trial;
    return LineState::kCorrected;
  }
  // Note: a clean inner syndrome with a failing CRC (faults aliasing to
  // syndrome 0) also lands here.
  return LineState::kUncorrectable;
}

}  // namespace sudoku
