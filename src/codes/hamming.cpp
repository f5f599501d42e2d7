#include "codes/hamming.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace sudoku {

namespace {
constexpr bool is_pow2(std::uint32_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

Hamming::Hamming(std::size_t message_bits) : k_(message_bits) {
  // Smallest r with 2^r >= k + r + 1.
  std::size_t r = 1;
  while ((std::size_t{1} << r) < k_ + r + 1) ++r;
  if (r > kMaskLanes) {
    throw std::invalid_argument("Hamming: " + std::to_string(message_bits) +
                                " message bits need more than 16 check bits");
  }
  r_ = r;
  n_ = k_ + r_;

  index_to_pos_.assign(n_, 0);
  pos_to_index_plus1_.assign(n_ + 1, 0);

  // Message bits occupy non-power-of-two positions in ascending order;
  // check bits occupy positions 1, 2, 4, ... in ascending order, stored
  // after the message in index space.
  std::uint32_t pos = 1;
  for (std::size_t idx = 0; idx < k_; ++idx) {
    while (is_pow2(pos)) ++pos;
    index_to_pos_[idx] = pos;
    pos_to_index_plus1_[pos] = static_cast<std::uint32_t>(idx + 1);
    ++pos;
  }
  for (std::size_t j = 0; j < r_; ++j) {
    const std::uint32_t p = std::uint32_t{1} << j;
    assert(p <= n_);
    index_to_pos_[k_ + j] = p;
    pos_to_index_plus1_[p] = static_cast<std::uint32_t>(k_ + j + 1);
  }

  // Parity masks: syndrome bit j = XOR over set bits of (position bit j),
  // i.e. the parity of the codeword ANDed with the indices whose position
  // carries bit j. One AND + popcount per (check bit, word) replaces a
  // table lookup per set bit (~n/2 of them on random data).
  words_per_cw_ = (n_ + 63) / 64;
  masks_.assign(words_per_cw_ * kMaskLanes, 0);
  for (std::size_t idx = 0; idx < n_; ++idx) {
    const std::uint32_t pos = index_to_pos_[idx];
    for (std::size_t j = 0; j < r_; ++j) {
      if ((pos >> j) & 1u) {
        masks_[(idx >> 6) * kMaskLanes + j] |= std::uint64_t{1} << (idx & 63);
      }
    }
  }
  avx512_ = avx512_supported();

  // Bit-slice program for the batch kernels: position i feeds the
  // syndrome bits set in its Hamming position (independent of the parity
  // masks above, so the differential tests exercise two distinct builds).
  slice_off_.assign(n_ + 1, 0);
  slice_idx_.reserve(n_ * r_ / 2);
  for (std::size_t idx = 0; idx < n_; ++idx) {
    const std::uint32_t pos = index_to_pos_[idx];
    for (std::size_t j = 0; j < r_; ++j) {
      if ((pos >> j) & 1u) slice_idx_.push_back(static_cast<std::uint16_t>(j));
    }
    slice_off_[idx + 1] = static_cast<std::uint32_t>(slice_idx_.size());
  }
}

void Hamming::accumulate_planes(const BitPlanes& planes, std::uint64_t* acc) const {
  assert(planes.nbits() == n_);
  std::fill(acc, acc + r_, 0);
  const std::uint64_t* plane = planes.planes().data();
  const std::uint16_t* prog = slice_idx_.data();
  for (std::size_t i = 0; i < n_; ++i) {
    const std::uint64_t p = plane[i];
    const std::uint16_t* end = slice_idx_.data() + slice_off_[i + 1];
    if (p == 0) {
      prog = end;
      continue;
    }
    for (; prog != end; ++prog) acc[*prog] ^= p;
  }
}

void Hamming::batch_syndromes(const BitPlanes& planes, std::uint32_t* out) const {
  std::uint64_t acc[kMaskLanes];  // r_ <= kMaskLanes, checked at construction
  accumulate_planes(planes, acc);
  for (std::size_t line = 0; line < planes.count(); ++line) {
    std::uint32_t v = 0;
    for (std::size_t j = 0; j < r_; ++j) {
      v |= static_cast<std::uint32_t>((acc[j] >> line) & 1u) << j;
    }
    out[line] = v;
  }
}

std::uint64_t Hamming::batch_syndromes_zero(const BitPlanes& planes) const {
  std::uint64_t acc[kMaskLanes];
  accumulate_planes(planes, acc);
  std::uint64_t dirty = 0;
  for (std::size_t j = 0; j < r_; ++j) dirty |= acc[j];
  return ~dirty & planes.lane_mask();
}

void Hamming::encode(BitVec& codeword) const {
  assert(codeword.size() == n_);
  // Zero check bits, then set each so that the syndrome becomes zero. With
  // the check bits cleared the word-parallel syndrome sees only message
  // bits, so it equals the check-bit values to store.
  for (std::size_t j = 0; j < r_; ++j) codeword.reset(k_ + j);
  const std::uint32_t syn = syndrome(codeword);
  for (std::size_t j = 0; j < r_; ++j) {
    if ((syn >> j) & 1u) codeword.set(k_ + j);
  }
}

std::uint32_t Hamming::syndrome_portable(const BitVec& codeword) const {
  assert(codeword.size() == n_);
  const auto words = codeword.words();
  const std::uint64_t* mask = masks_.data();
  // parity(popcount(a) + popcount(b)) == parity(popcount(a ^ b)), so the
  // per-word ANDs are XOR-reduced before a single popcount per check bit.
  std::uint64_t acc[kMaskLanes] = {};
  for (std::size_t wi = 0; wi < words_per_cw_; ++wi, mask += kMaskLanes) {
    const std::uint64_t w = words[wi];
    // Unrolled, so that acc[] lives in registers.
#pragma GCC unroll 16
    for (std::size_t j = 0; j < kMaskLanes; ++j) acc[j] ^= w & mask[j];
  }
  std::uint32_t syn = 0;
  for (std::size_t j = 0; j < r_; ++j) {
    syn |= (static_cast<std::uint32_t>(std::popcount(acc[j])) & 1u) << j;
  }
  return syn;
}

#if !SUDOKU_HAS_AVX512
// Targets other than x86-64 carry no AVX-512 kernel: it is never selected,
// and a direct call is a programming error.
bool Hamming::avx512_supported() { return false; }

std::uint32_t Hamming::syndrome_avx512(const BitVec&) const {
  std::fprintf(stderr, "Hamming: syndrome_avx512 called in a build without it\n");
  std::abort();
}
#endif

std::uint32_t Hamming::syndrome_reference(const BitVec& codeword) const {
  assert(codeword.size() == n_);
  std::uint32_t syn = 0;
  // Walk words and accumulate positions of set bits.
  const auto words = codeword.words();
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    std::uint64_t w = words[wi];
    while (w != 0) {
      const std::size_t idx = wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
      syn ^= index_to_pos_[idx];
      w &= w - 1;
    }
  }
  return syn;
}

Hamming::DecodeStatus Hamming::decode(BitVec& codeword) const {
  const std::uint32_t syn = syndrome(codeword);
  if (syn == 0) return DecodeStatus::kClean;
  const std::size_t idx = error_index(syn);
  if (idx == n_) return DecodeStatus::kUncorrectable;
  codeword.flip(idx);
  return DecodeStatus::kCorrected;
}

}  // namespace sudoku
