#include "common/bitvec.h"

#include <bit>
#include <cassert>

namespace sudoku {

void BitVec::clear() {
  for (auto& w : words_) w = 0;
}

void BitVec::resize(std::size_t nbits) {
  nbits_ = nbits;
  words_.resize((nbits + 63) / 64, 0);
  mask_tail();
}

void BitVec::mask_tail() {
  const std::size_t rem = nbits_ & 63;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << rem) - 1;
  }
}

BitVec& BitVec::operator^=(const BitVec& o) {
  assert(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= o.words_[i];
  return *this;
}

bool BitVec::any() const {
  for (auto w : words_)
    if (w != 0) return true;
  return false;
}

std::size_t BitVec::popcount() const {
  std::size_t n = 0;
  for (auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

void BitVec::set_positions(std::vector<std::size_t>& out, std::size_t limit) const {
  out.clear();
  for (std::size_t wi = 0; wi < words_.size(); ++wi) {
    std::uint64_t w = words_[wi];
    while (w != 0) {
      const int b = std::countr_zero(w);
      out.push_back(wi * 64 + static_cast<std::size_t>(b));
      if (limit != 0 && out.size() >= limit) return;
      w &= w - 1;
    }
  }
}

std::uint64_t BitVec::get_bits(std::size_t pos, unsigned nbits) const {
  assert(nbits >= 1 && nbits <= 64 && pos + nbits <= nbits_);
  const std::size_t wi = pos >> 6;
  const unsigned off = static_cast<unsigned>(pos & 63);
  std::uint64_t v = words_[wi] >> off;
  if (off != 0 && off + nbits > 64) v |= words_[wi + 1] << (64 - off);
  if (nbits < 64) v &= (std::uint64_t{1} << nbits) - 1;
  return v;
}

void BitVec::set_bits(std::size_t pos, unsigned nbits, std::uint64_t value) {
  assert(nbits >= 1 && nbits <= 64 && pos + nbits <= nbits_);
  const std::uint64_t mask =
      nbits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << nbits) - 1;
  value &= mask;
  const std::size_t wi = pos >> 6;
  const unsigned off = static_cast<unsigned>(pos & 63);
  words_[wi] = (words_[wi] & ~(mask << off)) | (value << off);
  if (off != 0 && off + nbits > 64) {
    const unsigned spill = off + nbits - 64;
    const std::uint64_t hi_mask = (std::uint64_t{1} << spill) - 1;
    words_[wi + 1] = (words_[wi + 1] & ~hi_mask) | (value >> (64 - off));
  }
}

std::size_t BitVec::distance(const BitVec& o) const {
  assert(nbits_ == o.nbits_);
  std::size_t n = 0;
  for (std::size_t i = 0; i < words_.size(); ++i)
    n += static_cast<std::size_t>(std::popcount(words_[i] ^ o.words_[i]));
  return n;
}

std::string BitVec::to_string() const {
  std::string s;
  s.reserve(nbits_);
  for (std::size_t i = 0; i < nbits_; ++i) s.push_back(test(i) ? '1' : '0');
  return s;
}

}  // namespace sudoku
