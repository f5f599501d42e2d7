// GF(2^m) arithmetic with log/antilog tables, m <= 16. Substrate for the
// BCH ECC-t codec (the paper's ECC-2..ECC-6 baselines and Hi-ECC) and for
// the RAID-6 Q parity (GF(2^8) Reed-Solomon style coefficients).
#pragma once

#include <cstdint>
#include <vector>

namespace sudoku {

class GF2m {
 public:
  // `prim_poly` is the full primitive polynomial including the x^m term;
  // pass 0 to use a built-in primitive polynomial for that m.
  explicit GF2m(int m, std::uint32_t prim_poly = 0);

  int m() const { return m_; }
  std::uint32_t size() const { return q_; }        // 2^m
  std::uint32_t order() const { return q_ - 1; }   // multiplicative order

  std::uint32_t add(std::uint32_t a, std::uint32_t b) const { return a ^ b; }

  // Both logs are < order(), so their sum (or difference plus order())
  // is < 2·order() and one conditional subtract reduces it — no divide.
  std::uint32_t mul(std::uint32_t a, std::uint32_t b) const {
    if (a == 0 || b == 0) return 0;
    return alog_[reduce(log_[a] + log_[b])];
  }

  std::uint32_t div(std::uint32_t a, std::uint32_t b) const {
    // b must be nonzero.
    if (a == 0) return 0;
    return alog_[reduce(log_[a] + order() - log_[b])];
  }

  std::uint32_t inv(std::uint32_t a) const {
    return alog_[(order() - log_[a]) % order()];
  }

  std::uint32_t pow(std::uint32_t a, std::uint64_t e) const {
    if (a == 0) return e == 0 ? 1 : 0;
    return alog_[(static_cast<std::uint64_t>(log_[a]) * (e % order())) % order()];
  }

  // alpha^e for the primitive element alpha.
  std::uint32_t alpha_pow(std::uint64_t e) const { return alog_[e % order()]; }

  std::uint32_t log(std::uint32_t a) const { return log_[a]; }  // a != 0

  // alpha^e without the reduction: e <= order().
  std::uint32_t antilog(std::uint32_t e) const { return alog_[e]; }

 private:
  std::uint32_t reduce(std::uint32_t e) const {
    return e >= order() ? e - order() : e;
  }

  int m_;
  std::uint32_t q_;
  std::vector<std::uint32_t> log_;
  std::vector<std::uint32_t> alog_;
};

}  // namespace sudoku
