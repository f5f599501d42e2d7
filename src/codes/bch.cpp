#include "codes/bch.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace sudoku {

namespace {

// t·m <= kMaxSyndromeWords with m >= 3 bounds t, and with it every
// per-decode array below (BM's locators never exceed 2t + 1 entries).
constexpr int kMaxT = static_cast<int>(Bch::kMaxSyndromeWords) / 3;

// Validates the constructor arguments that can be checked before the
// field is built; returns m for the member initializer.
int checked_field_order(int m, int t) {
  if (t < 1) {
    throw std::invalid_argument("Bch: t must be >= 1, got " + std::to_string(t));
  }
  if (m < 3 || m > 16) {
    throw std::invalid_argument("Bch: m must be in [3, 16], got " + std::to_string(m));
  }
  const std::size_t tm = static_cast<std::size_t>(t) * static_cast<std::size_t>(m);
  if (tm > Bch::kMaxSyndromeWords) {
    throw std::invalid_argument(
        "Bch: t·m = " + std::to_string(tm) + " exceeds the " +
        std::to_string(Bch::kMaxSyndromeWords) + "-bit remainder");
  }
  return m;
}

// Multiply polynomial (coeffs in GF(2^m), index = degree) by (x + root).
void mul_by_linear(std::vector<std::uint32_t>& poly, std::uint32_t root, const GF2m& f) {
  poly.push_back(0);
  for (std::size_t d = poly.size() - 1; d > 0; --d) {
    poly[d] = f.add(poly[d - 1], f.mul(poly[d], root));
  }
  poly[0] = f.mul(poly[0], root);
}

// The roots of the generator: the union of the cyclotomic cosets
// {i, 2i, 4i, ...} mod `order` of i = 1..2t, coset by coset.
std::vector<std::uint32_t> generator_roots(std::uint32_t order, int t) {
  std::vector<bool> covered(order, false);
  std::vector<std::uint32_t> roots;
  for (std::uint32_t i = 1; i <= static_cast<std::uint32_t>(2 * t); ++i) {
    if (covered[i % order]) continue;
    std::uint32_t j = i % order;
    do {
      covered[j] = true;
      roots.push_back(j);
      j = static_cast<std::uint32_t>((2ull * j) % order);
    } while (j != i % order);
  }
  return roots;
}

// One LFSR clock of the reflected remainder: the leaving coefficient
// x^(r-1) sits in bit 0, and `gen` is g(x) - x^r reflected.
void clock_bit(Bch::Remainder& rem, std::uint64_t bit, const Bch::Remainder& gen) {
  const bool fold = ((rem[0] ^ bit) & 1u) != 0;
  rem[0] = (rem[0] >> 1) | (rem[1] << 63);
  rem[1] >>= 1;
  if (fold) {
    rem[0] ^= gen[0];
    rem[1] ^= gen[1];
  }
}

}  // namespace

std::size_t Bch::generator_degree(int m, int t) {
  return generator_roots((std::uint32_t{1} << checked_field_order(m, t)) - 1, t).size();
}

Bch::Bch(int m, int t, std::size_t message_bits)
    : m_(checked_field_order(m, t)), t_(t), k_(message_bits) {
  auto tab = std::make_shared<Tables>(m_);
  const GF2m& f = tab->field;
  // Generator = product of distinct minimal polynomials of alpha^1..alpha^2t,
  // i.e. of (x + alpha^j) over the cyclotomic cosets' members j.
  const std::uint32_t order = f.order();
  std::vector<std::uint32_t> g = {1};  // polynomial "1" over GF(2^m)
  for (const std::uint32_t j : generator_roots(order, t)) {
    mul_by_linear(g, f.alpha_pow(j), f);
  }
  r_ = g.size() - 1;
  n_ = k_ + r_;
  if (n_ > order) {
    throw std::invalid_argument(
        "Bch: message_bits + parity = " + std::to_string(n_) +
        " exceeds the natural length 2^m - 1 = " + std::to_string(order));
  }
  // Coefficients of g must be in GF(2); r_ <= t·m <= 96 fits the two-word
  // remainder.
  for (std::size_t d = 0; d < r_; ++d) {
    assert(g[d] == 0 || g[d] == 1);
    if (g[d] != 0) {
      const std::size_t j = r_ - 1 - d;
      tab->gen_reflected[j / 64] |= std::uint64_t{1} << (j % 64);
    }
  }
  // Byte table (see byte_step).
  for (std::uint32_t v = 0; v < 256; ++v) {
    Remainder rem{};
    for (int b = 0; b < 8; ++b) clock_bit(rem, (v >> b) & 1u, tab->gen_reflected);
    tab->byte_table[v] = rem;
  }
  // x^e mod g (e >= r) in the remainder format: a 1 clocked in, then e - r
  // zeros.
  const auto x_pow_mod_g = [&](std::size_t e) {
    Remainder rem{};
    clock_bit(rem, 1, tab->gen_reflected);
    for (std::size_t z = r_; z < e; ++z) clock_bit(rem, 0, tab->gen_reflected);
    return rem;
  };
  for (std::size_t w = 0; w < 4; ++w) {
    tab->fold[w] = x_pow_mod_g(319 + r_ - 64 * w);
    tab->finish[w] = x_pow_mod_g(64 * (3 - w) + r_);
  }

  // Degree-2 solve matrix. With L(y) = y² + y, the images L(2^k) of the
  // basis elements k = 1..m-1 span Im L (the basis element 1 is the
  // kernel). Keep them in reduced echelon form — each pivot bit set in
  // exactly one row — alongside their preimages; then any c in Im L is the
  // XOR of the rows at its set pivot bits, and y the XOR of their
  // preimages.
  std::array<std::uint32_t, 16> rows{};  // indexed by pivot bit; 0 = none
  auto& quad_solve = tab->quad_solve;
  for (int k = 1; k < m_; ++k) {
    const std::uint32_t e = 1u << k;
    std::uint32_t v = f.mul(e, e) ^ e;
    std::uint32_t pre = e;
    for (int b = m_ - 1; b >= 0; --b) {
      if (((v >> b) & 1u) && rows[b] != 0) {
        v ^= rows[b];
        pre ^= quad_solve[b];
      }
    }
    assert(v != 0);
    const int pivot = std::bit_width(v) - 1;
    for (int b = 0; b < m_; ++b) {
      if ((rows[b] >> pivot) & 1u) {
        rows[b] ^= v;
        quad_solve[b] ^= pre;
      }
    }
    rows[pivot] = v;
    quad_solve[pivot] = pre;
  }

  // Difference bit b is the coefficient of x^(r-1-b).
  tab->odd_weights.resize(r_ * static_cast<std::size_t>(t_));
  for (std::size_t b = 0; b < r_; ++b) {
    for (int o = 0; o < t_; ++o) {
      tab->odd_weights[b * t_ + o] =
          f.alpha_pow(static_cast<std::uint64_t>(2 * o + 1) * (r_ - 1 - b));
    }
  }
  tab_ = std::move(tab);
  clmul_ = clmul_supported();
}

Bch::Remainder Bch::table_from(Remainder rem, const BitVec& codeword,
                               std::size_t from) const {
  assert(from % 64 == 0);
  // BitVec stores bit i at bit i%64 of word i/64, so the message streams
  // lowest-bit-first into the reflected LFSR, a byte at a time.
  const auto& table = tab_->byte_table;
  const auto words = codeword.words();
  std::size_t i = from;
  for (; i + 64 <= k_; i += 64) {
    std::uint64_t w = words[i / 64];
    for (int b = 0; b < 8; ++b, w >>= 8) byte_step(rem, table, w);
  }
  if (i < k_) {
    // Last partial word: whole bytes, then bit-serial up to k_ (the bits
    // above k_ are the stored parity and are not read).
    std::uint64_t w = words[i / 64];
    for (; i + 8 <= k_; i += 8, w >>= 8) byte_step(rem, table, w);
    for (; i < k_; ++i, w >>= 1) clock_bit(rem, w & 1u, tab_->gen_reflected);
  }
  return rem;
}

Bch::Remainder Bch::remainder_table(const BitVec& codeword) const {
  assert(codeword.size() == n_);
  return table_from({}, codeword, 0);
}

#if !SUDOKU_HAS_PCLMUL
// Builds without the PCLMUL translation unit (non-x86-64 targets or
// -DSUDOKU_ENABLE_PCLMUL=OFF): the kernel is never selected, and a direct
// call is a programming error that must not silently run the table.
bool Bch::clmul_supported() { return false; }

Bch::Remainder Bch::remainder_clmul(const BitVec&) const {
  std::fprintf(stderr, "Bch: remainder_clmul called in a build without PCLMUL support\n");
  std::abort();
}
#endif

void Bch::encode(BitVec& codeword) const {
  assert(codeword.size() == n_);
  // Systematic encoding: parity = message(x) · x^r mod g(x). Parity bit
  // k_+j is remainder bit j, the coefficient of x^(r-1-j).
  const Remainder rem = remainder(codeword);
  codeword.set_bits(k_, static_cast<unsigned>(std::min<std::size_t>(r_, 64)), rem[0]);
  if (r_ > 64) codeword.set_bits(k_ + 64, static_cast<unsigned>(r_ - 64), rem[1]);
}

Bch::Remainder Bch::parity_difference(const BitVec& codeword) const {
  assert(codeword.size() == n_);
  // The received word is c(x) = M(x)·x^r + P(x), so c(x) ≡ d(x) mod g(x)
  // with d = (M(x)·x^r mod g) + P.
  Remainder d = remainder(codeword);
  d[0] ^= codeword.get_bits(k_, static_cast<unsigned>(std::min<std::size_t>(r_, 64)));
  if (r_ > 64) d[1] ^= codeword.get_bits(k_ + 64, static_cast<unsigned>(r_ - 64));
  return d;
}

void Bch::syndromes_of(const Remainder& d, std::uint32_t* s) const {
  // S_j = c(alpha^j) = d(alpha^j), since g(alpha^j) = 0 for j = 1..2t. The
  // odd ones sum a weight per set bit of d; each even one is a square,
  // S_2j = S_j^2, exact because d has 0/1 coefficients.
  const std::size_t t = static_cast<std::size_t>(t_);
  for (std::size_t o = 0; o < t; ++o) s[2 * o] = 0;
  const std::uint32_t* weights = tab_->odd_weights.data();
  for (std::size_t h = 0; h < 2; ++h) {
    for (std::uint64_t bits = d[h]; bits != 0; bits &= bits - 1) {
      const std::uint32_t* row =
          weights + (64 * h + static_cast<std::size_t>(std::countr_zero(bits))) * t;
      for (std::size_t o = 0; o < t; ++o) s[2 * o] ^= row[o];
    }
  }
  const GF2m& f = field();
  for (std::size_t j = 2; j <= 2 * t; j += 2) s[j - 1] = f.mul(s[j / 2 - 1], s[j / 2 - 1]);
}

std::vector<std::uint32_t> Bch::syndromes(const BitVec& codeword) const {
  std::vector<std::uint32_t> s(2 * t_, 0);
  const Remainder d = parity_difference(codeword);
  if (d[0] != 0 || d[1] != 0) syndromes_of(d, s.data());
  return s;
}

bool Bch::syndromes_zero(const BitVec& codeword) const {
  // All 2t syndromes vanish iff g divides d, i.e. (deg d < r) iff d = 0.
  const Remainder d = parity_difference(codeword);
  return d[0] == 0 && d[1] == 0;
}

std::vector<std::uint32_t> Bch::syndromes_reference(const BitVec& codeword) const {
  // Bit-serial Horner oracle: S = S*alpha^j + bit, walking i ascending.
  const GF2m& f = field();
  std::vector<std::uint32_t> s(2 * t_, 0);
  for (int j = 1; j <= 2 * t_; ++j) {
    const std::uint32_t aj = f.alpha_pow(static_cast<std::uint64_t>(j));
    std::uint32_t acc = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      acc = f.mul(acc, aj);
      if (codeword.test(i)) acc ^= 1u;
    }
    s[j - 1] = acc;
  }
  return s;
}

Bch::DecodeResult Bch::decode(BitVec& codeword) const {
  const Remainder d = parity_difference(codeword);
  if (d[0] == 0 && d[1] == 0) return {DecodeStatus::kClean, 0};
  std::array<std::uint32_t, 2 * kMaxT> s;
  syndromes_of(d, s.data());
  return locate_and_correct(codeword, {s.data(), static_cast<std::size_t>(2 * t_)});
}

Bch::DecodeResult Bch::decode_with_syndromes(BitVec& codeword,
                                             std::span<const std::uint32_t> s) const {
  assert(codeword.size() == n_);
  assert(s.size() == static_cast<std::size_t>(2 * t_));
  return locate_and_correct(codeword, s);
}

namespace {

// The Chien scan over points [0, n) for `T` nonzero terms (T = 0 means a
// runtime count): e[u] is the log of term u at the current point and
// steps by step[u]. Points run in chunks in which no e[u] reaches `order`,
// so the inner loop is a lookup, an XOR and an add per term; the chunk end
// reduces the exponents that wrapped.
template <int T>
int chien_scan(const GF2m& f, std::uint32_t lambda0, const std::uint32_t* e0,
               const std::uint32_t* step0, int terms, std::size_t n, int deg,
               std::size_t* positions) {
  const int count = T > 0 ? T : terms;
  // Local copies: with T fixed they live in registers.
  std::array<std::uint32_t, (T > 0 ? T : kMaxT)> e;
  std::array<std::uint32_t, (T > 0 ? T : kMaxT)> step;
  std::copy_n(e0, count, e.begin());
  std::copy_n(step0, count, step.begin());
  const std::uint32_t order = f.order();
  int found = 0;
  std::size_t i = 0;
  while (i < n && found < deg) {
    // Points before any exponent wraps: e[u] + step[u]·(len-1) < order.
    std::size_t len = n - i;
    for (int u = 0; u < count; ++u) {
      len = std::min<std::size_t>(len, (order - 1 - e[u]) / step[u] + 1);
    }
    for (const std::size_t end = i + len; i < end; ++i) {
      std::uint32_t acc = lambda0;
#pragma GCC unroll 8
      for (int u = 0; u < count; ++u) {
        acc ^= f.antilog(e[u]);
        e[u] += step[u];
      }
      if (acc == 0) {
        positions[found++] = i;
        if (found == deg) return found;
      }
    }
    for (int u = 0; u < count; ++u) {
      if (e[u] >= order) e[u] -= order;
    }
  }
  return found;
}

}  // namespace

int Bch::chien_search(std::span<const std::uint32_t> lambda,
                      std::size_t* positions) const {
  // Term c of Lambda(x_i) is lambda_c·x_i^c with x_i = alpha^(i-(n-1)). In
  // the log domain it is alpha^(e_c), and stepping i -> i+1 adds c to e_c
  // (mod 2^m - 1): one antilog lookup per term, no field multiply. Zero
  // coefficients have no log and drop out.
  assert(!lambda.empty() && lambda[0] == 1);
  const int deg = static_cast<int>(lambda.size()) - 1;
  assert(deg <= t_);
  const GF2m& f = field();
  const std::uint32_t order = f.order();
  const std::uint64_t x0 = (order - (n_ - 1) % order) % order;  // log x_0
  std::array<std::uint32_t, kMaxT> e;
  std::array<std::uint32_t, kMaxT> step;
  std::uint32_t constant = lambda[0];
  int terms = 0;
  for (int c = 1; c <= deg; ++c) {
    if (lambda[c] == 0) continue;
    if (c % order == 0) {
      constant ^= lambda[c];  // x_i^c = 1 at every point
      continue;
    }
    e[terms] = static_cast<std::uint32_t>((f.log(lambda[c]) + x0 * c) % order);
    step[terms] = static_cast<std::uint32_t>(c) % order;
    ++terms;
  }
  const auto scan = [&](auto fixed) {
    return chien_scan<decltype(fixed)::value>(f, constant, e.data(), step.data(), terms,
                                              n_, deg, positions);
  };
  // Fixed term counts keep the exponents in registers; t <= 6 covers
  // every design the paper and the frontier use.
  switch (terms) {
    case 1: return scan(std::integral_constant<int, 1>{});
    case 2: return scan(std::integral_constant<int, 2>{});
    case 3: return scan(std::integral_constant<int, 3>{});
    case 4: return scan(std::integral_constant<int, 4>{});
    case 5: return scan(std::integral_constant<int, 5>{});
    case 6: return scan(std::integral_constant<int, 6>{});
    default: return scan(std::integral_constant<int, 0>{});
  }
}

Bch::DecodeResult Bch::locate_and_correct(BitVec& codeword,
                                          std::span<const std::uint32_t> s) const {
  if (std::all_of(s.begin(), s.end(), [](std::uint32_t v) { return v == 0; })) {
    return {DecodeStatus::kClean, 0};
  }
  constexpr DecodeResult kUncorrectable{DecodeStatus::kUncorrectable, 0};
  const GF2m& f = field();

  // Berlekamp–Massey: find the shortest LFSR (error locator Lambda) that
  // generates the syndrome sequence. Fixed arrays: entries past a
  // locator's length stay zero, so growing one is a length update.
  using Poly = std::array<std::uint32_t, 2 * kMaxT + 1>;
  Poly lambda{};
  Poly b{};
  std::size_t lambda_len = 1;
  std::size_t b_len = 1;
  lambda[0] = 1;
  b[0] = 1;
  int L = 0;
  std::size_t m = 1;
  std::uint32_t bdisc = 1;
  Poly prev{};
  for (int nIdx = 0; nIdx < 2 * t_; ++nIdx) {
    // Discrepancy d = S_n + sum lambda_i * S_{n-i}.
    std::uint32_t d = s[nIdx];
    for (int i = 1; i <= L && i < static_cast<int>(lambda_len); ++i) {
      d ^= f.mul(lambda[i], s[nIdx - i]);
    }
    if (d == 0) {
      ++m;
      continue;
    }
    const bool lengthen = 2 * L <= nIdx;
    const std::size_t prev_len = lambda_len;
    if (lengthen) prev = lambda;
    // lambda = lambda - (d / bdisc) x^m b
    const std::uint32_t coef = f.div(d, bdisc);
    lambda_len = std::max(lambda_len, b_len + m);
    for (std::size_t i = 0; i < b_len; ++i) {
      lambda[i + m] ^= f.mul(coef, b[i]);
    }
    if (lengthen) {
      L = nIdx + 1 - L;
      b = prev;
      b_len = prev_len;
      bdisc = d;
      m = 1;
    } else {
      ++m;
    }
  }
  while (lambda_len > 0 && lambda[lambda_len - 1] == 0) --lambda_len;
  const int deg = static_cast<int>(lambda_len) - 1;
  if (deg <= 0 || deg > t_) return kUncorrectable;

  // Roots. Bit index i corresponds to polynomial degree n-1-i and to the
  // Chien point x_i = alpha^(i-(n-1)); a root Lambda(x_i) == 0 marks bit i
  // as faulty. n <= 2^m - 1 makes the points distinct, so a degree-d
  // locator has at most d roots among them, and the pattern is correctable
  // iff exactly d of its roots land at i < n. A double root (Lambda' = 0)
  // is one point and never correctable. Lambda_0 == 1: BM only updates
  // coefficients from x^1 up.
  std::array<std::size_t, kMaxT> error_idx{};
  if (deg == 1) {
    error_idx[0] = root_position(f.div(lambda[0], lambda[1]));
    if (error_idx[0] >= n_) return kUncorrectable;
  } else if (deg == 2) {
    // x = (l1/l2)·y turns l2x² + l1x + l0 into y² + y = c, c = l0·l2/l1².
    // l1 == 0 is a double root. Solutions come in pairs y, y + 1; c != 0,
    // so neither maps to x = 0.
    if (lambda[1] == 0) return kUncorrectable;
    const std::uint32_t scale = f.div(lambda[1], lambda[2]);
    const std::uint32_t c =
        f.div(f.mul(lambda[0], lambda[2]), f.mul(lambda[1], lambda[1]));
    std::uint32_t y = 0;
    for (std::uint32_t bits = c; bits != 0; bits &= bits - 1) {
      y ^= tab_->quad_solve[std::countr_zero(bits)];
    }
    if ((f.mul(y, y) ^ y) != c) return kUncorrectable;  // no root in the field
    const std::uint32_t x = f.mul(scale, y);
    error_idx[0] = root_position(x);
    error_idx[1] = root_position(x ^ scale);
    if (error_idx[0] >= n_ || error_idx[1] >= n_) return kUncorrectable;
  } else {
    // Chien search; it stops at the deg-th root.
    const int found = chien_search({lambda.data(), lambda_len}, error_idx.data());
    // Fewer roots in range: the pattern exceeded the code's correction
    // power and was detected.
    if (found != deg) return kUncorrectable;
  }
  for (int e = 0; e < deg; ++e) codeword.flip(error_idx[e]);
  return {DecodeStatus::kCorrected, deg};
}

}  // namespace sudoku
