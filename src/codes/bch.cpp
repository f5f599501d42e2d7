#include "codes/bch.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

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
  const std::size_t words = static_cast<std::size_t>(t) * static_cast<std::size_t>(m);
  if (words > Bch::kMaxSyndromeWords) {
    throw std::invalid_argument(
        "Bch: t·m = " + std::to_string(words) + " exceeds the " +
        std::to_string(Bch::kMaxSyndromeWords) + "-word syndrome accumulator");
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

}  // namespace

std::size_t Bch::generator_degree(int m, int t) {
  return generator_roots((std::uint32_t{1} << checked_field_order(m, t)) - 1, t).size();
}

Bch::Bch(int m, int t, std::size_t message_bits)
    : m_(checked_field_order(m, t)), t_(t), k_(message_bits), field_(m) {
  // Generator = product of distinct minimal polynomials of alpha^1..alpha^2t,
  // i.e. of (x + alpha^j) over the cyclotomic cosets' members j.
  const std::uint32_t order = field_.order();
  std::vector<std::uint32_t> g = {1};  // polynomial "1" over GF(2^m)
  for (const std::uint32_t j : generator_roots(order, t)) {
    mul_by_linear(g, field_.alpha_pow(j), field_);
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
      gen_reflected_[j / 64] |= std::uint64_t{1} << (j % 64);
    }
  }
  // Byte table: entry v is the remainder after clocking the 8 message bits
  // of v (bit 0 first) through a zero register. By linearity a byte step
  // from any state is then (state >> 8) ^ table[(state ^ byte) & 0xFF].
  enc_table_.resize(256);
  for (std::uint32_t v = 0; v < 256; ++v) {
    Remainder rem{};
    for (int b = 0; b < 8; ++b) encode_bit(rem, (v >> b) & 1u);
    enc_table_[v] = rem;
  }

  // Degree-2 solve matrix. With L(y) = y² + y, the images L(2^k) of the
  // basis elements k = 1..m-1 span Im L (the basis element 1 is the
  // kernel). Keep them in reduced echelon form — each pivot bit set in
  // exactly one row — alongside their preimages; then any c in Im L is the
  // XOR of the rows at its set pivot bits, and y the XOR of their
  // preimages.
  std::array<std::uint32_t, 16> rows{};  // indexed by pivot bit; 0 = none
  for (int k = 1; k < m_; ++k) {
    const std::uint32_t e = 1u << k;
    std::uint32_t v = field_.mul(e, e) ^ e;
    std::uint32_t pre = e;
    for (int b = m_ - 1; b >= 0; --b) {
      if (((v >> b) & 1u) && rows[b] != 0) {
        v ^= rows[b];
        pre ^= quad_solve_[b];
      }
    }
    assert(v != 0);
    const int pivot = std::bit_width(v) - 1;
    for (int b = 0; b < m_; ++b) {
      if ((rows[b] >> pivot) & 1u) {
        rows[b] ^= v;
        quad_solve_[b] ^= pre;
      }
    }
    rows[pivot] = v;
    quad_solve_[pivot] = pre;
  }

  // Word-level syndrome tables: alpha^(j·(63-k)) weights plus the per-word
  // (alpha^j)^64 and per-tail (alpha^j)^tail Horner multipliers.
  words_per_cw_ = (n_ + 63) / 64;
  tail_bits_ = n_ & 63;
  syn_weights_.resize(static_cast<std::size_t>(2 * t_) * 64);
  syn_pow64_.resize(2 * t_);
  syn_powtail_.resize(2 * t_);
  for (int j = 1; j <= 2 * t_; ++j) {
    const std::uint64_t uj = static_cast<std::uint64_t>(j);
    for (unsigned k = 0; k < 64; ++k) {
      syn_weights_[static_cast<std::size_t>(j - 1) * 64 + k] =
          field_.alpha_pow(uj * (63 - k));
    }
    syn_pow64_[j - 1] = field_.alpha_pow(uj * 64);
    syn_powtail_[j - 1] = field_.alpha_pow(uj * tail_bits_);
  }
}

void Bch::encode_bit(Remainder& rem, std::uint32_t bit) const {
  // One LFSR clock: the leaving coefficient x^(r-1) sits in bit 0.
  const bool fold = ((rem[0] & 1u) ^ bit) != 0;
  rem[0] = (rem[0] >> 1) | (rem[1] << 63);
  rem[1] >>= 1;
  if (fold) {
    rem[0] ^= gen_reflected_[0];
    rem[1] ^= gen_reflected_[1];
  }
}

void Bch::encode(BitVec& codeword) const {
  assert(codeword.size() == n_);
  // Systematic encoding: parity = message(x) · x^r mod g(x), message bit 0
  // the highest degree. BitVec stores bit i at bit i%64 of word i/64, so
  // the message already streams lowest-bit-first into the reflected LFSR.
  Remainder rem{};
  const auto byte_step = [&](std::uint64_t byte) {
    const Remainder& e = enc_table_[(rem[0] ^ byte) & 0xFF];
    rem[0] = ((rem[0] >> 8) | (rem[1] << 56)) ^ e[0];
    rem[1] = (rem[1] >> 8) ^ e[1];
  };
  const auto words = codeword.words();
  std::size_t i = 0;
  for (; i + 64 <= k_; i += 64) {
    std::uint64_t w = words[i / 64];
    for (int b = 0; b < 8; ++b, w >>= 8) byte_step(w);
  }
  if (i < k_) {
    // Last partial word: whole bytes, then bit-serial up to k_ (the bits
    // above k_ are the old parity and are not read).
    std::uint64_t w = words[i / 64];
    for (; i + 8 <= k_; i += 8, w >>= 8) byte_step(w);
    for (; i < k_; ++i, w >>= 1) encode_bit(rem, static_cast<std::uint32_t>(w & 1u));
  }
  // Parity bit k_+j is remainder bit j, the coefficient of x^(r-1-j).
  codeword.set_bits(k_, static_cast<unsigned>(std::min<std::size_t>(r_, 64)), rem[0]);
  if (r_ > 64) codeword.set_bits(k_ + 64, static_cast<unsigned>(r_ - 64), rem[1]);
}

std::uint32_t Bch::syndrome_one(const BitVec& codeword, int j0) const {
  // S_j = r(alpha^j) with bit i the coefficient of x^(n-1-i), evaluated by
  // Horner word-at-a-time: a chunk of width L advances the accumulator by
  // (alpha^j)^L and folds in alpha^(j·(L-1-k)) per set bit k.
  const auto words = codeword.words();
  const std::size_t full_words = tail_bits_ == 0 ? words_per_cw_ : words_per_cw_ - 1;
  std::uint32_t acc = 0;
  for (std::size_t wi = 0; wi < full_words; ++wi) {
    acc = syndrome_word_step(acc, words[wi], j0, syn_pow64_[j0], 0);
  }
  if (tail_bits_ != 0) {
    // Tail weights alpha^(j·(tail-1-k)) live in the same row shifted by
    // 64-tail (bits past the tail are zero by BitVec's invariant).
    acc = syndrome_word_step(acc, words[words_per_cw_ - 1], j0, syn_powtail_[j0],
                             static_cast<unsigned>(64 - tail_bits_));
  }
  return acc;
}

std::vector<std::uint32_t> Bch::syndromes(const BitVec& codeword) const {
  assert(codeword.size() == n_);
  std::vector<std::uint32_t> s(2 * t_, 0);
  for (int j0 = 0; j0 < 2 * t_; ++j0) s[j0] = syndrome_one(codeword, j0);
  return s;
}

bool Bch::syndromes_zero(const BitVec& codeword) const {
  assert(codeword.size() == n_);
  for (int j0 = 0; j0 < 2 * t_; ++j0) {
    if (syndrome_one(codeword, j0) != 0) return false;
  }
  return true;
}

std::vector<std::uint32_t> Bch::syndromes_reference(const BitVec& codeword) const {
  // Bit-serial Horner oracle: S = S*alpha^j + bit, walking i ascending.
  std::vector<std::uint32_t> s(2 * t_, 0);
  for (int j = 1; j <= 2 * t_; ++j) {
    const std::uint32_t aj = field_.alpha_pow(static_cast<std::uint64_t>(j));
    std::uint32_t acc = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      acc = field_.mul(acc, aj);
      if (codeword.test(i)) acc ^= 1u;
    }
    s[j - 1] = acc;
  }
  return s;
}

void Bch::build_slice_program() const {
  // Flattened per-position accumulator lists: plane i is XORed into the
  // accumulator word for (odd syndrome j = 2o+1, field bit b) iff bit b
  // of alpha^(j*(n-1-i)) is set. Only odd syndromes are accumulated: in a
  // binary BCH code S_2j = S_j^2 (squaring is linear over GF(2), and the
  // received word has 0/1 coefficients), so every even syndrome is an
  // exact field squaring of an earlier one — computed per line at
  // extraction time. That halves the program, which is what the
  // memory-bound Hi-ECC accumulation is limited by. Weights come straight
  // from the field's antilog table rather than the word-Horner weight
  // rows, so the two kernels fail independently under the differential
  // tests.
  slice_->off.assign(n_ + 1, 0);
  std::vector<std::uint16_t> idx;
  idx.reserve(n_ * static_cast<std::size_t>(t_) * static_cast<std::size_t>(m_) / 2);
  for (std::size_t i = 0; i < n_; ++i) {
    for (int o = 0; o < t_; ++o) {
      const int j = 2 * o + 1;
      const std::uint32_t w = field_.alpha_pow(
          static_cast<std::uint64_t>(j) * static_cast<std::uint64_t>(n_ - 1 - i));
      for (int b = 0; b < m_; ++b) {
        if ((w >> b) & 1u) {
          idx.push_back(static_cast<std::uint16_t>(o * m_ + b));
        }
      }
    }
    slice_->off[i + 1] = static_cast<std::uint32_t>(idx.size());
  }
  slice_->idx = std::move(idx);
}

void Bch::accumulate_planes(const BitPlanes& planes, std::uint64_t* acc) const {
  assert(planes.nbits() == n_);
  std::call_once(slice_->once, [this] { build_slice_program(); });
  // The constructor rejects t·m > kMaxSyndromeWords, the callers' buffer.
  const std::size_t nacc = static_cast<std::size_t>(t_) * m_;
  std::fill(acc, acc + nacc, 0);
  const std::uint64_t* plane = planes.planes().data();
  const std::uint16_t* prog = slice_->idx.data();
  for (std::size_t i = 0; i < n_; ++i) {
    const std::uint64_t p = plane[i];
    const std::uint16_t* end = slice_->idx.data() + slice_->off[i + 1];
    if (p == 0) {
      prog = end;  // all-zero planes (e.g. short batches) cost nothing
      continue;
    }
    for (; prog != end; ++prog) acc[*prog] ^= p;
  }
}

void Bch::batch_syndromes(const BitPlanes& planes, std::uint32_t* out) const {
  // acc[o*m + b] bit L = bit b of slot L's odd syndrome S_{2o+1};
  // gathering a line's odd syndromes is t*m single-bit reads and the even
  // ones are one field squaring each (S_2j = S_j^2, exact) — cheap next
  // to the n-long accumulation the batch just amortised 64 ways.
  std::uint64_t acc[kMaxSyndromeWords];
  accumulate_planes(planes, acc);
  const std::size_t nsyn = static_cast<std::size_t>(2 * t_);
  for (std::size_t line = 0; line < planes.count(); ++line) {
    std::uint32_t* s = out + line * nsyn;
    for (std::size_t j = 1; j <= nsyn; ++j) {
      if (j % 2 == 1) {
        std::uint32_t v = 0;
        const std::uint64_t* a = acc + (j / 2) * m_;
        for (int b = 0; b < m_; ++b) {
          v |= static_cast<std::uint32_t>((a[b] >> line) & 1u) << b;
        }
        s[j - 1] = v;
      } else {
        s[j - 1] = field_.mul(s[j / 2 - 1], s[j / 2 - 1]);
      }
    }
  }
}

std::uint64_t Bch::batch_syndromes_zero(const BitPlanes& planes) const {
  // Every even syndrome is a power-of-two Frobenius image of an odd one
  // (S_2j = S_j^2), so all 2t syndromes are zero iff the t odd ones are.
  std::uint64_t acc[kMaxSyndromeWords];
  accumulate_planes(planes, acc);
  std::uint64_t dirty = 0;
  const std::size_t nacc = static_cast<std::size_t>(t_) * m_;
  for (std::size_t a = 0; a < nacc; ++a) dirty |= acc[a];
  return ~dirty & planes.lane_mask();
}

Bch::DecodeResult Bch::decode(BitVec& codeword) const {
  assert(codeword.size() == n_);
  std::array<std::uint32_t, 2 * kMaxT> s{};
  for (int j0 = 0; j0 < 2 * t_; ++j0) s[j0] = syndrome_one(codeword, j0);
  return locate_and_correct(codeword, {s.data(), static_cast<std::size_t>(2 * t_)});
}

Bch::DecodeResult Bch::decode_with_syndromes(BitVec& codeword,
                                             std::span<const std::uint32_t> s) const {
  assert(codeword.size() == n_);
  assert(s.size() == static_cast<std::size_t>(2 * t_));
  return locate_and_correct(codeword, s);
}

Bch::DecodeResult Bch::locate_and_correct(BitVec& codeword,
                                          std::span<const std::uint32_t> s) const {
  if (std::all_of(s.begin(), s.end(), [](std::uint32_t v) { return v == 0; })) {
    return {DecodeStatus::kClean, 0};
  }
  constexpr DecodeResult kUncorrectable{DecodeStatus::kUncorrectable, 0};

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
      d ^= field_.mul(lambda[i], s[nIdx - i]);
    }
    if (d == 0) {
      ++m;
      continue;
    }
    const bool lengthen = 2 * L <= nIdx;
    const std::size_t prev_len = lambda_len;
    if (lengthen) prev = lambda;
    // lambda = lambda - (d / bdisc) x^m b
    const std::uint32_t coef = field_.div(d, bdisc);
    lambda_len = std::max(lambda_len, b_len + m);
    for (std::size_t i = 0; i < b_len; ++i) {
      lambda[i + m] ^= field_.mul(coef, b[i]);
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
    error_idx[0] = root_position(field_.div(lambda[0], lambda[1]));
    if (error_idx[0] >= n_) return kUncorrectable;
  } else if (deg == 2) {
    // x = (l1/l2)·y turns l2x² + l1x + l0 into y² + y = c, c = l0·l2/l1².
    // l1 == 0 is a double root. Solutions come in pairs y, y + 1; c != 0,
    // so neither maps to x = 0.
    if (lambda[1] == 0) return kUncorrectable;
    const std::uint32_t scale = field_.div(lambda[1], lambda[2]);
    const std::uint32_t c = field_.div(field_.mul(lambda[0], lambda[2]),
                                       field_.mul(lambda[1], lambda[1]));
    std::uint32_t y = 0;
    for (std::uint32_t bits = c; bits != 0; bits &= bits - 1) {
      y ^= quad_solve_[std::countr_zero(bits)];
    }
    if ((field_.mul(y, y) ^ y) != c) return kUncorrectable;  // no root in the field
    const std::uint32_t x = field_.mul(scale, y);
    error_idx[0] = root_position(x);
    error_idx[1] = root_position(x ^ scale);
    if (error_idx[0] >= n_ || error_idx[1] >= n_) return kUncorrectable;
  } else {
    // Chien search, incremental: term c holds lambda_c·x_i^c, and stepping
    // i -> i+1 multiplies term c by alpha^c. Stops at the deg-th root.
    std::array<std::uint32_t, kMaxT + 1> terms{};
    std::array<std::uint32_t, kMaxT + 1> steps{};
    const std::uint32_t x0 = field_.alpha_pow(
        (field_.order() - (n_ - 1) % field_.order()) % field_.order());
    for (int c = 0; c <= deg; ++c) {
      terms[c] = field_.mul(lambda[c], field_.pow(x0, c));
      steps[c] = field_.alpha_pow(c);
    }
    int found = 0;
    for (std::size_t i = 0; i < n_ && found < deg; ++i) {
      std::uint32_t acc = 0;
      for (int c = 0; c <= deg; ++c) acc ^= terms[c];
      if (acc == 0) error_idx[found++] = i;
      for (int c = 1; c <= deg; ++c) terms[c] = field_.mul(terms[c], steps[c]);
    }
    // Fewer roots in range: the pattern exceeded the code's correction
    // power and was detected.
    if (found != deg) return kUncorrectable;
  }
  for (int e = 0; e < deg; ++e) codeword.flip(error_idx[e]);
  return {DecodeStatus::kCorrected, deg};
}

}  // namespace sudoku
