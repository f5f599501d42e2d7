// Differential battery for the BCH fast paths (docs/perf.md, "BCH locate
// and encode"): the byte-table encoder, the closed-form degree-1 and
// degree-2 locator roots, the early-exit Chien search and GF(2^m)
// multiply/divide without a modulo.
//
// The oracle below shares no code with src/codes/bch.cpp. It is built only
// on GF2m's public API: it derives its own generator polynomial, encodes
// with a bit-serial LFSR, computes bit-serial syndromes, runs
// Berlekamp–Massey on growable vectors and scans every Chien point with a
// direct Horner evaluation. GF2m itself is pinned to gf2::mulmod. Every
// randomized assertion prints its seed so a failure replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "codes/bch.h"
#include "codes/ecc_design.h"
#include "codes/gf2m.h"
#include "codes/gf2poly.h"
#include "common/rng.h"

namespace sudoku {
namespace {

constexpr std::uint64_t kBaseSeed = 0xbc4d1ffull;

class OracleBch {
 public:
  struct Result {
    Bch::DecodeStatus status;
    std::vector<std::size_t> flips;  // ascending bit indices
  };

  OracleBch(int m, int t, std::size_t message_bits)
      : f_(m), t_(t), k_(message_bits) {
    // g(x) = product of the distinct minimal polynomials of alpha^1..alpha^2t;
    // the minimal polynomial of alpha^i is the product of (x - alpha^j)
    // over i's cyclotomic coset {i, 2i, 4i, ...} mod 2^m - 1.
    const std::uint64_t order = f_.order();
    std::vector<bool> used(order, false);
    std::vector<std::uint32_t> g = {1};
    for (std::uint64_t i = 1; i <= static_cast<std::uint64_t>(2 * t); ++i) {
      for (std::uint64_t j = i % order; !used[j]; j = (2 * j) % order) {
        used[j] = true;
        const std::uint32_t root = f_.alpha_pow(j);
        std::vector<std::uint32_t> next(g.size() + 1, 0);
        for (std::size_t d = 0; d < g.size(); ++d) {
          next[d + 1] ^= g[d];
          next[d] ^= f_.mul(g[d], root);
        }
        g = std::move(next);
      }
    }
    gen_ = g;
    r_ = g.size() - 1;
    n_ = k_ + r_;
  }

  std::size_t codeword_bits() const { return n_; }

  // Parity of the message in cw[0, k), as stored at cw[k + j]: bit-serial
  // division of message(x)·x^r by g(x), message bit 0 the highest degree.
  std::vector<bool> parity(const BitVec& cw) const {
    std::vector<std::uint32_t> rem(r_, 0);  // rem[d] = coefficient of x^d
    for (std::size_t i = 0; i < k_; ++i) {
      const std::uint32_t fold = (cw.test(i) ? 1u : 0u) ^ rem[r_ - 1];
      for (std::size_t d = r_ - 1; d > 0; --d) rem[d] = rem[d - 1] ^ (fold & gen_[d]);
      rem[0] = fold & gen_[0];
    }
    std::vector<bool> out(r_);
    for (std::size_t j = 0; j < r_; ++j) out[j] = rem[r_ - 1 - j] != 0;
    return out;
  }

  Result decode(const BitVec& cw) const {
    // S_j = r(alpha^j) with bit i the coefficient of x^(n-1-i).
    std::vector<std::uint32_t> s(2 * t_, 0);
    for (int j = 1; j <= 2 * t_; ++j) {
      const std::uint32_t aj = f_.alpha_pow(static_cast<std::uint64_t>(j));
      std::uint32_t acc = 0;
      for (std::size_t i = 0; i < n_; ++i) acc = f_.mul(acc, aj) ^ (cw.test(i) ? 1u : 0u);
      s[j - 1] = acc;
    }
    return locate(s);
  }

  // The decode outcome for syndromes S_1..S_2t, which need not come from
  // any received word.
  Result locate(const std::vector<std::uint32_t>& s) const {
    if (std::all_of(s.begin(), s.end(), [](std::uint32_t v) { return v == 0; })) {
      return {Bch::DecodeStatus::kClean, {}};
    }

    // Berlekamp–Massey: C is the current connection polynomial, B the copy
    // from before the last length change, `shift` the steps since then.
    std::vector<std::uint32_t> c = {1};
    std::vector<std::uint32_t> b = {1};
    int len = 0;
    std::size_t shift = 1;
    std::uint32_t last_d = 1;
    for (int step = 0; step < 2 * t_; ++step) {
      std::uint32_t d = s[step];
      for (int i = 1; i <= len && i < static_cast<int>(c.size()); ++i) {
        d ^= f_.mul(c[i], s[step - i]);
      }
      if (d == 0) {
        ++shift;
        continue;
      }
      const std::vector<std::uint32_t> before = c;
      const std::uint32_t coef = f_.div(d, last_d);
      c.resize(std::max(c.size(), b.size() + shift), 0);
      for (std::size_t i = 0; i < b.size(); ++i) c[i + shift] ^= f_.mul(coef, b[i]);
      if (2 * len <= step) {
        len = step + 1 - len;
        b = before;
        last_d = d;
        shift = 1;
      } else {
        ++shift;
      }
    }
    while (c.back() == 0) c.pop_back();
    const int deg = static_cast<int>(c.size()) - 1;
    if (deg <= 0 || deg > t_) return {Bch::DecodeStatus::kUncorrectable, {}};

    // Full Chien scan: bit i is faulty iff C(alpha^(i-(n-1))) == 0.
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < n_; ++i) {
      const std::uint32_t x = f_.alpha_pow(i + f_.order() - (n_ - 1) % f_.order());
      std::uint32_t v = 0;
      for (int d = deg; d >= 0; --d) v = f_.mul(v, x) ^ c[d];
      if (v == 0) roots.push_back(i);
    }
    if (static_cast<int>(roots.size()) != deg) {
      return {Bch::DecodeStatus::kUncorrectable, {}};
    }
    return {Bch::DecodeStatus::kCorrected, roots};
  }

 private:
  GF2m f_;
  int t_;
  std::size_t k_;
  std::size_t r_ = 0;
  std::size_t n_ = 0;
  std::vector<std::uint32_t> gen_;  // index = degree, gen_[r_] == 1
};

BitVec random_message(std::size_t n, std::size_t k, Rng& rng) {
  BitVec cw(n);
  for (std::size_t i = 0; i < k; ++i) {
    if (rng.next_bool(0.5)) cw.set(i);
  }
  return cw;
}

std::vector<std::size_t> diff_bits(const BitVec& a, const BitVec& b) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.test(i) != b.test(i)) out.push_back(i);
  }
  return out;
}

// Encode a random message with both encoders and require identical parity.
BitVec encode_checked(const Bch& bch, const OracleBch& oracle, Rng& rng,
                      std::uint64_t seed) {
  BitVec cw = random_message(bch.codeword_bits(), bch.message_bits(), rng);
  const auto want = oracle.parity(cw);
  bch.encode(cw);
  for (std::size_t j = 0; j < want.size(); ++j) {
    EXPECT_EQ(cw.test(bch.message_bits() + j), want[j])
        << "seed " << seed << " parity bit " << j;
  }
  return cw;
}

// Decode `received` with both decoders: same status, count and flips.
void expect_same_decode(const Bch& bch, const OracleBch& oracle,
                        const BitVec& received, std::uint64_t seed) {
  const auto want = oracle.decode(received);
  BitVec got = received;
  const auto res = bch.decode(got);
  ASSERT_EQ(res.status, want.status) << "seed " << seed;
  ASSERT_EQ(res.corrected, static_cast<int>(want.flips.size())) << "seed " << seed;
  ASSERT_EQ(diff_bits(received, got), want.flips) << "seed " << seed;
}

// Every error pattern of weight <= t must come back corrected to `good`.
void expect_corrects(const Bch& bch, const BitVec& good,
                     const std::vector<std::size_t>& pattern, std::uint64_t seed) {
  BitVec cw = good;
  for (const auto i : pattern) cw.flip(i);
  const auto res = bch.decode(cw);
  ASSERT_EQ(res.status, Bch::DecodeStatus::kCorrected)
      << "seed " << seed << " bits " << ::testing::PrintToString(pattern);
  ASSERT_EQ(res.corrected, static_cast<int>(pattern.size()))
      << "seed " << seed << " bits " << ::testing::PrintToString(pattern);
  ASSERT_EQ(cw, good) << "seed " << seed << " bits " << ::testing::PrintToString(pattern);
}

// ---------------------------------------------------------------------------
// GF(2^m): mul/div against carry-less multiply mod the field polynomial.
// ---------------------------------------------------------------------------

std::uint64_t field_poly(const GF2m& f) {
  // alpha = x, so alpha^m = x^m mod p(x) = p(x) - x^m.
  return (std::uint64_t{1} << f.m()) | f.alpha_pow(static_cast<std::uint64_t>(f.m()));
}

void expect_field_ops(const GF2m& f, std::uint64_t poly, std::uint32_t a,
                      std::uint32_t b, std::uint64_t seed) {
  ASSERT_EQ(f.mul(a, b), gf2::mulmod(a, b, poly))
      << "m " << f.m() << " a " << a << " b " << b << " seed " << seed;
  if (b != 0) {
    ASSERT_EQ(gf2::mulmod(f.div(a, b), b, poly), a)
        << "m " << f.m() << " a " << a << " b " << b << " seed " << seed;
  }
}

TEST(BchDifferential, FieldMulDivExhaustiveUpToM8) {
  for (int m = 3; m <= 8; ++m) {
    const GF2m f(m);
    const std::uint64_t poly = field_poly(f);
    ASSERT_TRUE(gf2::is_primitive(poly, m)) << "m " << m;
    for (std::uint32_t a = 0; a < f.size(); ++a) {
      for (std::uint32_t b = 0; b < f.size(); ++b) expect_field_ops(f, poly, a, b, 0);
    }
  }
}

TEST(BchDifferential, FieldMulDivSampledM9To16) {
  for (int m = 9; m <= 16; ++m) {
    const GF2m f(m);
    const std::uint64_t poly = field_poly(f);
    ASSERT_TRUE(gf2::is_primitive(poly, m)) << "m " << m;
    const std::uint64_t seed = kBaseSeed + static_cast<std::uint64_t>(m);
    Rng rng(seed);
    for (int trial = 0; trial < 20000; ++trial) {
      const auto a = static_cast<std::uint32_t>(rng.next_below(f.size()));
      const auto b = static_cast<std::uint32_t>(rng.next_below(f.size()));
      expect_field_ops(f, poly, a, b, seed);
    }
    // Largest log sums: (q-2) + (q-2) and the order wraparound.
    const std::uint32_t top = f.alpha_pow(f.order() - 1);
    expect_field_ops(f, poly, top, top, seed);
    expect_field_ops(f, poly, 1, top, seed);
    expect_field_ops(f, poly, top, 1, seed);
  }
}

// ---------------------------------------------------------------------------
// Exhaustive correctable patterns: the closed-form degree-1/2 roots.
// ---------------------------------------------------------------------------

TEST(BchDifferential, EveryWeightOneAndTwoPatternOnEcc4Line) {
  const Bch bch(10, 4, 512);
  const OracleBch oracle(10, 4, 512);
  const std::uint64_t seed = kBaseSeed + 1;
  Rng rng(seed);
  const BitVec good = encode_checked(bch, oracle, rng, seed);
  const std::size_t n = bch.codeword_bits();
  for (std::size_t i = 0; i < n && !HasFatalFailure(); ++i) {
    expect_corrects(bch, good, {i}, seed);
    for (std::size_t j = i + 1; j < n && !HasFatalFailure(); ++j) {
      expect_corrects(bch, good, {i, j}, seed);
    }
  }
}

TEST(BchDifferential, EveryWeightOnePatternOnHiEcc) {
  const EccDesign d = make_ecc_design(1024, 6);
  const Bch bch = make_bch(d);
  const OracleBch oracle(d.m, d.t, d.data_bits);
  const std::uint64_t seed = kBaseSeed + 2;
  Rng rng(seed);
  const BitVec good = encode_checked(bch, oracle, rng, seed);
  for (std::size_t i = 0; i < bch.codeword_bits() && !HasFatalFailure(); ++i) {
    expect_corrects(bch, good, {i}, seed);
  }
}

// ---------------------------------------------------------------------------
// Small, heavily shortened codes: every pattern of every weight up to t+2
// (while the count stays small) against the oracle. Beyond t these hit
// roots outside the shortened range, quadratics with no root in the field,
// higher-degree locators with too few roots, and miscorrections.
// The r < 8 and r = 8 codes run the encoder's bit-serial and table paths
// at their narrowest.
// ---------------------------------------------------------------------------

struct SmallCode {
  int m;
  int t;
  std::size_t k;
};

TEST(BchDifferential, SmallCodesEveryPatternMatchesOracle) {
  const SmallCode codes[] = {{3, 1, 4}, {4, 2, 7}, {5, 2, 11}, {6, 2, 20}, {6, 3, 30}};
  constexpr double kMaxPatterns = 40000;
  for (const auto& code : codes) {
    const Bch bch(code.m, code.t, code.k);
    const OracleBch oracle(code.m, code.t, code.k);
    ASSERT_EQ(bch.codeword_bits(), oracle.codeword_bits());
    const std::uint64_t seed = kBaseSeed + 100 * code.m + code.t;
    Rng rng(seed);
    for (int trial = 0; trial < 64; ++trial) encode_checked(bch, oracle, rng, seed);
    const BitVec good = encode_checked(bch, oracle, rng, seed);
    const std::size_t n = bch.codeword_bits();
    for (std::size_t w = 1; w <= static_cast<std::size_t>(code.t + 2) && w <= n; ++w) {
      double count = 1;
      for (std::size_t i = 0; i < w; ++i) count = count * (n - i) / (i + 1);
      if (count > kMaxPatterns) break;
      // Lexicographic walk over the w-subsets of [0, n).
      std::vector<std::size_t> pos(w);
      for (std::size_t i = 0; i < w; ++i) pos[i] = i;
      while (true) {
        BitVec received = good;
        for (const auto p : pos) received.flip(p);
        expect_same_decode(bch, oracle, received, seed);
        if (HasFatalFailure()) {
          ADD_FAILURE() << "m " << code.m << " t " << code.t << " k " << code.k
                        << " bits " << ::testing::PrintToString(pos);
          return;
        }
        std::size_t i = w;
        while (i > 0 && pos[i - 1] == n - w + i - 1) --i;
        if (i == 0) break;
        ++pos[i - 1];
        for (std::size_t j = i; j < w; ++j) pos[j] = pos[j - 1] + 1;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Arbitrary syndrome vectors through decode_with_syndromes. Syndromes of a
// binary word satisfy S_2j = S_j², which keeps BM away from some locator
// shapes (a degree-2 locator always has lambda_1 = S_1 != 0, for one);
// free syndromes reach every shape, double roots included.
// ---------------------------------------------------------------------------

void expect_same_locate(const Bch& bch, const OracleBch& oracle,
                        const std::vector<std::uint32_t>& s, std::uint64_t seed) {
  const auto want = oracle.locate(s);
  const BitVec zero(bch.codeword_bits());
  BitVec got = zero;
  const auto res = bch.decode_with_syndromes(got, s);
  ASSERT_EQ(res.status, want.status)
      << "seed " << seed << " syndromes " << ::testing::PrintToString(s);
  ASSERT_EQ(res.corrected, static_cast<int>(want.flips.size()))
      << "seed " << seed << " syndromes " << ::testing::PrintToString(s);
  ASSERT_EQ(diff_bits(zero, got), want.flips)
      << "seed " << seed << " syndromes " << ::testing::PrintToString(s);
}

TEST(BchDifferential, EverySyndromeVectorOfSmallCodesMatchesOracle) {
  // GF(16), t = 2: all 16^4 syndrome vectors, at full length (n = 15) and
  // shortened (n = 11, so some roots fall out of range).
  for (const std::size_t k : {7u, 3u}) {
    const Bch bch(4, 2, k);
    const OracleBch oracle(4, 2, k);
    std::vector<std::uint32_t> s(4);
    for (std::uint32_t v = 0; v < (1u << 16) && !HasFatalFailure(); ++v) {
      for (int j = 0; j < 4; ++j) s[j] = (v >> (4 * j)) & 15u;
      expect_same_locate(bch, oracle, s, 0);
    }
  }
}

TEST(BchDifferential, RandomSyndromeVectorsMatchOracle) {
  const SmallCode codes[] = {{6, 2, 20}, {6, 3, 30}, {10, 4, 512}, {14, 6, 8192}};
  for (const auto& code : codes) {
    const Bch bch(code.m, code.t, code.k);
    const OracleBch oracle(code.m, code.t, code.k);
    const std::uint64_t seed = kBaseSeed + 7 * code.m + code.t;
    Rng rng(seed);
    const std::uint64_t q = std::uint64_t{1} << code.m;
    std::vector<std::uint32_t> s(2 * code.t);
    for (int trial = 0; trial < 3000 && !HasFatalFailure(); ++trial) {
      for (auto& v : s) v = static_cast<std::uint32_t>(rng.next_below(q));
      // Leading zeros give the sparse locators (1 + a·x^j, ...).
      const auto zeros = rng.next_below(s.size());
      for (std::size_t j = 0; j < zeros; ++j) s[j] = 0;
      expect_same_locate(bch, oracle, s, seed);
    }
  }
}

// ---------------------------------------------------------------------------
// Every frontier design: seeded random weights 1..t+2, status, flipped bits
// and encoder parity against the oracle.
// ---------------------------------------------------------------------------

TEST(BchDifferential, FrontierDesignsRandomWeightsMatchOracle) {
  std::uint64_t design_index = 0;
  for (const std::uint32_t bytes : frontier_codeword_bytes()) {
    for (const int t : frontier_strengths()) {
      ++design_index;
      const EccDesign d = make_ecc_design(bytes, t);
      const Bch bch = make_bch(d);
      const OracleBch oracle(d.m, d.t, d.data_bits);
      ASSERT_EQ(bch.codeword_bits(), oracle.codeword_bits()) << d.name;
      const std::size_t n = bch.codeword_bits();
      // The oracle costs O(n·t) per decode: fewer trials on larger codes.
      const int trials = std::clamp(static_cast<int>(20000 / n), 2, 16);
      for (int weight = 1; weight <= t + 2; ++weight) {
        const std::uint64_t seed = kBaseSeed + 1000 * design_index + weight;
        Rng rng(seed);
        for (int trial = 0; trial < trials; ++trial) {
          BitVec received = encode_checked(bch, oracle, rng, seed);
          std::set<std::uint64_t> flips;
          while (static_cast<int>(flips.size()) < weight) flips.insert(rng.next_below(n));
          for (const auto bit : flips) received.flip(bit);
          expect_same_decode(bch, oracle, received, seed);
          if (HasFatalFailure()) {
            ADD_FAILURE() << d.name << " weight " << weight << " trial " << trial;
            return;
          }
        }
      }
    }
  }
  EXPECT_EQ(design_index, 16u);
}

}  // namespace
}  // namespace sudoku
