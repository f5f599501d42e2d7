// Differential battery for the BCH fast paths (docs/perf.md, "BCH
// syndromes" and "BCH locate and encode"): the table and CLMUL remainder
// kernels, the encoder, the clean check and the syndromes they feed, the
// closed-form degree-1 and degree-2 locator roots, the log-domain Chien
// search and GF(2^m) multiply/divide without a modulo.
//
// The oracle below shares no code with src/codes/bch.cpp. It is built only
// on GF2m's public API: it derives its own generator polynomial, encodes
// with a bit-serial LFSR, computes bit-serial syndromes, runs
// Berlekamp–Massey on growable vectors and scans every Chien point with a
// direct Horner evaluation. GF2m itself is pinned to gf2::mulmod. Every
// randomized assertion prints its code and seed so a failure replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
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
  const GF2m& field() const { return f_; }

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

  // S_j = r(alpha^j) with bit i the coefficient of x^(n-1-i).
  std::vector<std::uint32_t> syndromes(const BitVec& cw) const {
    std::vector<std::uint32_t> s(2 * t_, 0);
    for (int j = 1; j <= 2 * t_; ++j) {
      const std::uint32_t aj = f_.alpha_pow(static_cast<std::uint64_t>(j));
      std::uint32_t acc = 0;
      for (std::size_t i = 0; i < n_; ++i) acc = f_.mul(acc, aj) ^ (cw.test(i) ? 1u : 0u);
      s[j - 1] = acc;
    }
    return s;
  }

  Result decode(const BitVec& cw) const { return locate(syndromes(cw)); }

  // Full Chien scan: the bit indices i < n with C(alpha^(i-(n-1))) == 0,
  // ascending, for a locator C of any degree.
  std::vector<std::size_t> roots(const std::vector<std::uint32_t>& c) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < n_; ++i) {
      const std::uint32_t x = f_.alpha_pow(i + f_.order() - (n_ - 1) % f_.order());
      std::uint32_t v = 0;
      for (std::size_t d = c.size(); d-- > 0;) v = f_.mul(v, x) ^ c[d];
      if (v == 0) out.push_back(i);
    }
    return out;
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
    std::vector<std::size_t> found = roots(c);
    if (static_cast<int>(found.size()) != deg) {
      return {Bch::DecodeStatus::kUncorrectable, {}};
    }
    return {Bch::DecodeStatus::kCorrected, found};
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

// ---------------------------------------------------------------------------
// The remainder and everything built on it, on every code in the battery:
// both remainder kernels and encode() against the bit-serial parity, then
// syndromes() and syndromes_zero() against the bit-serial syndromes of the
// encoded word under random error masks.
// ---------------------------------------------------------------------------

struct BatteryCode {
  std::string name;
  int m;
  int t;
  std::size_t k;
};

// The small shortened codes, the ECC-k line codes, LineCodec's k = 543
// inner code (k mod 8 != 0), Hi-ECC (two-word remainder, r = 84), the CLMUL
// corners (no whole 256-bit block, exactly one, r = 64 and r = 65) and every
// frontier design, 4KB-t6 (m = 16, r = 96) among them.
std::vector<BatteryCode> battery() {
  std::vector<BatteryCode> codes;
  const auto add = [&](int m, int t, std::size_t k) {
    codes.push_back({"m" + std::to_string(m) + " t" + std::to_string(t) + " k" +
                         std::to_string(k),
                     m, t, k});
  };
  for (const auto& c : std::vector<SmallCode>{
           {3, 1, 4}, {4, 2, 7}, {5, 2, 11}, {6, 2, 20}, {6, 3, 30}}) {
    add(c.m, c.t, c.k);
  }
  for (const int t : {1, 2, 3, 4, 6}) add(10, t, 512);
  for (const int t : {2, 3}) add(10, t, 543);
  add(14, 6, 8192);
  add(9, 2, 255);
  add(10, 3, 256);
  add(11, 4, 300);
  add(16, 4, 1000);
  add(13, 5, 600);
  for (const std::uint32_t bytes : frontier_codeword_bytes()) {
    for (const int t : frontier_strengths()) {
      const EccDesign d = make_ecc_design(bytes, t);
      codes.push_back({d.name, d.m, d.t, d.data_bits});
    }
  }
  return codes;
}

Bch::Remainder oracle_remainder(const OracleBch& oracle, const BitVec& cw) {
  Bch::Remainder rem{};
  const auto bits = oracle.parity(cw);
  for (std::size_t j = 0; j < bits.size(); ++j) {
    if (bits[j]) rem[j / 64] |= std::uint64_t{1} << (j % 64);
  }
  return rem;
}

TEST(BchDifferential, RemainderKernelsEncodeAndSyndromesMatchOracleOnBattery) {
  // Without pclmulqdq (or with -DSUDOKU_ENABLE_PCLMUL=OFF) the CLMUL check
  // is left out and remainder() is the table kernel.
  const bool clmul = Bch::clmul_supported();
  std::uint64_t code_index = 0;
  for (const auto& code : battery()) {
    ++code_index;
    const Bch bch(code.m, code.t, code.k);
    const OracleBch oracle(code.m, code.t, code.k);
    ASSERT_EQ(bch.codeword_bits(), oracle.codeword_bits()) << code.name;
    const std::size_t n = bch.codeword_bits();
    // The oracle costs O(k·r + n·t) per trial: fewer trials on larger codes.
    const int trials = std::clamp(static_cast<int>(40000 / n), 3, 64);
    const std::uint64_t seed = kBaseSeed + 5000 + code_index;
    Rng rng(seed);
    for (int trial = 0; trial < trials; ++trial) {
      // Random parity bits too: the kernels must not read them.
      BitVec cw(n);
      for (auto& w : cw.words()) w = rng.next_u64();
      if (n % 64 != 0) cw.words().back() &= (std::uint64_t{1} << (n % 64)) - 1;
      const Bch::Remainder want = oracle_remainder(oracle, cw);
      ASSERT_EQ(bch.remainder_table(cw), want)
          << code.name << " seed " << seed << " trial " << trial << ": table";
      if (clmul) {
        ASSERT_EQ(bch.remainder_clmul(cw), want)
            << code.name << " seed " << seed << " trial " << trial << ": clmul";
      }
      ASSERT_EQ(bch.remainder(cw), want) << code.name << " seed " << seed;
      bch.encode(cw);
      for (std::size_t j = 0; j < bch.parity_bits(); ++j) {
        ASSERT_EQ(cw.test(bch.message_bits() + j), ((want[j / 64] >> (j % 64)) & 1u) != 0)
            << code.name << " seed " << seed << " trial " << trial << " parity bit " << j;
      }
      // Weight 0 keeps the clean check honest on encoded words.
      const auto weight = rng.next_below(static_cast<std::uint64_t>(code.t) + 3);
      for (std::uint64_t e = 0; e < weight; ++e) cw.flip(rng.next_below(n));
      const auto s = oracle.syndromes(cw);
      ASSERT_EQ(bch.syndromes(cw), s)
          << code.name << " seed " << seed << " trial " << trial << " weight " << weight;
      const bool zero = std::all_of(s.begin(), s.end(), [](std::uint32_t v) { return v == 0; });
      ASSERT_EQ(bch.syndromes_zero(cw), zero)
          << code.name << " seed " << seed << " trial " << trial << " weight " << weight;
    }
  }
}

TEST(BchDifferential, ClmulRemainderMatchesTableOnEveryMessageLength) {
  if (!Bch::clmul_supported()) GTEST_SKIP() << "host lacks pclmulqdq";
  // Every k from 1 to 1100 at r = 40 and at r = 84: no block, each whole
  // block count, and every tail length through the byte table.
  for (const auto& [m, t] : {std::pair{11, 4}, std::pair{14, 6}}) {
    for (std::size_t k = 1; k <= 1100; ++k) {
      const Bch bch(m, t, k);
      const std::uint64_t seed = kBaseSeed + 9000 + 10000 * m + k;
      Rng rng(seed);
      BitVec cw(bch.codeword_bits());
      for (auto& w : cw.words()) w = rng.next_u64();
      const std::size_t n = bch.codeword_bits();
      if (n % 64 != 0) cw.words().back() &= (std::uint64_t{1} << (n % 64)) - 1;
      ASSERT_EQ(bch.remainder_clmul(cw), bch.remainder_table(cw))
          << "m" << m << " t" << t << " k" << k << " seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// The log-domain Chien search against the full-length scan, on locators
// built from chosen roots: degree 3..6, roots inside the code, past n (in
// the field but outside the shortened code), repeated (double roots), and
// random locators whose factors need not split at all.
// ---------------------------------------------------------------------------

TEST(BchDifferential, ChienSearchMatchesFullScanOnForcedLocators) {
  const BatteryCode codes[] = {{"ECC-6 line", 10, 6, 512},
                               {"Hi-ECC", 14, 6, 8192},
                               {"m12 t6 k2000", 12, 6, 2000}};
  for (const auto& code : codes) {
    const Bch bch(code.m, code.t, code.k);
    const OracleBch oracle(code.m, code.t, code.k);
    const GF2m& f = oracle.field();
    const std::size_t n = bch.codeword_bits();
    const std::uint64_t order = f.order();
    const std::uint64_t seed = kBaseSeed + 7000 + static_cast<std::uint64_t>(code.m);
    Rng rng(seed);
    for (int trial = 0; trial < 300; ++trial) {
      const int deg = 3 + static_cast<int>(rng.next_below(4));
      std::vector<std::uint32_t> lambda = {1};
      std::vector<std::uint64_t> picked;
      if (trial % 5 == 4) {
        // Random coefficients: roots wherever they fall, if anywhere.
        for (int c = 1; c <= deg; ++c) {
          lambda.push_back(static_cast<std::uint32_t>(rng.next_below(f.size())));
        }
        if (lambda.back() == 0) lambda.back() = 1;
      } else {
        for (int c = 0; c < deg; ++c) {
          std::uint64_t p;
          const auto kind = rng.next_below(4);
          if (kind == 0 && !picked.empty()) {
            p = picked[rng.next_below(picked.size())];  // a double root
          } else if (kind == 1) {
            p = n + rng.next_below(order - n);  // past the shortened code
          } else {
            p = rng.next_below(n);
          }
          picked.push_back(p);
          // Root alpha^(p-(n-1)): multiply by (1 + alpha^((n-1)-p)·x).
          const std::uint32_t inv_root = f.alpha_pow(n - 1 + order - p);
          lambda.push_back(0);
          for (std::size_t d = lambda.size() - 1; d > 0; --d) {
            lambda[d] ^= f.mul(lambda[d - 1], inv_root);
          }
        }
      }
      const auto want = oracle.roots(lambda);
      std::vector<std::size_t> got(static_cast<std::size_t>(deg));
      const int count = bch.chien_search(lambda, got.data());
      got.resize(static_cast<std::size_t>(count));
      ASSERT_EQ(got, want) << code.name << " seed " << seed << " trial " << trial
                           << " positions " << ::testing::PrintToString(picked)
                           << " locator " << ::testing::PrintToString(lambda);
    }
  }
}

}  // namespace
}  // namespace sudoku
