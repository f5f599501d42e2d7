#include "codes/gf2poly.h"

#include <bit>
#include <cassert>
#include <vector>

namespace sudoku::gf2 {

int degree(std::uint64_t p) {
  return p == 0 ? -1 : 63 - std::countl_zero(p);
}

std::uint64_t mul(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = 0;
  while (b != 0) {
    if (b & 1) r ^= a;
    a <<= 1;
    b >>= 1;
  }
  return r;
}

std::uint64_t mod(std::uint64_t a, std::uint64_t m) {
  assert(m != 0);
  const int dm = degree(m);
  int da = degree(a);
  while (da >= dm) {
    a ^= m << (da - dm);
    da = degree(a);
  }
  return a;
}

std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  const int dm = degree(m);
  assert(dm <= 32);
  std::uint64_t r = 0;
  a = mod(a, m);
  while (b != 0) {
    if (b & 1) r ^= a;
    b >>= 1;
    a <<= 1;
    if (degree(a) >= dm) a ^= m << (degree(a) - dm);
  }
  return mod(r, m);
}

std::uint64_t pow_x_mod(std::uint64_t e, std::uint64_t m) {
  std::uint64_t result = 1;  // polynomial "1"
  std::uint64_t base = mod(2, m);  // polynomial "x"
  while (e != 0) {
    if (e & 1) result = mulmod(result, base, m);
    base = mulmod(base, base, m);
    e >>= 1;
  }
  return result;
}

std::uint64_t pow_x_div(std::uint64_t e, std::uint64_t m) {
  const int dm = degree(m);
  assert(dm >= 0 && e >= static_cast<std::uint64_t>(dm) &&
         e - static_cast<std::uint64_t>(dm) <= 63);
  // The partial remainder starts as x^dm (the dividend's leading dm + 1
  // bits); each step brings down one zero bit and yields one quotient bit.
  std::uint64_t rem = std::uint64_t{1} << dm;
  std::uint64_t q = 0;
  for (std::uint64_t d = static_cast<std::uint64_t>(dm); d <= e; ++d) {
    const bool bit = (rem >> dm) & 1u;
    q = (q << 1) | (bit ? 1u : 0u);
    if (bit) rem ^= m;
    rem <<= 1;
  }
  return q;
}

bool is_irreducible(std::uint64_t p, int d) {
  if (degree(p) != d || d < 1) return false;
  // p irreducible iff x^(2^d) == x (mod p) and gcd-style check
  // x^(2^(d/q)) - x coprime with p for each prime divisor q of d.
  // For our small degrees, the cheaper sufficient test: x^(2^d) == x mod p
  // and x^(2^(d/q)) != x mod p for each prime q | d.
  auto frob = [&](int k) {
    // x^(2^k) mod p by repeated squaring of x.
    std::uint64_t r = mod(2, p);
    for (int i = 0; i < k; ++i) r = mulmod(r, r, p);
    return r;
  };
  if (frob(d) != mod(2, p)) return false;
  for (int q = 2; q <= d; ++q) {
    if (d % q != 0) continue;
    bool prime = true;
    for (int t = 2; t * t <= q; ++t)
      if (q % t == 0) { prime = false; break; }
    if (!prime) continue;
    if (frob(d / q) == mod(2, p)) return false;
  }
  return true;
}

bool is_primitive(std::uint64_t p, int d) {
  if (!is_irreducible(p, d)) return false;
  const std::uint64_t order = (std::uint64_t{1} << d) - 1;
  // Factor the group order by trial division.
  std::vector<std::uint64_t> primes;
  std::uint64_t n = order;
  for (std::uint64_t f = 2; f * f <= n; ++f) {
    if (n % f == 0) {
      primes.push_back(f);
      while (n % f == 0) n /= f;
    }
  }
  if (n > 1) primes.push_back(n);
  for (const auto q : primes) {
    if (pow_x_mod(order / q, p) == 1) return false;  // x has smaller order
  }
  return pow_x_mod(order, p) == 1;
}

std::uint64_t find_primitive(int d) {
  // Candidates have the x^d and constant terms set (required for
  // irreducibility) — iterate the middle coefficients.
  const std::uint64_t high = std::uint64_t{1} << d;
  for (std::uint64_t mid = 0; mid < (std::uint64_t{1} << (d - 1)); ++mid) {
    const std::uint64_t cand = high | (mid << 1) | 1;
    if (is_primitive(cand, d)) return cand;
  }
  return 0;  // unreachable for d where primitive polynomials exist
}

}  // namespace sudoku::gf2
