// GF(2) polynomial arithmetic on machine words (degree <= 63). Used to
// construct and verify the CRC-31 generator polynomial: we build
// g(x) = (x+1)·p(x) with p primitive of degree 30, which guarantees that
// every odd-weight error pattern is detected (the (x+1) factor) and gives
// the 2^-31 misdetection probability the paper assumes for 8+ bit errors.
#pragma once

#include <cstdint>

namespace sudoku::gf2 {

// Degree of a polynomial represented by its coefficient bits (bit i = x^i).
int degree(std::uint64_t p);

// Polynomial multiplication in GF(2)[x] (carry-less multiply).
// Result must fit in 64 bits.
std::uint64_t mul(std::uint64_t a, std::uint64_t b);

// a mod m (m != 0).
std::uint64_t mod(std::uint64_t a, std::uint64_t m);

// a·b mod m with intermediate reduction (safe for deg m <= 32).
std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m);

// x^e mod m by square-and-multiply.
std::uint64_t pow_x_mod(std::uint64_t e, std::uint64_t m);

// floor(x^e / m), by long division; the quotient must fit in 64 bits
// (deg m <= e <= deg m + 63).
std::uint64_t pow_x_div(std::uint64_t e, std::uint64_t m);

// True if p (degree d) is irreducible over GF(2).
bool is_irreducible(std::uint64_t p, int d);

// True if p (degree d) is primitive: irreducible and x has full order
// 2^d - 1 in GF(2)[x]/(p). Factors 2^d - 1 by trial division (d <= 32).
bool is_primitive(std::uint64_t p, int d);

// Smallest (by integer value) primitive polynomial of the given degree.
std::uint64_t find_primitive(int d);

}  // namespace sudoku::gf2
