// Parameterized BCH code designs for the large-codeword ECC frontier
// (ROADMAP item 5, docs/frontier.md). The paper evaluates two fixed points
// on the redundancy-vs-bandwidth curve — ECC-t over a 512-bit line
// (GF(2^10)) and Hi-ECC's ECC-6 over a 1 KB region (GF(2^14)). This module
// turns codeword size and code strength into sweep axes: given a data
// payload and a correction budget t, it picks the smallest field GF(2^m)
// whose natural length 2^m - 1 fits the shortened codeword, and exposes
// the resulting (n, k, r) geometry plus the derived capacity/bandwidth
// overheads the Pareto bench charges.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "codes/bch.h"

namespace sudoku {

// Smallest m with data_bits + m*t <= 2^m - 1, i.e. the smallest binary BCH
// field whose natural length can carry the shortened codeword (the
// generator degree of a t-error-correcting BCH code is at most m*t).
// Returns 0 if no m <= 16 fits (GF2m's table limit).
int min_bch_field_order(std::uint64_t data_bits, int t);

// One point of the codeword-size x strength sweep. `parity_bits` is the
// *actual* generator degree of the code (usually exactly m*t for these
// shortened designs, but derived from its cyclotomic cosets, not assumed).
struct EccDesign {
  std::string name;            // e.g. "512B-t4"
  std::uint32_t data_bytes = 0;
  std::uint32_t data_bits = 0;
  int t = 0;
  int m = 0;
  std::uint32_t parity_bits = 0;
  std::uint32_t codeword_bits = 0;  // data_bits + parity_bits

  // Check bits per data bit — the storage cost axis.
  double capacity_overhead() const {
    return static_cast<double>(parity_bits) / data_bits;
  }
  // Stored bits touched to serve one 64 B (512-bit) line read: the whole
  // codeword must be fetched before it can be decoded.
  double read_amplification() const { return codeword_bits / 512.0; }
  // Stored bits moved by one 64 B line write under region RMW: fetch the
  // codeword, re-encode, write the line plus the parity back.
  double write_amplification() const {
    return (static_cast<double>(codeword_bits) + 512.0 +
            static_cast<double>(parity_bits)) /
           512.0;
  }
  std::uint32_t lines_per_codeword() const { return data_bits / 512; }
};

// Resolve (data_bytes, t) to a full design, with the exact generator
// degree from Bch::generator_degree (no code is built). Throws std::invalid_argument when
// data_bytes is not a positive multiple of 64 or no field m <= 16 fits.
EccDesign make_ecc_design(std::uint32_t data_bytes, int t);

// Instantiate the codec for a design (systematic [data | parity] layout,
// same as every Bch user in the tree).
Bch make_bch(const EccDesign& design);

// The frontier sweep axes (docs/frontier.md): the paper's 64 B per-line
// granularity, the Ramulator2_ECC study's 512 B / 1 KB / 4 KB large
// codewords, and strengths spanning ECC-1 to Hi-ECC's ECC-6.
const std::vector<std::uint32_t>& frontier_codeword_bytes();
const std::vector<int>& frontier_strengths();

}  // namespace sudoku
