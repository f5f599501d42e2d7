#include "codes/ecc_design.h"

#include <stdexcept>

namespace sudoku {

int min_bch_field_order(std::uint64_t data_bits, int t) {
  if (data_bits == 0 || t < 1) return 0;
  for (int m = 3; m <= 16; ++m) {
    const std::uint64_t natural = (std::uint64_t{1} << m) - 1;
    if (data_bits + static_cast<std::uint64_t>(m) * t <= natural) return m;
  }
  return 0;
}

EccDesign make_ecc_design(std::uint32_t data_bytes, int t) {
  if (data_bytes == 0 || data_bytes % 64 != 0) {
    throw std::invalid_argument("ECC design payload must be a positive "
                                "multiple of 64 B, got " +
                                std::to_string(data_bytes));
  }
  const std::uint64_t data_bits = std::uint64_t{data_bytes} * 8;
  const int m = min_bch_field_order(data_bits, t);
  if (m == 0) {
    throw std::invalid_argument("no BCH field m <= 16 fits " +
                                std::to_string(data_bytes) + " B at t=" +
                                std::to_string(t));
  }
  // The exact generator degree (deg g can be below m*t when cyclotomic
  // cosets of alpha^1..alpha^2t overlap), without building the code.
  EccDesign d;
  d.data_bytes = data_bytes;
  d.data_bits = static_cast<std::uint32_t>(data_bits);
  d.t = t;
  d.m = m;
  d.parity_bits = static_cast<std::uint32_t>(Bch::generator_degree(m, t));
  d.codeword_bits = d.data_bits + d.parity_bits;
  d.name = (data_bytes >= 1024 && data_bytes % 1024 == 0
                ? std::to_string(data_bytes / 1024) + "KB"
                : std::to_string(data_bytes) + "B") +
           "-t" + std::to_string(t);
  return d;
}

Bch make_bch(const EccDesign& design) {
  return Bch(design.m, design.t, design.data_bits);
}

const std::vector<std::uint32_t>& frontier_codeword_bytes() {
  static const std::vector<std::uint32_t> kSizes = {64, 512, 1024, 4096};
  return kSizes;
}

const std::vector<int>& frontier_strengths() {
  static const std::vector<int> kStrengths = {1, 2, 4, 6};
  return kStrengths;
}

}  // namespace sudoku
