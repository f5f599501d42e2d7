#include "baselines/sudoku_scheme.h"

namespace sudoku::baselines {

BaselineStats SudokuScheme::scrub_units(std::span<const std::uint64_t> units) {
  ScrubStats s = ctrl_.scrub_lines(units);
  repairs_.ecc1_corrections += s.ecc1_corrections;
  repairs_.raid4_repairs += s.raid4_repairs;
  repairs_.sdr_repairs += s.sdr_repairs;
  repairs_.hash2_invocations += s.hash2_invocations;
  repairs_.groups_repaired += s.groups_repaired;
  BaselineStats stats;
  stats.corrected = s.ecc1_corrections + s.raid4_repairs + s.sdr_repairs;
  stats.due_units = s.due_lines;
  stats.due_unit_ids = std::move(s.due_line_ids);
  return stats;
}

void SudokuScheme::restore_unit(std::uint64_t unit, const BitVec& golden_stored) {
  ctrl_.write_data(unit, ctrl_.codec().extract_data(golden_stored));
}

double SudokuScheme::overhead_bits_per_line() const {
  const std::uint32_t bits = ctrl_.codec().total_bits();
  const double hashes = ctrl_.config().level == SudokuLevel::kZ ? 2.0 : 1.0;
  return static_cast<double>(bits - LineCodec::kDataBits) +
         hashes * bits / ctrl_.config().geo.group_size;
}

}  // namespace sudoku::baselines
