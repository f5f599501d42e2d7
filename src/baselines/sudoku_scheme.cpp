#include "baselines/sudoku_scheme.h"

namespace sudoku::baselines {

ScrubReport SudokuScheme::scrub_units(std::span<const std::uint64_t> units) {
  ScrubStats s = ctrl_.scrub_lines(units);
  repairs_.ecc1_corrections += s.ecc1_corrections;
  repairs_.raid4_repairs += s.raid4_repairs;
  repairs_.sdr_repairs += s.sdr_repairs;
  repairs_.hash2_invocations += s.hash2_invocations;
  repairs_.groups_repaired += s.groups_repaired;
  ScrubReport report;
  report.corrected = s.ecc1_corrections + s.raid4_repairs + s.sdr_repairs;
  report.due_unit_ids = std::move(s.due_line_ids);
  report.repaired_unit_ids = std::move(s.repaired_line_ids);
  return report;
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

bool SudokuScheme::try_clean_read(std::uint64_t line, BitVec& stored_scratch,
                                  BitVec& data_out) const {
  ctrl_.array().read_line(line, stored_scratch);
  // The full fully_clean check (CRC + inner syndrome), never the
  // verified-clean bit: the bit is exact only because the simulator sees
  // every flip, and the service models a device's data path, which would
  // not. fully_clean is also the exact predicate under which read() returns
  // kClean without touching storage, so the fast path never diverges.
  if (!ctrl_.codec().fully_clean(stored_scratch)) return false;
  ctrl_.codec().extract_data(stored_scratch, data_out);
  return true;
}

}  // namespace sudoku::baselines
