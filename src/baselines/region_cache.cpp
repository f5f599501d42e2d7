#include "baselines/region_cache.h"

#include <algorithm>
#include <stdexcept>

#include "baselines/batch_scrub.h"

namespace sudoku::baselines {

RegionEccCache::RegionEccCache(std::uint64_t num_lines, const EccDesign& design)
    : design_(design),
      bch_(make_bch(design)),
      lines_per_region_(design.lines_per_codeword()),
      array_(num_lines / design.lines_per_codeword(),
             static_cast<std::uint32_t>(bch_.codeword_bits())) {
  if (num_lines == 0 || num_lines % lines_per_region_ != 0) {
    throw std::invalid_argument(
        "RegionEccCache: num_lines must be a positive multiple of " +
        std::to_string(lines_per_region_) + " (got " +
        std::to_string(num_lines) + ")");
  }
}

RegionEccCache::RegionEccCache(std::uint64_t num_lines,
                               std::uint32_t region_data_bytes, int t)
    : RegionEccCache(num_lines, make_ecc_design(region_data_bytes, t)) {}

std::string RegionEccCache::name() const {
  return "Region(ECC-" + std::to_string(design_.t) + "/" + design_.name + ")";
}

void RegionEccCache::format_random(Rng& rng) {
  format_random_bch(bch_, array_, rng);
}

ScrubReport RegionEccCache::scrub_units(std::span<const std::uint64_t> units) {
  return batch_scrub_bch(bch_, array_, units, scrub_scratch_);
}

ReadResult RegionEccCache::read(std::uint64_t line) {
  const std::uint64_t region = line / lines_per_region_;
  BitVec cw = array_.read_line(region);
  ++io_.line_reads;
  ++io_.region_decodes;
  io_.stored_bits_read += bch_.codeword_bits();
  ReadResult out;
  out.data = BitVec(kLineDataBits);
  switch (bch_.decode(cw).status) {
    case Bch::DecodeStatus::kClean:
      break;
    case Bch::DecodeStatus::kCorrected:
      array_.write_line(region, cw);  // scrub-on-read, like the controller
      io_.stored_bits_written += bch_.codeword_bits();
      out.status = ReadStatus::kCorrected;
      break;
    case Bch::DecodeStatus::kUncorrectable:
      out.status = ReadStatus::kDue;  // the whole region is lost
      return out;
  }
  std::copy_n(cw.words().begin() + first_word(line), kLineWords,
              out.data.words().begin());
  return out;
}

void RegionEccCache::write(std::uint64_t line, const BitVec& data512) {
  const std::uint64_t region = line / lines_per_region_;
  // Region read-modify-write. Correct the old content first so the other
  // lines survive; an uncorrectable region has already lost them, and
  // re-encoding over whatever is stored resynchronises the parity (same
  // semantics as SudokuController::write_data over a lost line).
  BitVec cw = array_.read_line(region);
  bch_.decode(cw);
  std::copy_n(data512.words().begin(), kLineWords,
              cw.words().begin() + first_word(line));
  bch_.encode(cw);
  array_.write_line(region, cw);
  ++io_.line_writes;
  ++io_.region_decodes;
  ++io_.rmw_encodes;
  io_.stored_bits_read += bch_.codeword_bits();
  io_.stored_bits_written += bch_.codeword_bits();
}

bool RegionEccCache::try_clean_read(std::uint64_t line, BitVec& cw_scratch,
                                    BitVec& data_out) const {
  array_.read_line(line / lines_per_region_, cw_scratch);
  if (!bch_.syndromes_zero(cw_scratch)) return false;
  if (data_out.size() != kLineDataBits) data_out.resize(kLineDataBits);
  std::copy_n(cw_scratch.words().begin() + first_word(line), kLineWords,
              data_out.words().begin());
  return true;
}

void RegionEccCache::format(
    const std::function<BitVec(std::uint64_t)>& make_data) {
  BitVec cw(bch_.codeword_bits());
  for (std::uint64_t region = 0; region < array_.num_lines(); ++region) {
    cw.clear();
    for (std::uint32_t k = 0; k < lines_per_region_; ++k) {
      const BitVec data = make_data(region * lines_per_region_ + k);
      std::copy_n(data.words().begin(), kLineWords,
                  cw.words().begin() + k * kLineWords);
    }
    bch_.encode(cw);
    array_.write_line(region, cw);
  }
}

}  // namespace sudoku::baselines
