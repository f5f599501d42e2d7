#include "baselines/region_cache.h"

#include <cassert>
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

BaselineStats RegionEccCache::scrub_units(std::span<const std::uint64_t> units) {
  // Region decode hook, batched: syndromes for up to 64 regions run
  // bit-sliced, then each dirty region goes through
  // decode_with_syndromes — identical outcomes to per-region decode().
  return batch_scrub_bch(bch_, array_, units, /*min_batch=*/12);
}

RegionEccCache::LineRead RegionEccCache::read_line_data(std::uint64_t line) {
  const std::uint64_t region = line / lines_per_region_;
  const std::uint32_t base = (line % lines_per_region_) * kLineDataBits;
  BitVec cw = array_.read_line(region);
  ++io_.line_reads;
  ++io_.region_decodes;
  io_.stored_bits_read += bch_.codeword_bits();
  LineRead out;
  out.data = BitVec(kLineDataBits);
  switch (bch_.decode(cw).status) {
    case Bch::DecodeStatus::kClean:
      out.status = LineReadStatus::kClean;
      break;
    case Bch::DecodeStatus::kCorrected:
      array_.write_line(region, cw);  // scrub-on-read, like the controller
      io_.stored_bits_written += bch_.codeword_bits();
      out.status = LineReadStatus::kCorrected;
      break;
    case Bch::DecodeStatus::kUncorrectable:
      out.status = LineReadStatus::kDue;  // the whole region is lost
      return out;
  }
  for (std::uint32_t i = 0; i < kLineDataBits; i += 64) {
    out.data.set_bits(i, 64, cw.get_bits(base + i, 64));
  }
  return out;
}

void RegionEccCache::write_line_data(std::uint64_t line, const BitVec& data512) {
  const std::uint64_t region = line / lines_per_region_;
  const std::uint32_t base = (line % lines_per_region_) * kLineDataBits;
  // Region read-modify-write. Correct the old content first so the other
  // lines survive; an uncorrectable region has already lost them, and
  // re-encoding over whatever is stored resynchronises the parity (same
  // semantics as SudokuController::write_data over a lost line).
  BitVec cw = array_.read_line(region);
  bch_.decode(cw);
  for (std::uint32_t i = 0; i < kLineDataBits; i += 64) {
    cw.set_bits(base + i, 64, data512.get_bits(i, 64));
  }
  bch_.encode(cw);
  array_.write_line(region, cw);
  ++io_.line_writes;
  ++io_.region_decodes;
  ++io_.rmw_encodes;
  io_.stored_bits_read += bch_.codeword_bits();
  io_.stored_bits_written += bch_.codeword_bits();
}

bool RegionEccCache::probe_clean_line(std::uint64_t line, BitVec& cw_scratch,
                                      BitVec& data_out) const {
  const std::uint64_t region = line / lines_per_region_;
  const std::uint32_t base = (line % lines_per_region_) * kLineDataBits;
  array_.read_line(region, cw_scratch);
  if (!bch_.syndromes_zero(cw_scratch)) return false;
  if (data_out.size() != kLineDataBits) data_out.resize(kLineDataBits);
  for (std::uint32_t i = 0; i < kLineDataBits; i += 64) {
    data_out.set_bits(i, 64, cw_scratch.get_bits(base + i, 64));
  }
  return true;
}

void RegionEccCache::format_lines(
    const std::function<BitVec(std::uint64_t)>& make_data) {
  BitVec cw(bch_.codeword_bits());
  for (std::uint64_t region = 0; region < array_.num_lines(); ++region) {
    cw.clear();
    for (std::uint32_t k = 0; k < lines_per_region_; ++k) {
      const BitVec data = make_data(region * lines_per_region_ + k);
      for (std::uint32_t i = 0; i < kLineDataBits; i += 64) {
        cw.set_bits(k * kLineDataBits + i, 64, data.get_bits(i, 64));
      }
    }
    bch_.encode(cw);
    array_.write_line(region, cw);
  }
}

}  // namespace sudoku::baselines
