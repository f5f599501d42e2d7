// Generalized large-codeword region cache (ROADMAP item 5): one systematic
// BCH codeword over a region of N consecutive 64 B cache lines, with the
// codeword size and correction strength as free axes (codes/ecc_design.h)
// instead of Hi-ECC's hard-coded ECC-6 over 1 KB. Hi-ECC is the (1 KB, t)
// instantiation of this scheme (baselines/hiecc_cache.h) and per-line ECC-k
// the (64 B, k) one (baselines/ecck_cache.h). It is a LineScheme, so the
// concurrent service can serve any design point as a bank.
//
// The scheme's costs are what the frontier bench measures: every line read
// decodes the whole region (read amplification = codeword_bits/512), and
// every line write is a region read-modify-write that re-encodes the
// parity (write amplification). RegionIoStats tracks the stored bits the
// line-granular data path actually moved against the 512-bit demand
// payloads, so measured amplification can be checked against the design's
// closed form.
#pragma once

#include "baselines/scheme.h"
#include "codes/bch.h"
#include "codes/ecc_design.h"

namespace sudoku::baselines {

// Stored-bit traffic of the line-granular data path, versus the 512-bit
// demand payloads that triggered it.
struct RegionIoStats {
  std::uint64_t line_reads = 0;
  std::uint64_t line_writes = 0;
  std::uint64_t region_decodes = 0;   // full-codeword decodes
  std::uint64_t rmw_encodes = 0;      // full-codeword re-encodes on write
  std::uint64_t stored_bits_read = 0;
  std::uint64_t stored_bits_written = 0;

  std::uint64_t demand_bits() const { return (line_reads + line_writes) * 512; }
  double bandwidth_amplification() const {
    const std::uint64_t demand = demand_bits();
    return demand ? static_cast<double>(stored_bits_read + stored_bits_written) /
                        static_cast<double>(demand)
                  : 0.0;
  }
};

class RegionEccCache : public LineScheme {
 public:
  // `num_lines` is in 64 B cache lines and must be a multiple of the
  // design's lines-per-codeword.
  RegionEccCache(std::uint64_t num_lines, const EccDesign& design);
  RegionEccCache(std::uint64_t num_lines, std::uint32_t region_data_bytes,
                 int t);

  std::string name() const override;
  std::uint64_t num_units() const override { return array_.num_lines(); }
  std::uint32_t bits_per_unit() const override { return array_.bits_per_line(); }
  SttramArray& array() override { return array_; }
  const SttramArray& array() const override { return array_; }
  std::unique_ptr<CacheScheme> clone() const override {
    return std::make_unique<RegionEccCache>(*this);
  }

  void format_random(Rng& rng) override;
  ScrubReport scrub_units(std::span<const std::uint64_t> units) override;
  double overhead_bits_per_line() const override {
    return static_cast<double>(bch_.parity_bits()) / lines_per_region_;
  }

  const EccDesign& design() const { return design_; }
  const Bch& codec() const { return bch_; }
  std::uint32_t lines_per_region() const { return lines_per_region_; }
  const RegionIoStats& io_stats() const { return io_; }
  void reset_io_stats() { io_ = RegionIoStats{}; }

  // ---- host data path ----
  // The stored region is a systematic BCH codeword ([data | parity]); line
  // k of a region occupies data bits [(k % lines_per_region)·512, +512). A
  // line read decodes the whole region (that is the scheme's cost model:
  // one ECC unit per codeword) and reports kClean, kCorrected or kDue —
  // never kRepaired; a line write is a region read-modify-write that
  // re-encodes the parity. try_clean_read checks the copied region's
  // syndromes. scrub_all, attach_metrics and consistent() keep the
  // LineScheme defaults: there are no instruments and no parity tables.
  std::uint64_t num_lines() const override {
    return array_.num_lines() * lines_per_region_;
  }
  std::uint64_t unit_of_line(std::uint64_t line) const override {
    return line / lines_per_region_;
  }
  void format(const std::function<BitVec(std::uint64_t)>& make_data) override;
  ReadResult read(std::uint64_t line) override;
  void write(std::uint64_t line, const BitVec& data512) override;
  bool try_clean_read(std::uint64_t line, BitVec& cw_scratch,
                      BitVec& data_out) const override;

  static constexpr std::uint32_t kLineDataBits = 512;
  static constexpr std::size_t kLineWords = kLineDataBits / 64;

 private:
  // Line k of a region is codeword data words [k·kLineWords, +kLineWords).
  std::size_t first_word(std::uint64_t line) const {
    return (line % lines_per_region_) * kLineWords;
  }

  EccDesign design_;
  Bch bch_;
  std::uint32_t lines_per_region_;
  SttramArray array_;  // one "line" per codeword region
  RegionIoStats io_;
  BitVec scrub_scratch_;  // scrub_units' codeword buffer
};

}  // namespace sudoku::baselines
