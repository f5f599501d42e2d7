// Generalized large-codeword region cache (ROADMAP item 5): one systematic
// BCH codeword over a region of N consecutive 64 B cache lines, with the
// codeword size and correction strength as free axes (codes/ecc_design.h)
// instead of Hi-ECC's hard-coded ECC-6 over 1 KB. Hi-ECC itself is now the
// (1 KB, t) instantiation of this scheme (baselines/hiecc_cache.h).
//
// The scheme's costs are what the frontier bench measures: every line read
// decodes the whole region (read amplification = codeword_bits/512), and
// every line write is a region read-modify-write that re-encodes the
// parity (write amplification). RegionIoStats tracks the stored bits the
// line-granular data path actually moved against the 512-bit demand
// payloads, so measured amplification can be checked against the design's
// closed form.
#pragma once

#include <functional>

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

class RegionEccCache : public CacheScheme {
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

  void format_random(Rng& rng) override;
  BaselineStats scrub_units(std::span<const std::uint64_t> units) override;
  double overhead_bits_per_line() const override {
    return static_cast<double>(bch_.parity_bits()) / lines_per_region_;
  }

  const EccDesign& design() const { return design_; }
  const Bch& codec() const { return bch_; }
  std::uint32_t lines_per_region() const { return lines_per_region_; }
  const RegionIoStats& io_stats() const { return io_; }
  void reset_io_stats() { io_ = RegionIoStats{}; }

  // ---- line-granular data path (used by the concurrent service and the
  // frontier bench) ----
  // The stored region is a systematic BCH codeword ([data | parity]); line
  // k of a region occupies data bits [(k % lines_per_region)·512, +512). A
  // line read decodes the whole region (that is the scheme's cost model:
  // one ECC unit per codeword); a line write is a region read-modify-write
  // that re-encodes the parity.
  enum class LineReadStatus { kClean, kCorrected, kDue };
  struct LineRead {
    BitVec data;  // 512 bits; zero when kDue
    LineReadStatus status = LineReadStatus::kClean;
  };
  std::uint64_t num_data_lines() const {
    return array_.num_lines() * lines_per_region_;
  }
  LineRead read_line_data(std::uint64_t line);
  void write_line_data(std::uint64_t line, const BitVec& data512);
  // Side-effect-free clean probe for the service's lock-free fast path:
  // copy line's region into `cw_scratch`; iff its syndromes are clean,
  // extract the line's data into `data_out` and return true. Tolerates
  // torn images (caller validates against its seqlock epoch).
  bool probe_clean_line(std::uint64_t line, BitVec& cw_scratch,
                        BitVec& data_out) const;
  // Fill every line from `make_data(line)` (the service's deterministic
  // format hook; format_random remains the MC harness entry point).
  void format_lines(const std::function<BitVec(std::uint64_t)>& make_data);

  static constexpr std::uint32_t kLineDataBits = 512;

 private:
  EccDesign design_;
  Bch bch_;
  std::uint32_t lines_per_region_;
  SttramArray array_;  // one "line" per codeword region
  RegionIoStats io_;
};

}  // namespace sudoku::baselines
