// Common interface for every protection scheme the Monte-Carlo kernel
// (baselines/mc_runner.h) drives: the baseline caches the paper compares
// against (§II ECC-k, §VIII CPPC / RAID-6 / 2DP / Hi-ECC) and SuDoku itself
// (baselines/sudoku_scheme.h). Each scheme owns its stored bit array and
// exposes a scrub entry point; the kernel injects faults, scrubs, and
// classifies DUE/SDC against a golden snapshot.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sttram/array.h"

namespace sudoku::baselines {

struct BaselineStats {
  std::uint64_t corrected = 0;      // units repaired in place
  std::uint64_t due_units = 0;      // declared uncorrectable
  std::vector<std::uint64_t> due_unit_ids;
};

// A "unit" is the scheme's protection granule: a 64 B line for most
// schemes, a 1 KB region for Hi-ECC.
class CacheScheme {
 public:
  virtual ~CacheScheme() = default;

  virtual std::string name() const = 0;
  virtual std::uint64_t num_units() const = 0;
  virtual std::uint32_t bits_per_unit() const = 0;

  virtual SttramArray& array() = 0;
  virtual const SttramArray& array() const = 0;

  // Fill every unit with random encoded content; rebuild any parity state.
  virtual void format_random(Rng& rng) = 0;

  // Scrub the given units (sparse: only units with injected faults).
  virtual BaselineStats scrub_units(std::span<const std::uint64_t> units) = 0;

  // Refill a unit after data loss. The default rewrites the stored bits,
  // which is all a scheme needs when faults never touch its parity state:
  // the parity still reflects the unit's clean codeword.
  virtual void restore_unit(std::uint64_t unit, const BitVec& golden_stored) {
    array().write_line(unit, golden_stored);
  }

  // Storage overhead in check/parity bits per 512 data bits (for the
  // storage-comparison bench).
  virtual double overhead_bits_per_line() const = 0;
};

}  // namespace sudoku::baselines
