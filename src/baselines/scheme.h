// The one protection-scheme interface. CacheScheme is what the Monte-Carlo
// kernel (baselines/mc_runner.h) drives: the baseline caches the paper
// compares against (§II ECC-k, §VIII CPPC / RAID-6 / 2DP / Hi-ECC) and
// SuDoku itself (baselines/sudoku_scheme.h). Each scheme owns its stored
// bit array and exposes a scrub entry point; the kernel injects faults,
// scrubs, and classifies DUE/SDC against a golden snapshot.
//
// LineScheme adds the host data path (format / read / write / lock-free
// clean probe) for the schemes the concurrent service (service/service.h)
// serves as banks: SuDoku-X/Y/Z, 2DP, and the region-ECC caches (ECC-k,
// Hi-ECC and every frontier design point).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/read_result.h"
#include "common/rng.h"
#include "sttram/array.h"

namespace sudoku::obs {
class MetricsRegistry;
}

namespace sudoku::baselines {

// What a scrub found, at unit granularity.
struct ScrubReport {
  std::uint64_t corrected = 0;  // units repaired in place
  // Units declared uncorrectable; the DUE count is its size.
  std::vector<std::uint64_t> due_unit_ids;
  // Units some repair wrote back, in repair order, possibly with
  // duplicates. Only SuDoku reports these (the service's retirement policy
  // reads a unit that keeps reappearing as a suspected permanent fault);
  // the other schemes leave it empty.
  std::vector<std::uint64_t> repaired_unit_ids;
};

// A "unit" is the scheme's protection granule: a 64 B line for most
// schemes, a whole codeword region for Hi-ECC and the region caches.
class CacheScheme {
 public:
  virtual ~CacheScheme() = default;

  virtual std::string name() const = 0;
  virtual std::uint64_t num_units() const = 0;
  virtual std::uint32_t bits_per_unit() const = 0;

  virtual SttramArray& array() = 0;
  virtual const SttramArray& array() const = 0;

  // A copy in the current state: the array with its verified bits and
  // every parity structure. The copy records into no metrics registry.
  // The Monte-Carlo front-ends format one prototype per experiment and run
  // every shard on a clone of it (baselines/mc_runner.h).
  virtual std::unique_ptr<CacheScheme> clone() const = 0;

  // Fill every unit with random encoded content; rebuild any parity state.
  virtual void format_random(Rng& rng) = 0;

  // Scrub the given units (sparse: only units with injected faults).
  virtual ScrubReport scrub_units(std::span<const std::uint64_t> units) = 0;

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

// A scheme with a host data path over 512-bit lines.
//
// Thread contract: not thread-safe. The service serialises every entry
// point behind its bank mutex and brackets mutators with the bank's
// seqlock epoch. The one concurrent entry point is try_clean_read(), which
// may run while a mutator is active: it must be side-effect free and must
// tolerate torn images (the caller re-validates the epoch and discards
// anything observed during a mutation).
class LineScheme : public CacheScheme {
 public:
  // Data geometry: the 512-bit lines a client addresses. unit_of_line maps
  // a line to the protection unit that holds it (faults are injected into
  // units and scrubs operate on them).
  virtual std::uint64_t num_lines() const = 0;
  virtual std::uint64_t unit_of_line(std::uint64_t line) const = 0;

  // Fill every line with make_data(line) and rebuild parity state.
  virtual void format(const std::function<BitVec(std::uint64_t)>& make_data) = 0;

  // Full data path, including demand repair (may mutate storage).
  virtual ReadResult read(std::uint64_t line) = 0;
  virtual void write(std::uint64_t line, const BitVec& data512) = 0;

  // Lock-free probe: copy the line's unit into `stored_scratch`, and iff it
  // is fully consistent extract the line's data into `data_out` and return
  // true. Never mutates storage.
  virtual bool try_clean_read(std::uint64_t line, BitVec& stored_scratch,
                              BitVec& data_out) const = 0;

  // Scrub every unit.
  virtual ScrubReport scrub_all() {
    std::vector<std::uint64_t> all(num_units());
    for (std::uint64_t i = 0; i < all.size(); ++i) all[i] = i;
    return scrub_units(all);
  }

  // Scheme-level instruments (nullptr detaches). Only called while
  // quiesced; recorded under the bank lock.
  virtual void attach_metrics(obs::MetricsRegistry* registry) { (void)registry; }

  // Test hook: parity/codec invariants hold for the current contents.
  virtual bool consistent() const { return true; }
};

}  // namespace sudoku::baselines
