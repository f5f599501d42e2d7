// Monte-Carlo fault injection (paper §VII-A "Reliability Evaluations",
// FaultSim-style [50][52]). Per scrub interval, the number of flipped bits
// across the whole array is Binomial(total_bits, BER); positions are
// uniform. `draw_positions` is the one draw: distinct flat positions in
// draw order, deduplicated with a flat open-addressing table. The
// Monte-Carlo kernel flips them itself and scrubs the touched lines in
// `batch_order`; the grouped views (`sample_interval`, `sample_exact`)
// serve the rest. Scrubbing only the touched lines is the key optimisation
// that makes simulating a 64 MB cache (≈5.7e8 bits, ~3000 faults/20 ms at
// BER 5.3e-6) fast.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "sttram/array.h"

namespace sudoku {

// Faulty bit positions per line for one interval. Positions within a line
// are de-duplicated (two thermal flips of the same bit cancel; the sampler
// re-draws instead, an event with negligible probability at our rates).
// Dedup-by-redraw is unbiased: conditioning i.i.d. uniform draws on "all
// distinct" makes every distinct position set equally likely, so the k-th
// accepted draw is uniform over the remaining positions. Both properties
// (uniformity, and the exact per-seed output incl. RNG consumption) are
// pinned by regression tests in tests/test_fault_injector.cpp.
using FaultBatch = std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>;

class FaultInjector {
 public:
  FaultInjector(std::uint64_t num_lines, std::uint32_t bits_per_line, double ber_per_interval)
      : num_lines_(num_lines), bits_per_line_(bits_per_line), ber_(ber_per_interval) {}

  double ber() const { return ber_; }

  // One interval's fault count, Binomial(total_bits, BER).
  std::uint64_t draw_count(Rng& rng) const {
    return rng.next_binomial(num_lines_ * bits_per_line_, ber_);
  }

  // Sample one scrub interval's worth of faults: sample_exact(draw_count).
  FaultBatch sample_interval(Rng& rng) const;

  // Append `nfaults` distinct flat positions (`line * bits_per_line + bit`)
  // to `out` in draw order, re-drawing on collision. Aborts (loudly) when
  // `nfaults` exceeds the array's bit capacity — there is no valid sample
  // and the rejection loop would never terminate.
  void draw_positions(Rng& rng, std::uint64_t nfaults,
                      std::vector<std::uint64_t>& out) const;

  // Sample exactly `nfaults` distinct uniform positions — the conditional
  // distribution of an interval's faults given its Binomial count. Used by
  // the rare-event estimator (exp/rare_event), which draws counts from a
  // tilted distribution and reweights: conditioned placement is what makes
  // the count-stratified estimator exactly unbiased. Consumes the same RNG
  // draws as the placement phase of sample_interval: draw_positions,
  // grouped by line in draw order.
  FaultBatch sample_exact(Rng& rng, std::uint64_t nfaults) const;

  // Replaces `out` with the lines of a draw_positions draw in the iteration
  // order of the FaultBatch sample_exact groups it into: the same hash
  // table (reserve(n), inserts in draw order) filled as a set over a stack
  // arena, so no allocation up to ~600 positions. scrub_lines' group order
  // (sudoku/controller.cpp) is the other scrub order set by hash layout.
  void batch_order(std::span<const std::uint64_t> positions,
                   std::vector<std::uint64_t>& out) const;

  // Apply a batch to a stored array (flip the bits).
  static void apply(const FaultBatch& batch, SttramArray& array);

  // Total faults in a batch.
  static std::uint64_t count(const FaultBatch& batch);

 private:
  std::uint64_t num_lines_;
  std::uint32_t bits_per_line_;
  double ber_;
};

}  // namespace sudoku
