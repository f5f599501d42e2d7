// Monte-Carlo fault injection (paper §VII-A "Reliability Evaluations",
// FaultSim-style [50][52]). Per scrub interval, the number of flipped bits
// across the whole array is Binomial(total_bits, BER); positions are
// uniform. `draw_positions` is the one draw: distinct flat positions in
// draw order, deduplicated with a flat open-addressing table. The grouped
// views over it (`sample_interval`, `sample_exact`) hand the scrub engine
// only the touched lines — the key optimisation that makes simulating a
// 64 MB cache (≈5.7e8 bits, ~3000 faults/20 ms at BER 5.3e-6) fast.
#pragma once

#include <cstdint>
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
  void set_ber(double ber) { ber_ = ber; }

  // Sample one scrub interval's worth of faults.
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
