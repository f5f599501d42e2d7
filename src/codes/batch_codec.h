// Batch codec engine, part 1 of 2: the bit-plane transpose container.
//
// The word-at-a-time kernels (docs/perf.md) walk one codeword per call;
// their cost is dominated by per-word field multiplies and table lookups.
// The batch engine amortises that work across up to 64 codewords at once
// by *transposing* the batch: plane p is a 64-bit word whose bit L is bit
// p of the L-th staged codeword. In that layout, "XOR bit p of every
// codeword that has weight w into its accumulator" is a single word XOR —
// GF(2) syndrome math for 64 lines costs the same instruction count as
// for one (bit-slicing). The consumers are Hamming::batch_syndromes /
// batch_syndromes_zero and LineCodec::fully_clean_batch; see docs/perf.md
// for the cost model and the break-even batch size.
//
// Usage:
//   planes.reset(nbits, count);                  // count <= 64
//   for (slot = 0; slot < count; ++slot)
//     planes.load_line(slot, cw[slot].words());  // stage (no transpose yet)
//   planes.finalize();                           // 64x64 block transpose
//   ... planes.plane(p) ...                      // bit L = line L's bit p
//
// All batch kernels are pinned bit-identical to the bit-serial oracles by
// tests/test_batch_codec.cpp (randomized batches with replay seeds).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace sudoku {

// In-place transpose of a 64x64 bit matrix stored as 64 words with the
// LSB-first convention: after the call, word r bit c holds what word c
// bit r held before. Exposed for the transpose round-trip test.
void transpose64(std::uint64_t m[64]);

class BitPlanes {
 public:
  static constexpr std::size_t kMaxLines = 64;

  // Prepare for a batch of `count` codewords (1..64) of `nbits` each.
  // Reuses the backing buffers across calls, so a long sweep allocates
  // only on its first (or widest) batch.
  void reset(std::size_t nbits, std::size_t count);

  // Stage codeword `slot`'s backing words (tail-masked, as BitVec::words()
  // guarantees). Missing high words are treated as zero so shorter spans
  // are accepted; extra words beyond the codeword width are ignored.
  void load_line(std::size_t slot, std::span<const std::uint64_t> words);

  // Transpose the staged batch into bit planes. Planes for unstaged slots
  // read as zero (reset() clears the staging area).
  void finalize();

  std::size_t nbits() const { return nbits_; }
  std::size_t count() const { return count_; }

  // Mask of valid lanes: bit L set iff slot L belongs to this batch.
  std::uint64_t lane_mask() const {
    return count_ >= 64 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << count_) - 1;
  }

  // Plane for codeword bit position `bit` (< nbits): bit L = line L's bit.
  std::uint64_t plane(std::size_t bit) const { return planes_[bit]; }
  std::span<const std::uint64_t> planes() const { return planes_; }

 private:
  std::size_t nbits_ = 0;
  std::size_t count_ = 0;
  std::size_t words_per_line_ = 0;
  bool finalized_ = false;
  // Staging area, line-major: slot L's words at [L*words_per_line_, ...).
  std::vector<std::uint64_t> staging_;
  // Transposed planes, one word per codeword bit (padded to whole blocks).
  std::vector<std::uint64_t> planes_;
};

}  // namespace sudoku
