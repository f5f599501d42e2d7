// Shared loops for the per-unit BCH baseline schemes (ECC-k lines, Hi-ECC
// and region-ECC regions): random formatting and the scrub.
//
// Scrub: in the Monte-Carlo runner every scrubbed unit carries at least one
// injected fault, so there is no clean fast path to exploit. Each unit is
// read into the caller's scratch codeword and decoded in place —
// Bch::decode() is one remainder, then Berlekamp–Massey and the roots, all
// on the stack — in input order, with no buffers of the scrub's own.
#pragma once

#include <span>

#include "baselines/scheme.h"
#include "codes/bch.h"
#include "sttram/array.h"

namespace sudoku::baselines {

// Fill every unit of `array` with a random message (one rng.next_bool(0.5)
// per message bit, bit 0 first, packed a word at a time) and its parity.
void format_random_bch(const Bch& bch, SttramArray& array, Rng& rng);

// Scrub `units` of `array` (one codeword per unit) with `bch`:
// kCorrected units are written back, kUncorrectable ones recorded as DUE.
// `scratch` holds each unit's codeword in turn (resized if needed).
ScrubReport batch_scrub_bch(const Bch& bch, SttramArray& array,
                            std::span<const std::uint64_t> units, BitVec& scratch);

}  // namespace sudoku::baselines
