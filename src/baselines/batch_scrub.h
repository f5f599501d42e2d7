// Shared loops for the per-unit BCH baseline schemes (ECC-k lines, Hi-ECC
// and region-ECC regions): random formatting and the batched scrub.
//
// Scrub: in the Monte-Carlo runner every scrubbed unit
// carries at least one injected fault, so there is no clean fast path to
// exploit — the win is computing all the power-sum syndromes bit-sliced
// across the batch (the BatchCodec engine, docs/perf.md) and feeding each
// unit's row into Bch::decode_with_syndromes, which is decode() minus the
// redundant per-unit syndrome pass. Units are processed in input order
// and every decode sees exactly the syndromes decode() would compute, so
// the MC artifacts stay byte-identical to the per-unit code's.
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
// Batches of up to BitPlanes::kMaxLines; below `min_batch` units the
// per-unit word-Horner path is cheaper and is used instead.
ScrubReport batch_scrub_bch(const Bch& bch, SttramArray& array,
                              std::span<const std::uint64_t> units,
                              std::size_t min_batch);

}  // namespace sudoku::baselines
