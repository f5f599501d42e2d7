// JSON rendering for obs::MetricsRegistry snapshots. Lives in exp (not
// obs) so the obs library stays a dependency-free leaf that every layer
// can link, while artifact emission reuses exp's round-trip-safe JSON.
//
// Layout (names sorted, so artifacts diff cleanly):
//   "metrics": {
//     "sudoku.read.clean": 1234,                       // counter
//     "scrub.bandwidth_fraction": {"gauge": 0.011, "samples": 3},
//     "mc.faults_per_interval": {                      // histogram
//       "edges": [1, 2, 4, 8], "buckets": [0, 5, 9, 2, 1],
//       "count": 17, "sum": 61, "min": 1, "max": 11
//     }
//   }
#pragma once

#include <optional>

#include "common/json_parse.h"
#include "exp/json.h"
#include "obs/metrics.h"

namespace sudoku::exp {

// Render every metric in `registry`, sorted by name. An empty registry
// renders as {}.
JsonObject metrics_to_json(const obs::MetricsRegistry& registry);

// Inverse of metrics_to_json over a parsed "metrics" object: a plain
// number is a counter, {"gauge","samples"} a gauge, {"edges","buckets",..}
// a histogram. Exact — the emitter's round-trip-safe numbers reparse to
// identical bits, so a restored registry merges byte-identically with live
// ones (the checkpoint/resume contract). Returns std::nullopt on any
// malformed member instead of throwing: an undecodable snapshot means the
// shard is recomputed.
std::optional<obs::MetricsRegistry> metrics_from_json(const JsonValue& value);

}  // namespace sudoku::exp
