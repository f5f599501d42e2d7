// Tolerance-aware comparator for experiment artifacts (the JSON files
// ResultSink writes and bench/golden/ pins). Built on common/json_parse's
// raw-number-text values so the comparison can be *stricter* than any
// double-based diff:
//
//  * integer-shaped numbers (no '.', no exponent) compare by raw text —
//    u64 counters beyond 2^53 never collapse to the nearest double,
//  * float-shaped numbers compare with a configurable relative tolerance
//    (0 = exact text match), absorbing last-ulp drift across toolchains
//    while still catching real analytic regressions,
//  * strings, booleans and nulls compare exactly (the emitter renders
//    NaN/Inf as null, so a formerly-finite analytic value going non-finite
//    is reported as a kind change, not silently equal),
//  * an ignore-list of glob patterns ("throughput", "result.rows[*].mb_per_s")
//    prunes wall-clock sections whole subtrees at a time.
//
// Every mismatch is reported with the dotted path of the offending node
// ("result.cases[2].due_lines: ...") so a failing golden diff points
// straight at the drifted quantity. Used by tools/artifact_diff and
// scripts/repro.sh; see docs/repro.md for the tolerance policy.
#pragma once

#include <string>
#include <vector>

#include "common/json_parse.h"

namespace sudoku::exp {

struct ArtifactDiffOptions {
  // Relative tolerance for float-shaped numbers: values a, b pass when
  // |a - b| <= rel_tol * max(|a|, |b|). 0 means exact text equality.
  double rel_tol = 0.0;
  // Glob patterns over dotted paths; a matching node's entire subtree is
  // skipped. '*' matches any run of characters within the path, '?' one
  // character. "throughput" ignores the top-level wall-clock section;
  // "result.rows[*].seconds" ignores one field across an array.
  std::vector<std::string> ignore;
};

struct ArtifactDiffEntry {
  std::string path;     // dotted path, "" for the document root
  std::string message;  // what differs, golden vs actual
};

struct ArtifactDiffResult {
  std::vector<ArtifactDiffEntry> entries;
  bool identical() const { return entries.empty(); }
};

// True when `raw` (a JSON number's source text) has integer shape: an
// optional sign and digits only — no fraction, no exponent.
bool number_text_is_integer(const std::string& raw);

// Glob match over dotted paths ('*' any run, '?' one char, rest literal).
bool path_glob_match(const std::string& pattern, const std::string& path);

// Structural diff of two parsed artifacts. `golden` is the reference; the
// messages name it as such.
ArtifactDiffResult diff_artifacts(const JsonValue& golden, const JsonValue& actual,
                                  const ArtifactDiffOptions& options = {});

// One line per mismatch ("path: message"), for console output.
std::string render_artifact_diff(const ArtifactDiffResult& result);

// The tools/artifact_diff CLI body:
//   artifact_diff [--rtol=X] [--ignore=PATTERN]... <golden.json> <actual.json>
// Exit 0 when identical outside the ignored sections, 1 when the artifacts
// differ (mismatches on stderr), 2 on usage / unreadable / unparsable
// input. Lives in the library so tests can drive it in-process.
int artifact_diff_main(int argc, char** argv);

}  // namespace sudoku::exp
