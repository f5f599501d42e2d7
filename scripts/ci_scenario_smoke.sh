#!/usr/bin/env bash
# Scenario-matrix smoke check (docs/faults.md), run in CI against the
# Release build:
#
#   1. quick matrix run, single-threaded -> artifact must match the
#      checked-in golden outside the wall-clock "throughput" section
#   2. the same run at --threads=8 -> byte-identical artifact (scenario
#      streams are shard-invariant)
#
# Kill and resume of the matrix is the crash-resume job's step
# (scripts/ci_crash_resume.sh), scaled so the kill lands mid-run.
#
# Usage: scripts/ci_scenario_smoke.sh <path-to-bench_scenario_matrix> \
#          <path-to-artifact_diff> <path-to-golden-dir>
set -euo pipefail

BENCH=${1:?usage: $0 <bench_scenario_matrix> <artifact_diff> <golden-dir>}
DIFF=${2:?usage: $0 <bench_scenario_matrix> <artifact_diff> <golden-dir>}
GOLDEN=${3:?usage: $0 <bench_scenario_matrix> <artifact_diff> <golden-dir>}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo "== quick matrix, 1 thread, vs golden"
"$BENCH" --quick --threads=1 --out="$WORK/t1" >/dev/null
"$DIFF" --ignore=throughput "$GOLDEN/scenario_matrix_quick.json" \
  "$WORK/t1/scenario_matrix_quick.json"

echo "== quick matrix, 8 threads, must be byte-identical"
"$BENCH" --quick --threads=8 --out="$WORK/t8" >/dev/null
python3 - "$WORK/t1/scenario_matrix_quick.json" \
          "$WORK/t8/scenario_matrix_quick.json" <<'EOF'
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
a.pop("throughput", None)
b.pop("throughput", None)
if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True):
    sys.exit("FAIL: --threads=8 artifact differs from --threads=1")
print("   thread-count invariant")
EOF

echo "PASS: scenario matrix matches the golden and is thread-count invariant"
