#!/usr/bin/env bash
# Crash-resume end-to-end check (docs/robustness.md) for any engine-backed
# bench, run in CI against the Release build:
#
#   1. uninterrupted reference run
#   2. checkpointed run, SIGTERM'd mid-flight -> must exit 75 ("interrupted,
#      resumable") with finished shards persisted (or 0 if it won the race)
#   3. --resume run -> must exit 0 and replay the checkpointed shards
#   4. the resumed artifact must equal the reference byte-for-byte outside
#      the wall-clock "throughput" section
#
# Usage: scripts/ci_crash_resume.sh <path-to-bench_NAME> [bench args...]
#   The artifact is <NAME>.json. Extra args (e.g. --scale=K, to make the
#   run long enough that the kill lands mid-flight) go to every run.
set -euo pipefail

BENCH=${1:?usage: $0 <path-to-bench_NAME> [bench args...]}
shift
NAME=$(basename "$BENCH")
NAME=${NAME#bench_}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo "== $NAME: reference run (no checkpoint)"
"$BENCH" --threads=4 "$@" --out="$WORK/ref" >/dev/null

echo "== checkpointed run, SIGTERM mid-flight"
"$BENCH" --threads=4 "$@" --out="$WORK/victim" --checkpoint="$WORK/ckpt" >/dev/null &
PID=$!
sleep 0.4
kill -TERM "$PID" 2>/dev/null || true
set +e
wait "$PID"
STATUS=$?
set -e
echo "   interrupted run exited $STATUS"
if [[ $STATUS -ne 75 && $STATUS -ne 0 ]]; then
  echo "FAIL: expected exit 75 (interrupted, resumable) or 0 (finished first), got $STATUS"
  exit 1
fi

SAVED=$(find "$WORK/ckpt" -name 'shard-*.json' | wc -l)
echo "   $SAVED shard checkpoint(s) persisted"

echo "== resume"
"$BENCH" --threads=4 "$@" --out="$WORK/resumed" --checkpoint="$WORK/ckpt" --resume \
  | grep -E "fault tolerance" || true

echo "== compare artifacts (throughput section carries wall-clock and is ignored)"
python3 - "$WORK/ref/$NAME.json" "$WORK/resumed/$NAME.json" <<'PY'
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
a.pop("throughput", None)
b.pop("throughput", None)
sa, sb = (json.dumps(x, sort_keys=True) for x in (a, b))
if sa != sb:
    sys.exit("FAIL: resumed artifact differs from uninterrupted reference")
print("   artifacts identical outside throughput")
PY

echo "PASS: crash-resume produced a byte-identical artifact"
