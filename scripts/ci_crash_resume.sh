#!/usr/bin/env bash
# Crash-resume end-to-end check (docs/robustness.md) for any engine-backed
# bench, run in CI against the Release build:
#
#   1. uninterrupted reference run
#   2. checkpointed run, SIGTERM'd mid-flight -> must exit 75 ("interrupted,
#      resumable") with finished shards persisted. Exit 0 fails the check:
#      the run finished before the kill landed, so nothing was resumed —
#      scale the run up (--scale=K) until it outlasts the kill delay
#   3. --resume run -> must exit 0 and replay the checkpointed shards
#   4. every resumed artifact must equal the reference byte-for-byte
#      outside the wall-clock "throughput" section
#
# Usage: scripts/ci_crash_resume.sh <path-to-bench_NAME> [bench args...]
#   Extra args (e.g. --scale=K, to make the run long enough that the kill
#   lands mid-flight, or --quick) go to every run. Every JSON artifact the
#   reference run writes is compared.
set -euo pipefail

BENCH=${1:?usage: $0 <path-to-bench_NAME> [bench args...]}
shift
NAME=$(basename "$BENCH")
NAME=${NAME#bench_}
KILL_AFTER_S=0.4
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo "== $NAME: reference run (no checkpoint)"
"$BENCH" --threads=4 "$@" --out="$WORK/ref" >/dev/null

echo "== checkpointed run, SIGTERM mid-flight"
"$BENCH" --threads=4 "$@" --out="$WORK/victim" --checkpoint="$WORK/ckpt" >/dev/null &
PID=$!
sleep "$KILL_AFTER_S"
kill -TERM "$PID" 2>/dev/null || true
set +e
wait "$PID"
STATUS=$?
set -e
echo "   interrupted run exited $STATUS"
if [[ $STATUS -eq 0 ]]; then
  echo "FAIL: the run finished within ${KILL_AFTER_S} s, before the kill landed; raise --scale"
  exit 1
fi
if [[ $STATUS -ne 75 ]]; then
  echo "FAIL: expected exit 75 (interrupted, resumable), got $STATUS"
  exit 1
fi

SAVED=$(find "$WORK/ckpt" -name 'shard-*.json' | wc -l)
echo "   $SAVED shard checkpoint(s) persisted"

echo "== resume"
"$BENCH" --threads=4 "$@" --out="$WORK/resumed" --checkpoint="$WORK/ckpt" --resume \
  | grep -E "fault tolerance" || true

echo "== compare artifacts (throughput section carries wall-clock and is ignored)"
python3 - "$WORK/ref" "$WORK/resumed" <<'PY'
import json, pathlib, sys
ref, resumed = map(pathlib.Path, sys.argv[1:])
names = sorted(p.name for p in ref.glob("*.json"))
if not names:
    sys.exit("FAIL: the reference run wrote no artifact")
for name in names:
    a = json.load(open(ref / name))
    b = json.load(open(resumed / name))
    a.pop("throughput", None)
    b.pop("throughput", None)
    if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True):
        sys.exit(f"FAIL: resumed {name} differs from uninterrupted reference")
    print(f"   {name} identical outside throughput")
PY

echo "PASS: crash-resume produced a byte-identical artifact"
