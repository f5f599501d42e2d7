#!/usr/bin/env python3
"""Repo benchmark for the SuDoku STTRAM reproduction.

Builds the project's libraries and the benchmark runner from source into
.bench_build/, runs one fixed-work workload in its own process and prints
its metrics; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload mc-campaign --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record-reference 0-127

--trace 0 reports the end-to-end metrics of BENCHMARK.json for the chosen
workload. --trace 1 takes no workload: it runs all three, each in
alternating untraced and traced rounds, plus the layer probes, and reports
the whole per-layer table (see README.md and metric_map.json).
mc-campaign and sim-llc draw their inputs from the seed modulo
REFERENCE_SEEDS, the range recorded in reference.json, so every run of
them is checked against a recorded reference.
The exit code is 0 only when every output check passed.
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUNNER = BUILD / "perfbench_runner"
TESTS = BUILD / "perfbench_tests"
REFERENCE = HERE / "reference.json"
TRACES = ROOT / "traces"

WORKLOADS = ("mc-campaign", "svc-mixed", "sim-llc")
REFERENCED = ("mc-campaign", "sim-llc")
REFERENCE_SEEDS = 128
TRACE_PAIRS = 3
TIME_LIMIT_S = 170.0
BUILD_JOBS = "3"

# End-to-end metrics every workload reports (BENCHMARK.json), then the
# service latencies, which only svc-mixed has.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
SVC_LATENCY = {"read_p50_us": "us", "read_p99_us": "us", "write_p50_us": "us"}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not TRACES.is_dir():
        fail(f"project sources (src/, traces/) not found next to {HERE.name}/")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", BUILD_JOBS])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed, see {log}", 1)


def runner(args, deadline):
    """Runs the benchmark runner; its progress lines go to stderr. Returns its JSON."""
    cmd = [str(RUNNER)] + [str(a) for a in args] + ["--traces", str(TRACES)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"runner timed out: {' '.join(cmd)}", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"runner failed ({proc.returncode}): {' '.join(cmd)}", 1)
    return json.loads(lines[-1])


def input_seed(workload, seed):
    return seed % REFERENCE_SEEDS if workload in REFERENCED else seed


def run_workload(workload, seed, seconds, trace, deadline, min_rounds=3):
    return runner(["run", workload, "--seed", input_seed(workload, seed),
                   "--seconds", seconds, "--trace", int(trace),
                   "--min-rounds", min_rounds], deadline)


# ---- output check against the recorded reference ------------------------

def digests(exact):
    """One digest per case or run: keys '<layer>.<case>.<count>'."""
    groups = {}
    for key, value in sorted(exact.items()):
        parts = key.split(".")
        if len(parts) < 3:
            continue
        groups.setdefault(parts[1], []).append(f"{key}={value}")
    return {g: hashlib.sha256("\n".join(v).encode()).hexdigest()[:16]
            for g, v in groups.items()}


def groups(exact):
    """Case or run names of '<layer>.<group>.<count>' keys, in order."""
    return list(dict.fromkeys(k.split(".")[1] for k in exact if k.count(".") >= 2))


def group_ops(workload, exact, group):
    key = "mc.%s.intervals" if workload == "mc-campaign" else "sim.%s.llc_accesses"
    return exact.get(key % group, 0)


def check_reference(result):
    """Failed ops and messages for groups whose counts differ from the
    reference for the run's input seed. A missing reference fails the run."""
    workload = result["workload"]
    if workload not in REFERENCED:
        return 0, []
    recorded = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref = recorded.get(workload, {}).get(str(result["seed"]))
    if ref is None:
        return result["attempted"], [f"{workload}: no reference for input seed {result['seed']}"]
    got = digests(result["exact"])
    failed, errors = 0, []
    for group in sorted(set(ref) | set(got)):
        if ref.get(group) != got.get(group):
            failed += group_ops(workload, result["exact"], group) * result["rounds"]
            errors.append(f"{workload}/{group}: counts differ from the reference")
    return failed, errors


def checked(result):
    """(attempted, failed, errors) of a runner result after all checks."""
    ref_failed, ref_errors = check_reference(result)
    errors = result["errors"] + ref_errors
    failed = min(result["attempted"], result["failed"] + ref_failed)
    if errors and failed == 0:
        failed = 1  # a failed check always counts
    return result["attempted"], failed, errors


# ---- fingerprint ---------------------------------------------------------

def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def store(name, payload, fingerprint):
    out = BUILD / "results"
    out.mkdir(parents=True, exist_ok=True)
    payload = dict(payload, fingerprint=dict(fingerprint, git_sha=git_sha()))
    (out / f"{name}.json").write_text(json.dumps(payload, indent=2) + "\n")


def metric(value, unit):
    return {"value": value, "unit": unit}


def finish(attempted, failed, errors, metrics):
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    correct = failed == 0 and not errors
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


# ---- untraced run --------------------------------------------------------

def end_to_end(result, failed):
    values = result["values"]
    metrics = {k: metric(values[k], u) for k, u in END_TO_END.items()}
    extra = {k: metric(values[k], u) for k, u in SVC_LATENCY.items() if k in values}
    extra["fail_frac"] = metric(failed / max(1, result["attempted"]), "ratio")
    return metrics, extra


def print_table(rows):
    for workload, name, m in rows:
        print(f"  {workload:<12} {name:<14} {m['value']:>16.6g} {m['unit']}")


def untraced(args, deadline):
    """Each named workload in its own process. One workload reports its
    end-to-end metrics; --workload all prints every workload/metric pair."""
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    errors, rows, metrics = [], [], {}
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, False, deadline)
        a, f, e = checked(result)
        attempted, failed, errors = attempted + a, failed + f, errors + e
        m, extra = end_to_end(result, f)
        store(f"{workload}-seed{args.seed}-trace0",
              {"metrics": m, "extra": extra, "errors": e, "runner": result},
              result["fingerprint"])
        print(f"{workload}: {result['rounds']} rounds, input seed {result['seed']}")
        rows += [(workload, k, v) for k, v in {**m, **extra}.items()]
        if len(workloads) == 1:
            metrics = m
        else:
            metrics.update({f"{workload}/{k}": v for k, v in {**m, **extra}.items()})
    print_table(rows)
    finish(attempted, failed, errors, metrics)


# ---- traced run ----------------------------------------------------------

def per_layer(runs, layers):
    """The per-layer table of BENCHMARK.json from the paired traced runs and
    the layer probes (names and units come from BENCHMARK.json)."""
    mc, svc, sim = (runs[w] for w in WORKLOADS)
    probe = layers["values"]
    flat = {}
    for result in (mc, svc, sim):
        flat.update(result["values"])
        flat.update(result["exact"])
    flat.update(probe)
    for name in SVC_LATENCY:
        flat[f"svc-mixed.{name}"] = svc["untraced"][name]

    # Attribution: layer cost x event count over the timed wall time.
    cases = groups(mc["exact"])
    mc_cost = sum(mc["exact"][f"mc.{c}.intervals"] * probe[f"mc.{c}.layer_us_per_trial"]
                  for c in cases) * 1e-6
    mc_wall = sum(mc["values"][f"mc.{c}.wall_s"] for c in cases)
    flat["mc-campaign.explained_frac"] = mc_cost / (mc["values"]["exp.pool_threads"] * mc_wall)
    sim_cost = sim_wall = 0.0
    for run in groups(sim["exact"]):
        accesses = (sim["exact"][f"sim.{run}.llc_accesses"]
                    + sim["values"][f"sim.{run}.warmup_accesses"])
        per_access = probe["cache.access_ns"]
        if run.startswith("mix"):  # synthetic sources generate every access
            per_access += probe["sim.tracegen_ns"]
        sim_cost += accesses * per_access
        sim_cost += sim["exact"][f"sim.{run}.dram_accesses"] * probe["dram.access_ns"]
        sim_wall += sim["values"][f"sim.{run}.host_s"]
    flat["sim-llc.explained_frac"] = sim_cost * 1e-9 / sim_wall
    for w in WORKLOADS:
        flat[f"{w}.trace_overhead_frac"] = runs[w]["values"]["trace_overhead_frac"]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: metric(flat[m["name"]], m["unit"]) for m in spec}


def traced(args, deadline):
    """Every workload, whatever --workload names: the per-layer table spans
    all three. Each runs at least TRACE_PAIRS untraced/traced round pairs."""
    share = max(1.0, float(args.seconds) / len(WORKLOADS))
    runs, attempted, failed, errors = {}, 0, 0, []
    for w in WORKLOADS:
        result = run_workload(w, args.seed, share, True, deadline, min_rounds=TRACE_PAIRS)
        a, f, e = checked(result)
        attempted, failed, errors = attempted + a, failed + f, errors + e
        runs[w] = result
    layers = runner(["layers", "--seed", args.seed, "--seconds", 0], deadline)
    failed += layers["failed"]
    errors += layers["errors"]
    table = per_layer(runs, layers)
    for name, m in table.items():
        print(f"  {name:<38} {m['value']:>16.6g} {m['unit']}")
    store(f"trace-seed{args.seed}",
          {"per_layer": table, "errors": errors, "runs": runs, "layers": layers},
          layers["fingerprint"])
    finish(attempted, failed, errors, table)


# ---- maintenance modes -----------------------------------------------------

def record_reference(spec):
    lo, _, hi = spec.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    if seeds.start < 0 or seeds.stop > REFERENCE_SEEDS:
        fail(f"input seeds are 0-{REFERENCE_SEEDS - 1}")
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}

    def one(job):
        workload, seed = job
        result = runner(["run", workload, "--seed", seed, "--seconds", 0,
                         "--trace", 0, "--min-rounds", 1], time.monotonic() + TIME_LIMIT_S)
        if result["errors"]:
            fail(f"{workload} seed {seed}: {result['errors']}", 1)
        return workload, seed, digests(result["exact"])

    jobs = [(w, s) for w in ("mc-campaign", "sim-llc") for s in seeds]
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        for workload, seed, d in pool.map(one, jobs):
            ref.setdefault(workload, {})[str(seed)] = d
    for workload in ref:
        ref[workload] = dict(sorted(ref[workload].items(), key=lambda kv: int(kv[0])))
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=False) + "\n")
    print(f"recorded {len(jobs)} references into {REFERENCE.name}")


def selftest():
    proc = subprocess.run([str(TESTS)])
    sys.exit(proc.returncode)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true", help="build and run the benchmark's tests")
    p.add_argument("--record-reference", metavar="LO-HI",
                   help="record output-check references for a seed range")
    args = p.parse_args()
    if not (args.workload or args.selftest or args.record_reference):
        p.error("--workload is required")
    build()
    deadline = time.monotonic() + TIME_LIMIT_S
    os.chdir(ROOT)
    if args.selftest:
        selftest()
    elif args.record_reference:
        record_reference(args.record_reference)
    elif args.trace:
        traced(args, deadline)
    else:
        untraced(args, deadline)


if __name__ == "__main__":
    main()
