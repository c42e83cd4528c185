#!/usr/bin/env python3
"""Build the irrnet benchmark and run workloads, each in its own process.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is built from source with
cargo (offline) into $CARGO_TARGET_DIR, or .bench_build when that is unset.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. With --workload all the
metric names are prefixed with the workload name. Scratch output (campaign
directories, span dumps, the workload's own log) goes to .bench_out/.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ["paper-load", "giant-fabric", "campaign-mix"]
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 880
# A workload must end within 180 s of its start; leave room for the wrapper.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail(f"build failed (exit {r.returncode})")
    return target / "release" / "irrnet-perfbench"


def run_workload(binary, workload, args):
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    result = out / f"{workload}.result.json"
    log = out / f"{workload}.log"
    result.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--result", str(result)]
    # The campaign prints its tables and unit progress; keep them in the
    # log so standard output carries only the report.
    with open(log, "w") as f:
        try:
            r = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"{workload}: timed out after {RUN_TIMEOUT_S} s (log: {log})")
    if r.returncode != 0 or not result.exists():
        tail = log.read_text(errors="replace").splitlines()[-20:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"{workload}: exit {r.returncode} (log: {log})")
    with open(result) as f:
        return json.load(f)


def listed(res, workload, trace):
    """The metrics BENCHMARK.json lists for this mode, in its order; every
    one must be reported. Without BENCHMARK.json, all of them."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return res["metrics"]
    spec = json.loads(spec_path.read_text())
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in want if n not in res["metrics"]]
    if missing:
        fail(f"{workload}: metrics missing from the result: {', '.join(missing)}")
    return {n: res["metrics"][n] for n in want}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds within 1..120")

    started = time.monotonic()
    binary = build()
    print(f"built in {time.monotonic() - started:.1f} s", file=sys.stderr)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        res = run_workload(binary, w, args)
        metrics = listed(res, w, args.trace)
        print(f"== {w} (seed {args.seed}, {args.seconds} s, trace {args.trace})")
        for line in res["report"]:
            print(line)
        for name, m in res["metrics"].items():
            print(f"{w} {name} = {m['value']} {m['unit']}")
        print(f"{w}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        prefix = f"{w}." if args.workload == "all" else ""
        for name, m in metrics.items():
            total["metrics"][prefix + name] = m
    print(json.dumps(total))


if __name__ == "__main__":
    main()
