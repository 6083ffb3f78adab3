#!/usr/bin/env python3
"""Build the simulator and run one benchmark workload.

    python3 perfbench/run.py --workload micro --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) inside the checkout; nothing is written outside
it. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end_to_end list of BENCHMARK.json, with --trace 1 the per_layer
list; the traced run also writes its spans to
<build>/spans/<workload>-<seed>.jsonl.

Exits non-zero without printing a result when the build fails, the
benchmark crashes or overruns, or its output lacks a promised metric.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args, out):
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-{args.seed}.jsonl")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} overran {RUN_TIMEOUT_S}s")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"workload {args.workload} exited with {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark printed no result line")

    want = expected_metrics(args.trace)
    got = result.get("metrics", {})
    if set(got) != set(want):
        fail("metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}")
    for name, unit in want.items():
        if got[name].get("unit") != unit:
            fail(f"{name}: unit {got[name].get('unit')} != {unit}")
    if result.get("attempted", 0) < 1:
        fail("no operation attempted")

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": got}))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload",
                   choices=["micro", "serve", "fleet", "kmodule"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own unit tests")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    out = build_dir()
    build(out)
    if args.selftest:
        r = subprocess.run([os.path.join(out, "perfbench_selftest")])
        sys.exit(r.returncode)
    run_workload(args, out)


if __name__ == "__main__":
    main()
