#!/usr/bin/env python3
"""Compare the simulated fields of two sets of bench results.

    python3 tools/bench_simdiff.py A_DIR B_DIR

Every BENCH_*.json in A_DIR is compared with the file of the same name
in B_DIR, value by value. Simulated fields (cycle counts, simulated
seconds, overheads, request and fault counts, ...) must be identical:
the simulator is deterministic, so two runs of one build, or a run of
a change that only makes the host faster, produce byte-identical
simulated output. Keys that measure the host instead are skipped:

  - host_seconds   wall-clock time of the whole bench
  - host_*         any other host-side measurement
  - *_wall_ms      host time of one phase (mverify_wall_ms, ...)

Exits 0 when every file matches, 1 on any simulated difference or on a
file present in only one directory (each difference is printed), and
2 when there is nothing to compare.
"""

import json
import os
import sys


def host_key(key):
    return (key == "host_seconds" or key.startswith("host_")
            or key.endswith("_wall_ms"))


def diff(a, b, path, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if host_key(key):
                continue
            sub = f"{path}.{key}"
            if key not in a or key not in b:
                side = "B" if key not in a else "A"
                out.append(f"{sub}: only in {side}")
            else:
                diff(a[key], b[key], sub, out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            diff(x, y, f"{path}[{i}]", out)
    elif a != b or type(a) is not type(b):
        out.append(f"{path}: {json.dumps(a)} != {json.dumps(b)}")


def bench_files(d):
    return {f for f in os.listdir(d)
            if f.startswith("BENCH_") and f.endswith(".json")}


def main(argv):
    if len(argv) != 3:
        print("usage: bench_simdiff.py A_DIR B_DIR", file=sys.stderr)
        return 2
    a_dir, b_dir = argv[1], argv[2]
    a_files, b_files = bench_files(a_dir), bench_files(b_dir)
    if not a_files and not b_files:
        print(f"bench_simdiff: no BENCH_*.json in {a_dir} or {b_dir}",
              file=sys.stderr)
        return 2
    differences = []
    for name in sorted(a_files ^ b_files):
        side = a_dir if name in a_files else b_dir
        differences.append(f"{name}: only in {side}")
    for name in sorted(a_files & b_files):
        with open(os.path.join(a_dir, name)) as f:
            a = json.load(f)
        with open(os.path.join(b_dir, name)) as f:
            b = json.load(f)
        found = []
        diff(a, b, "", found)
        differences += [f"{name}{d}" for d in found]
        print(f"{name}: {'identical' if not found else 'DIFFERS'}")
    for d in differences:
        print(d)
    if differences:
        print(f"bench_simdiff: {len(differences)} simulated "
              f"difference(s)")
        return 1
    print(f"bench_simdiff: {len(a_files)} file(s) identical in every "
          f"simulated field")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
