#!/usr/bin/env python3
"""End-to-end benchmark of the simulator's request path.

Usage (from the repository root):
    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds bench_e2e (CMake, Release) from the sources in src/ into .bench_build/,
runs one workload, and prints the metric table followed by one JSON result
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones in BENCHMARK.json, with --trace 1 the
per-layer ones. Times are scaled to the speed of a reference host by
calibration slices run between route calls (bench_e2e/NOTES.md, "Noise and
bounds"). Besides the checks the binary makes, the seed-deterministic
counts (offered, blocked, cost) of every run are recorded, and a later run of
the same binary, workload, seed and mode must reproduce them exactly.

Exit status: 0 when every check passed, 1 when a check failed, 2 when the
benchmark could not run (bad arguments, no sources, build failure).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "bench_e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"bench_e2e: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "simulator.hpp")):
        die("library sources (src/) not found next to the benchmark")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_determinism(det, args):
    """Compares the deterministic counts with the record of an earlier run of
    the same binary, workload, seed and mode; records them on first sight."""
    with open(BINARY, "rb") as f:
        binary_id = hashlib.sha256(f.read()).hexdigest()[:16]
    key = f"{args.workload}-seed{args.seed}-trace{args.trace}-{binary_id}.json"
    path = os.path.join(BUILD, "determinism", key)
    if os.path.isfile(path):
        with open(path) as f:
            if json.load(f) != det:
                return f"deterministic counts differ from an earlier run: {det}"
        return None
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(det, f)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        die(f"benchmark binary exited with status {proc.returncode}")

    result = json.loads(lines[-1])
    det = None
    for line in lines[:-1]:
        if line.startswith("DETERMINISTIC "):
            det = json.loads(line[len("DETERMINISTIC "):])
        else:
            print(line)

    problems = []
    if det is None:
        problems.append("no deterministic counts printed")
    else:
        mismatch = check_determinism(det, args)
        if mismatch:
            problems.append(mismatch)
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics {sorted(got.items())} != BENCHMARK.json "
                        f"{sorted(want.items())}")
    for p in problems:
        print(f"FAILURE: {p}")
    if problems:
        result["correct"] = False
        result["failed"] += len(problems)

    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
