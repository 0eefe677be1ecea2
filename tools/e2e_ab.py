#!/usr/bin/env python3
"""Interleaved A/B of the end-to-end benchmark between two source trees.

Usage:
    python3 tools/e2e_ab.py PARENT_TREE CHANGE_TREE --workload W \\
        --pairs N --seed0 S [--seconds 40] [--trace 0|1]

Each tree is a checkout holding BENCHMARK.json and bench_e2e/run.py (for
example a `git archive` of each commit). Pair i runs
`python3 bench_e2e/run.py --workload W --seed S+i --seconds T --trace X` once
in each tree, both on seed S+i; even pairs run the parent first, odd pairs
the change first, so drift in the host's speed hits both sides alike.
run.py builds each tree's benchmark on first use.

For every metric BENCHMARK.json lists for the mode (end_to_end for
--trace 0, per_layer for --trace 1) it prints each side's median [Q1, Q3],
the change of the median against the parent, how many pairs the change won
(strictly better in the metric's direction), the parent's interquartile
range, and whether the two sides gave the identical value in every pair.
It also compares the seed-deterministic counts (offered, blocked, cost_sum)
that run.py records for each run.

Read-only on both trees' BENCHMARK.json and bench_e2e/. Exit status: 0 when
every run passed its own checks and no end-to-end median is worse than the
metric's bound, 1 otherwise, 2 when a run could not be made at all.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys


def load_spec(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return json.load(f)


def deterministic_counts(tree, workload, seed, trace):
    """The counts run.py recorded for this run, keyed by binary hash."""
    build = os.path.join(tree, ".bench_build", "bench_e2e")
    binary = os.path.join(build, "bench_e2e")
    try:
        with open(binary, "rb") as f:
            binary_id = hashlib.sha256(f.read()).hexdigest()[:16]
        key = f"{workload}-seed{seed}-trace{trace}-{binary_id}.json"
        with open(os.path.join(build, "determinism", key)) as f:
            return json.load(f)
    except OSError:
        return None


def run_once(tree, args, seed):
    cmd = [sys.executable, os.path.join("bench_e2e", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"e2e_ab: {tree}: run.py exited with status "
                 f"{proc.returncode} (seed {seed})")
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    det = deterministic_counts(tree, args.workload, seed, args.trace)
    return {"correct": result["correct"], "metrics": metrics, "det": det}


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def fmt(x):
    return f"{x:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed0", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.pairs < 1 or args.seed0 < 0 or args.seconds <= 0:
        sys.exit("e2e_ab: --pairs must be >= 1, --seed0 >= 0, --seconds > 0")
    trees = [os.path.abspath(args.parent), os.path.abspath(args.change)]
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "bench_e2e", "run.py")):
            sys.exit(f"e2e_ab: {tree} holds no bench_e2e/run.py")

    spec = load_spec(trees[0])
    group = spec["per_layer"] if args.trace else spec["end_to_end"]

    runs = [[], []]  # per side, in pair order
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            runs[side].append(run_once(trees[side], args, seed))
        p, c = runs[0][-1], runs[1][-1]
        print(f"pair {i + 1}/{args.pairs} seed {seed}: "
              f"parent {'ok' if p['correct'] else 'FAILED'}, "
              f"change {'ok' if c['correct'] else 'FAILED'}, "
              f"deterministic counts "
              f"{'identical' if p['det'] == c['det'] else 'DIFFER'}",
              flush=True)

    print(f"\n# {args.workload}: {args.pairs} interleaved pairs, seeds "
          f"{args.seed0}-{args.seed0 + args.pairs - 1}, {args.seconds:g} s, "
          f"trace {args.trace}")
    header = (f"{'metric':36} {'parent median [Q1, Q3]':34} "
              f"{'change median [Q1, Q3]':34} {'delta':>8} {'won':>6} "
              f"{'parent IQR':>11} identical")
    print(header)
    failed = False
    for m in group:
        name, better = m["name"], m["better"]
        sides = []
        for side in (0, 1):
            xs = [r["metrics"].get(name) for r in runs[side]]
            if any(x is None for x in xs):
                sides = None
                break
            sides.append(xs)
        if sides is None:
            print(f"{name:36} (missing from a run)")
            failed = True
            continue
        pq = quartiles(sides[0])
        cq = quartiles(sides[1])
        sign = 1.0 if better == "higher" else -1.0
        won = sum(1 for a, b in zip(*sides) if sign * (b - a) > 0)
        identical = all(a == b for a, b in zip(*sides))
        delta = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
        iqr = pq[2] - pq[0]
        iqr_rel = iqr / abs(pq[1]) if pq[1] else 0.0
        note = ""
        bound = m.get("bound")
        if bound is not None and sign * delta < -bound:
            note = f"  WORSE THAN BOUND {bound:g}"
            failed = True
        print(f"{name:36} "
              f"{fmt(pq[1]) + ' [' + fmt(pq[0]) + ', ' + fmt(pq[2]) + ']':34} "
              f"{fmt(cq[1]) + ' [' + fmt(cq[0]) + ', ' + fmt(cq[2]) + ']':34} "
              f"{delta * 100:+7.1f}% {won:>2}/{args.pairs:<3} "
              f"{iqr_rel * 100:10.1f}% {'yes' if identical else 'no'}{note}")

    det_same = all(a["det"] is not None and a["det"] == b["det"]
                   for a, b in zip(*runs))
    print(f"deterministic counts identical in every pair: "
          f"{'yes' if det_same else 'NO'}")
    if not all(r["correct"] for side in runs for r in side):
        print("a run failed its own checks")
        failed = True
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
