"""Run the benchmark on two checkouts in alternating pairs and record it.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_x.json

For each workload and seed, ``bench/run.py --trace 0`` runs once in each
checkout, the parent first on odd seeds and the change first on even ones.
Then each checkout gets one ``--trace 1`` run per workload. Every result
line is written to the output file with the git revision of each checkout
(null for a directory that is not a git checkout), ``nproc`` and the numpy
and Python versions. For each workload and end-to-end metric it prints each
side's median and quartiles and the number of pairs in which the change
reads lower (ties count for neither side). Progress goes to standard error.
The exit code is 1 if any run reported ``"correct": false`` or a failed
operation, which ``bench/run.py`` itself does not signal in its exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

WORKLOADS = ("verify", "ensemble", "survey")
METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def run_bench(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    return result


def summary(values: list[float]) -> str:
    """Median [Q1, Q3] of one side's runs."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def revision(checkout: str) -> str | None:
    """The git HEAD of ``checkout``, or None if it is not the top of a git
    checkout (a copy made with ``git archive``, say)."""
    done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    lines = done.stdout.split()
    if done.returncode or lines[0] != os.path.realpath(checkout):
        return None
    return lines[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N (default 10)")
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args()
    if args.seeds < 2:
        parser.error("--seeds must be at least 2, to give quartiles")
    sides = {"parent": args.parent, "change": args.change}
    record = {
        "revisions": {side: revision(path) for side, path in sides.items()},
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seconds": args.seconds,
        "trace0": {side: {w: [] for w in WORKLOADS} for side in sides},
        "trace1": {side: {} for side in sides},
    }
    for workload in WORKLOADS:
        for seed in range(1, args.seeds + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                result = run_bench(sides[side], workload, seed, args.seconds, 0)
                record["trace0"][side][workload].append(result)
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps(result['metrics'])} correct={result['correct']}",
                      file=sys.stderr)
    for workload in WORKLOADS:
        for side in sides:
            record["trace1"][side][workload] = run_bench(sides[side], workload, 1,
                                                         args.seconds, 1)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for workload in WORKLOADS:
        for metric in METRICS:
            parent, change = ([r["metrics"][metric]["value"]
                               for r in record["trace0"][side][workload]] for side in sides)
            lower = sum(c < p for p, c in zip(parent, change))
            print(f"{workload} {metric}: parent {summary(parent)} -> change {summary(change)}; "
                  f"change lower in {lower}/{len(parent)} pairs")
    bad = [f"{kind} {side} {workload} seed {result['seed']}"
           for kind in ("trace0", "trace1") for side in sides
           for workload, results in record[kind][side].items()
           for result in (results if kind == "trace0" else [results])
           if not result["correct"] or result["failed"] > 0]
    for run in bad:
        print(f"incorrect run or failed operations: {run}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
