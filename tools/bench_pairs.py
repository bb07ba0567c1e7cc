"""Run the benchmark on two checkouts in alternating pairs and record it.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_x.json

For each workload and seed, ``bench/run.py --trace 0`` runs once in each
checkout, the parent first on odd seeds and the change first on even ones.
Then each checkout gets one ``--trace 1`` run per workload. Every result
line is written to the output file with the git revision of each checkout
(null for a directory that is not a git checkout), ``nproc`` and the numpy
and Python versions. For each workload and end-to-end metric it prints each
side's median and quartiles and the number of pairs in which the change
reads lower (ties count for neither side), then a gain verdict:
``resolved`` when the change reads lower in at least 9 of 10 pairs and its
median is below the parent's by more than the parent's Q3 - Q1, else
``unresolved``; and a no-regression verdict against the metric's
``bound`` in ``BENCHMARK.json``, read as a fraction of the parent's median:
``unresolved`` when the parent's Q3 - Q1 is wider than that margin, unless
every change run is below every parent run; else ``worse`` when the
change's median exceeds the parent's by more than the margin, else ``no
worse``. Lower is better for every end-to-end metric. Progress goes to
standard error.
The exit code is 1 if any run reported ``"correct": false`` or a failed
operation, which ``bench/run.py`` itself does not signal in its exit code.
If a run exits non-zero, or exits 0 with a last line of output that is not
a JSON result, the runs made before it are written to the output file, and
the exit code is 1 with a message naming the checkout, side, workload, seed
and trace of that run and its exit code or last line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))
WORKLOADS = tuple(workload["name"] for workload in BENCHMARK["workloads"])
BOUNDS = {metric["name"]: metric["bound"] for metric in BENCHMARK["end_to_end"]}


def run_bench(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    last = (done.stdout.strip().splitlines() or [""])[-1]
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        raise ValueError(f"{done.stderr}bench/run.py exited 0 with a last line that is "
                         f"not a JSON result, {last!r},")
    result["seed"] = seed
    return result


def summary(values: list[float]) -> str:
    """Median [Q1, Q3] of one side's runs."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(parent: list[float], change: list[float]) -> str:
    """Whether the change reads lower than the parent beyond the noise: in
    at least 9 of 10 pairs, and by more than the parent's interquartile
    range between the medians."""
    q1, median, q3 = statistics.quantiles(parent, n=4)
    lower = sum(c < p for p, c in zip(parent, change))
    resolved = 10 * lower >= 9 * len(parent) and median - statistics.median(change) > q3 - q1
    return "resolved" if resolved else "unresolved"


def no_regression(parent: list[float], change: list[float], bound: float) -> str:
    """Whether the change reads worse than the parent by more than ``bound``
    times the parent's median, the margin; ``unresolved`` when the parent's
    interquartile range is wider than the margin, unless every change run
    is below every parent run."""
    q1, median, q3 = statistics.quantiles(parent, n=4)
    margin = bound * median
    if q3 - q1 > margin and not max(change) < min(parent):
        return "unresolved"
    return "worse" if statistics.median(change) - median > margin else "no worse"


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
    runs = [(workload, seed, side, 0) for workload in WORKLOADS
            for seed in range(1, args.seeds + 1)
            for side in (("parent", "change") if seed % 2 else ("change", "parent"))]
    runs += [(workload, 1, side, 1) for workload in WORKLOADS for side in sides]
    crashed = None
    for workload, seed, side, trace in runs:
        try:
            result = run_bench(sides[side], workload, seed, args.seconds, trace)
        except subprocess.CalledProcessError as error:
            crashed = f"{error.stderr or ''}bench/run.py exited {error.returncode}"
        except ValueError as error:
            crashed = str(error)
        if crashed:
            crashed += (f" in {sides[side]} ({side}), workload {workload}, seed {seed}, "
                        f"trace {trace}; the runs before it are in {args.out}")
            break
        if trace:
            record["trace1"][side][workload] = result
        else:
            record["trace0"][side][workload].append(result)
            print(f"{workload} seed {seed} {side}: "
                  f"{json.dumps(result['metrics'])} correct={result['correct']}",
                  file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if crashed:
        print(crashed, file=sys.stderr)
        return 1
    for workload in WORKLOADS:
        for metric, bound in BOUNDS.items():
            parent, change = ([r["metrics"][metric]["value"]
                               for r in record["trace0"][side][workload]] for side in sides)
            lower = sum(c < p for p, c in zip(parent, change))
            print(f"{workload} {metric}: parent {summary(parent)} -> change {summary(change)}; "
                  f"change lower in {lower}/{len(parent)} pairs")
            print(f"{workload} {metric} verdict: {verdict(parent, change)}")
            print(f"{workload} {metric} no-regression verdict: "
                  f"{no_regression(parent, change, bound)}")
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
