"""Run the benchmark on two checkouts in alternating pairs and record it.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_x.json

For each workload and seed, ``bench/run.py --trace 0`` runs once in each
checkout, the parent first on odd seeds and the change first on even ones.
Then each checkout gets one ``--trace 1`` run per workload. Every result
line is written to the output file with the git revision of each checkout,
``nproc`` and the numpy and Python versions, and the medians of the
end-to-end metrics are printed. Progress goes to standard error.
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


def revision(checkout: str) -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N (default 10)")
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args()
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
            medians = [statistics.median(r["metrics"][metric]["value"]
                                         for r in record["trace0"][side][workload])
                       for side in sides]
            print(f"{workload} {metric}: parent {medians[0]:.4g} -> change {medians[1]:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
