"""mirrorfield benchmark: time, check and trace the CLI on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload verify|ensemble|survey --seed N \
        --seconds S --trace 0|1

With ``--trace 0`` every command of the workload runs as its own
subprocess, one after another (a closed loop with one client), and the
whole command list is repeated while the next pass fits in ``--seconds``.
It reports the end-to-end metrics: the median serial wall time of a pass,
the median time of a fresh ``import mirrorfield``, and the largest
per-command peak RSS. With ``--trace 1`` the same argv lists are passed to
``mirrorfield.cli.main`` in this process, once untraced and once with the
tracer installed, and the per-layer metrics are reported.

Every command's exit code and output are checked; a wrong code or a failed
check counts as a failed operation. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
COMMAND_TIMEOUT_S = 120.0
SETUP_PER_PASS = 2

if not (SRC / "mirrorfield" / "__init__.py").is_file():
    sys.exit(f"bench: no mirrorfield sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))
# One BLAS thread, here and in every child. On a shared 2-core machine the
# second OpenBLAS thread of oracle-verify's matrix products mostly
# spin-waits: it doubles user time, leaves wall time within noise and makes
# that time depend on the load next door.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import mirrorfield  # noqa: E402
from mirrorfield import cli  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS, Op, make_ops  # noqa: E402


def _inside_checkout(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC)


def child_env(threads: int = 1) -> dict:
    """Environment for a CLI subprocess: absolute src first on PYTHONPATH."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    env["MIRRORFIELD_THREADS"] = str(threads)
    return env


def spawn(argv: list[str], cwd: Path, env: dict, stdout_path: Path):
    """Run one child to completion; return (exit code, wall s, peak RSS MB).

    The child is reaped with ``os.wait4`` so its rusage is its own, not the
    cumulative maximum over every child this process has waited for.
    """
    with open(stdout_path, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=sink,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # Popen must not wait again
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup(scratch: Path, repeats: int) -> list[float]:
    """Wall times of a fresh interpreter importing mirrorfield.

    Each run also checks that the package came from this checkout.
    """
    argv = [sys.executable, "-c", "import mirrorfield; print(mirrorfield.__file__)"]
    out = scratch / "setup.out"
    times = []
    for _ in range(repeats):
        code, wall, _ = spawn(argv, scratch, child_env(), out)
        location = out.read_text(encoding="utf-8").strip()
        if code != 0 or not _inside_checkout(location):
            sys.exit(f"bench: import mirrorfield failed or resolved outside "
                     f"{SRC}: {location!r}")
        times.append(wall)
    return times


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, op: Op, code: int, directory: Path) -> None:
        self.attempted += 1
        reason = None
        if code != op.expect_code:
            reason = f"exit {code}, expected {op.expect_code}"
        elif op.check is not None:
            try:
                op.check(directory)
            except Exception as exc:  # any broken output is a failed operation
                reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{op.name}: {reason}")
                print(f"bench: FAILED {op.name}: {reason}", file=sys.stderr)


def _prepare(op: Op, pass_dir: Path) -> Path:
    directory = pass_dir / op.cwd
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in op.files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


def subprocess_pass(ops: list[Op], pass_dir: Path, tally: Tally) -> tuple[float, float]:
    """Run every op as a subprocess; return (serial wall s, max peak RSS MB)."""
    total, peak = 0.0, 0.0
    for op in ops:
        directory = _prepare(op, pass_dir)
        argv = [sys.executable, "-m", "mirrorfield", *op.argv]
        code, wall, rss = spawn(argv, directory, child_env(op.threads),
                                pass_dir / "last.out")
        total += wall
        peak = max(peak, rss)
        tally.record(op, code, directory)
    return total, peak


def inprocess_pass(ops: list[Op], pass_dir: Path, tally: Tally,
                   recorder: tracer.Tracer | None) -> float:
    """Call cli.main for every op in this process; return serial wall s."""
    total = 0.0
    previous = os.getcwd(), os.environ.get("MIRRORFIELD_THREADS")
    try:
        for op in ops:
            directory = _prepare(op, pass_dir)
            os.chdir(directory)
            os.environ["MIRRORFIELD_THREADS"] = str(op.threads)
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    if recorder is None:
                        code = cli.main(op.argv)
                    else:
                        code = recorder.call(lambda: cli.main(op.argv))
                except SystemExit as exc:  # argparse rejects bad flags this way
                    code = exc.code if isinstance(exc.code, int) else 2
            total += time.perf_counter() - start
            tally.record(op, code, directory)
    finally:
        os.chdir(previous[0])
        if previous[1] is None:
            os.environ.pop("MIRRORFIELD_THREADS", None)
        else:
            os.environ["MIRRORFIELD_THREADS"] = previous[1]
    return total


def repeat_passes(run_pass, seconds: float) -> list:
    """Call ``run_pass(i)`` at least once, and again while the next fits."""
    results, start = [], time.perf_counter()
    while True:
        results.append(run_pass(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def _metric(value, unit):
    return {"value": value, "unit": unit}


PER_LAYER_UNITS = {"self_s": "s", "ns_per_term": "ns", "ns_per_traj_step": "ns",
                   "us_per_rk4_step": "us", "us_per_row": "us", "bytes": "B",
                   "worst_margin": "1", "jump_frac": "1", "overhead_s": "s"}


def end_to_end(ops, scratch, seconds, tally) -> dict:
    # An untimed import first, so that compiling bytecode in a fresh checkout
    # is not counted; then set-up samples before every pass, so that they see
    # the same machine as the passes do.
    measure_setup(scratch, 1)
    setup = []

    def one_pass(i):
        setup.extend(measure_setup(scratch, SETUP_PER_PASS))
        wall, rss = subprocess_pass(ops, Path(tempfile.mkdtemp(dir=scratch)), tally)
        print(f"bench: pass {i}: wall {wall:.4f} s, peak RSS {rss:.1f} MB, set-up "
              + " ".join(f"{v:.4f}" for v in setup[-SETUP_PER_PASS:]), file=sys.stderr)
        return wall, rss

    passes = repeat_passes(one_pass, seconds)
    return {
        "wall_s": _metric(statistics.median(w for w, _ in passes), "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(statistics.median(r for _, r in passes), "MB"),
    }


def per_layer(ops, scratch, seconds, tally, workload, seed) -> dict:
    samples, all_spans = [], []

    def one_pair(i):
        untraced = inprocess_pass(ops, Path(tempfile.mkdtemp(dir=scratch)), tally, None)
        recorder = tracer.Tracer(mirrorfield)
        traced = inprocess_pass(ops, Path(tempfile.mkdtemp(dir=scratch)), tally, recorder)
        metrics = tracer.layer_metrics(recorder.spans, recorder.counts)
        metrics["trace.overhead_s"] = traced - untraced
        print(f"bench: pair {i}: untraced {untraced:.4f} s, traced {traced:.4f} s",
              file=sys.stderr)
        samples.append(metrics)
        all_spans.append(recorder.spans)

    repeat_passes(one_pair, seconds)
    span_file = WORK_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(span_file, "w", encoding="utf-8") as out:
        for pair, spans in enumerate(all_spans):
            for index, (name, layer, start, end, parent, request) in enumerate(spans):
                out.write(json.dumps({"pass": pair, "span": index, "name": name,
                                      "layer": layer, "start": start, "end": end,
                                      "parent": parent, "request": request}) + "\n")
    return {key: _metric(statistics.median(s[key] for s in samples),
                         PER_LAYER_UNITS.get(key.split(".", 1)[1], "count"))
            for key in samples[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _inside_checkout(mirrorfield.__file__):
        sys.exit(f"bench: mirrorfield imported from {mirrorfield.__file__}, not {SRC}")

    ops = make_ops(args.workload, args.seed)
    tally = Tally()
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        if args.trace:
            metrics = per_layer(ops, scratch, args.seconds, tally,
                                args.workload, args.seed)
        else:
            metrics = end_to_end(ops, scratch, args.seconds, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
