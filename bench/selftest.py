"""Self-test of the benchmark harness.

Run from the repository root with ``python3 bench/selftest.py``. It covers
the self-time arithmetic on nested spans, span placement at layer
boundaries, identical inputs for identical seeds, and failure counting for
a wrong exit code.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import types
import unittest
from pathlib import Path

import run  # sets up sys.path for the checkout's src
import tracer
from workloads import WORKLOADS, Op, make_ops


def _span(name, start, end, parent):
    return (name, name.split(".")[0], start, end, parent, 0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            _span("cli.main", 0.0, 10.0, None),
            _span("oracle.run", 1.0, 6.0, 0),
            _span("modespace.sum", 2.0, 5.0, 1),
            _span("io.write", 7.0, 9.0, 0),
        ]
        self.assertEqual(tracer.self_times(spans), [3.0, 2.0, 3.0, 2.0])

    def test_layer_self_time_sums_spans(self):
        spans = [
            _span("cli.main", 0.0, 4.0, None),
            _span("rates.gamma", 1.0, 2.0, 0),
            _span("rates.delta", 2.5, 3.0, 0),
        ]
        metrics = tracer.layer_metrics(spans, tracer.Counter())
        self.assertAlmostEqual(metrics["cli.self_s"], 2.5)
        self.assertAlmostEqual(metrics["rates.self_s"], 1.5)
        self.assertEqual(metrics["rates.calls"], 2)


class TracerTest(unittest.TestCase):
    SOURCES = {
        "alpha": "from fakepkg import beta\n"
                 "def outer(n):\n    return inner(n) + beta.work(n)\n"
                 "def inner(n):\n    return n\n",
        "beta": "def work(n):\n    return 2 * n\n",
    }

    def setUp(self):
        package = types.ModuleType("fakepkg")
        sys.modules["fakepkg"] = package
        for name in ("beta", "alpha"):
            module = types.ModuleType(f"fakepkg.{name}")
            sys.modules[module.__name__] = module
            setattr(package, name, module)
            exec(self.SOURCES[name], module.__dict__)
        self.package = package

    def tearDown(self):
        for name in ("fakepkg", "fakepkg.alpha", "fakepkg.beta"):
            sys.modules.pop(name, None)

    def test_spans_only_at_layer_boundaries(self):
        seen = []
        recorder = tracer.Tracer(self.package, layers=("alpha", "beta"), work={
            ("alpha", "inner"): lambda counts, args, kwargs, result: seen.append(result)})
        original = self.package.alpha.outer
        result = recorder.call(lambda: self.package.alpha.outer(3))
        self.assertEqual(result, 9)
        self.assertEqual([(s[0], s[4]) for s in recorder.spans],
                         [("alpha.outer", None), ("beta.work", 0)])
        self.assertEqual(seen, [3])  # the inner call is counted, not timed
        self.assertIs(self.package.alpha.outer, original)


class SeedTest(unittest.TestCase):
    @staticmethod
    def _inputs(workload, seed):
        return [(op.argv, op.files, op.cwd, op.threads, op.expect_code)
                for op in make_ops(workload, seed)]

    def test_same_seed_same_inputs(self):
        for workload in WORKLOADS:
            self.assertEqual(self._inputs(workload, 11), self._inputs(workload, 11))

    def test_seed_changes_generated_inputs(self):
        for workload in ("ensemble", "survey"):
            self.assertNotEqual(self._inputs(workload, 11), self._inputs(workload, 12))


class FailureCountTest(unittest.TestCase):
    def setUp(self):
        self.directory = Path(tempfile.mkdtemp(dir=run.WORK_DIR))

    def tearDown(self):
        shutil.rmtree(self.directory, ignore_errors=True)

    def test_wrong_exit_code_counts_as_failed(self):
        # The lossless preset without --r is a validation error: exit 2.
        argv = ["rates-scan", "--preset", "lossless", "--out", "scan.csv"]
        tally = run.Tally()
        run.subprocess_pass([Op("expects-2", argv, expect_code=2),
                             Op("expects-0", argv, expect_code=0)],
                            self.directory, tally)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertTrue(tally.reasons[0].startswith("expects-0: exit 2"))


if __name__ == "__main__":
    run.WORK_DIR.mkdir(exist_ok=True)
    unittest.main()
