"""Outside-in span tracer for the benchmark's in-process run.

The tracer replaces the public functions of the traced modules with thin
wrappers for the duration of one call into the program and restores them
afterwards; nothing inside the package is edited. A span (name, layer,
start, end, parent) is recorded only where a call crosses from one layer
into another, so the hot inner loops of a layer (thousands of per-z
quadrature calls) are counted rather than timed. Spans stay in memory
until the run ends.

Work counters are computed from the arguments and results of a few entry
points (array sizes, row counts, file sizes); they are labelled as
computed, not measured inside the program.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import threading
import time
from collections import Counter

LAYERS = ("cli", "rates", "classical", "modespace", "oracle", "mastereq", "io")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _size(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is None:
        return len(value) if isinstance(value, (list, tuple)) else 1
    return int(math.prod(shape))


# ----------------------------------------------------------- work counters
# Each takes (counts, args, kwargs, result) after a successful call.

def _field_terms(counts, args, kwargs, result):
    grid = _arg(args, kwargs, 1, "grid")
    counts["modespace.terms"] += _size(_arg(args, kwargs, 3, "x")) * grid.k.size


def _z_points(counts, args, kwargs, result):
    counts["oracle.z_points"] += _size(_arg(args, kwargs, 0, "z"))


def _check_margin(counts, args, kwargs, result):
    margin = min((c["tolerance"] / c["max_rel_dev"] if c["max_rel_dev"] > 0.0
                  else math.inf) for c in result)
    counts["oracle.worst_margin"] = min(counts.get("oracle.worst_margin", math.inf),
                                        margin)


def _rate_points(counts, args, kwargs, result):
    counts["rates.points"] += _size(_arg(args, kwargs, 2, "z"))


def _field_points(counts, args, kwargs, result):
    counts["classical.field_points"] += _size(_arg(args, kwargs, 1, "x"))


def _table_written(counts, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    counts["io.rows"] += len(_arg(args, kwargs, 2, "rows"))
    written = os.path.getsize(path)
    if _arg(args, kwargs, 4, "fmt", "csv") == "csv":
        written += os.path.getsize(str(path) + ".json")
    counts["io.bytes"] += written


def _rk4_steps(counts, args, kwargs, result):
    counts["mastereq.rk4_steps"] += len(result.t) - 1


def _unravel(counts, args, kwargs, result):
    counts["mastereq.traj_steps"] += result.n_traj * (len(result.t) - 1)
    counts["mastereq.trajectories"] += result.n_traj
    # Without a drive every trajectory jumps at most once and then stays in
    # the ground state, so at the final time rho22 takes two values: 0
    # (jumped) and the no-jump value q. Then var / E[rho22**2] is the jumped
    # fraction, derived from the output's mean and standard error.
    mean = float(result.rho[-1, 1, 1].real)
    var = float(result.stderr_rho22[-1]) ** 2 * result.n_traj
    second = var + mean * mean
    counts["mastereq.jumped"] += result.n_traj * (var / second if second > 0.0 else 1.0)


WORK = {
    ("modespace", "expect_E_free"): _field_terms,
    ("modespace", "expect_B_free"): _field_terms,
    ("modespace", "expect_E_mirr_via_xi"): _field_terms,
    ("oracle", "angular_bracket_quadrature"): _z_points,
    ("oracle", "reset_rate_quadrature"): _z_points,
    ("oracle", "levelshift_contour_eval"): _z_points,
    ("oracle", "run_default_checks"): _check_margin,
    ("rates", "gamma_mirr"): _rate_points,
    ("rates", "delta_mirr"): _rate_points,
    ("rates", "preset_rates"): _rate_points,
    ("classical", "packet_complex_field"): _field_points,
    ("io", "write_table"): _table_written,
    ("mastereq", "evolve"): _rk4_steps,
    ("mastereq", "jump_unravel"): _unravel,
}


# Called once per value written; wrapping them would cost more than the
# work they do. Their time stays in the caller's span.
UNWRAPPED = {("io", "format_value")}


class Tracer:
    """Spans at layer boundaries plus work counters, kept in memory.

    ``package`` is the imported top-level package; ``layers`` names its
    traced submodules. A span is ``(name, layer, start, end, parent, request)``
    where ``parent`` indexes ``spans`` (or is None) and ``request`` numbers
    the top-level call that caused it.
    """

    def __init__(self, package, layers=LAYERS, work=None):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = 0
        self._local = threading.local()
        self._patches = []
        work = WORK if work is None else work
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        wrappers = {}
        for layer in layers:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name, fn in vars(module).items():
                if (name.startswith("_") or (layer, name) in UNWRAPPED
                        or not inspect.isfunction(fn) or fn.__module__ != module.__name__):
                    continue
                wrappers[id(fn)] = self._wrap(fn, layer, f"{layer}.{name}",
                                              work.get((layer, name)))
        for module in modules:
            for name, value in vars(module).items():
                if id(value) in wrappers:
                    self._patches.append((module, name, value, wrappers[id(value)]))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer, name, work):
        spans, counts = self.spans, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
                if work is not None:
                    work(counts, args, kwargs, result)
                return result
            index = len(spans)
            spans.append(None)
            parent = stack[-1][1] if stack else None
            stack.append((layer, index))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent, self.request)
            if work is not None:
                work(counts, args, kwargs, result)
            return result

        return traced

    def call(self, fn):
        """Run ``fn()`` with every traced function wrapped, then restore them.

        ``fn`` must look its entry point up when called (``lambda:
        cli.main(argv)``), so that it finds the wrapper.
        """
        for module, name, _, wrapper in self._patches:
            setattr(module, name, wrapper)
        try:
            return fn()
        finally:
            for module, name, original, _ in self._patches:
                setattr(module, name, original)
            self.request += 1


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Children of one span never overlap: spans are recorded on one thread
    and nest strictly.
    """
    out = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics from one traced pass (see bench/README.md)."""
    selfs = self_times(spans)
    self_s = Counter()
    by_name = Counter()
    calls = Counter()
    for (name, layer, *_), own in zip(spans, selfs):
        self_s[layer] += own
        by_name[name] += own
        calls[layer] += 1

    def per(total, count, scale):
        return total / count * scale if count else 0.0

    metrics = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    metrics.update({f"{layer}.calls": calls[layer] for layer in
                    ("cli", "rates", "modespace", "oracle")})
    margin = counts.get("oracle.worst_margin", 0.0)
    metrics.update({
        "rates.points": counts["rates.points"],
        "classical.field_points": counts["classical.field_points"],
        "modespace.terms": counts["modespace.terms"],
        "modespace.ns_per_term": per(self_s["modespace"], counts["modespace.terms"], 1e9),
        "oracle.z_points": counts["oracle.z_points"],
        "oracle.worst_margin": margin if math.isfinite(margin) else 0.0,
        "mastereq.traj_steps": counts["mastereq.traj_steps"],
        "mastereq.ns_per_traj_step": per(by_name["mastereq.jump_unravel"],
                                         counts["mastereq.traj_steps"], 1e9),
        "mastereq.jump_frac": per(counts["mastereq.jumped"],
                                  counts["mastereq.trajectories"], 1.0),
        "mastereq.rk4_steps": counts["mastereq.rk4_steps"],
        "mastereq.us_per_rk4_step": per(by_name["mastereq.evolve"],
                                        counts["mastereq.rk4_steps"], 1e6),
        "io.rows": counts["io.rows"],
        "io.bytes": counts["io.bytes"],
        "io.us_per_row": per(self_s["io"], counts["io.rows"], 1e6),
    })
    return metrics
