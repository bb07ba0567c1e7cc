"""Workload generation and output checks.

A workload is a list of ``Op``s: one CLI invocation each, with the exit
code it must give and a check of what it wrote. Inputs are drawn from the
workload seed only, so the same seed gives the same argv lists and files.
A check raises ``CheckFailed``; the runner counts that operation as failed.

The checks import ``mirrorfield`` from the checkout for its reference
routes (``analytic_solution``, the general ``gamma_mirr``/``delta_mirr``
route and the one-sided perfect-mirror field), which the test suite pins
independently of the CLI.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from mirrorfield import classical, mastereq, rates
from mirrorfield.core import GaussianPacket, Medium, MirrorSpec

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"

ORACLE_CHECKS = {"gamma_angular_quadrature", "delta_contour_form",
                 "decay_route_consistency", "field_energy_mode_sum"}

# The eight figure sweeps whose CSV and sidecar bytes are pinned.
GOLDEN_JOBS = [
    (("--preset", "perfect", "--mu", "0"), "rates_fig3_mu0.csv"),
    (("--preset", "perfect", "--mu", "1"), "rates_fig3_mu1.csv"),
    (("--preset", "symmetric", "--r", "0", "--t", "0", "--mu", "0"),
     "rates_fig4_rt000.csv"),
    (("--preset", "symmetric", "--r", "0.35", "--t", "0.35", "--mu", "0"),
     "rates_fig4_rt035.csv"),
    (("--preset", "symmetric", "--r", repr(2**-0.5), "--t", repr(2**-0.5),
      "--mu", "0"), "rates_fig4_rt0707.csv"),
    (("--preset", "lossless", "--r", "0", "--mu", "0"), "rates_fig5_r000.csv"),
    (("--preset", "lossless", "--r", "0.5", "--mu", "0"), "rates_fig5_r050.csv"),
    (("--preset", "lossless", "--r", "1", "--mu", "0"), "rates_fig5_r100.csv"),
]

ENSEMBLE_TRAJ = 10_000          # README scale
ENSEMBLE_PAIR_TRAJ = 512        # two 256-trajectory chunks, one per worker
SURVEY_RANDOM_SCANS = 4
SCATTER_PACKETS_PER_SIDE = 3
SCATTER_TIMES = 4


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    """One CLI invocation, run in ``<pass dir>/<cwd>``."""

    name: str
    argv: list[str]
    expect_code: int = 0
    check: Callable[[Path], None] | None = None  # gets the op's directory
    cwd: str = "."
    files: dict[str, str] = field(default_factory=dict)  # written before the run
    threads: int = 1


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _flag(name: str, value) -> str:
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    require(path.is_file(), f"missing output {path.name}")
    lines = path.read_text(encoding="utf-8").splitlines()
    data = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
    require(data.ndim == 2 and data.shape[0] > 0, f"{path.name} has no rows")
    require(bool(np.all(np.isfinite(data))), f"{path.name} has non-finite values")
    return lines[0].split(","), data


def _sidecar(path: Path) -> dict:
    return json.loads(Path(str(path) + ".json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------- verify

def _check_report(directory: Path) -> None:
    report = json.loads((directory / "report.json").read_text(encoding="utf-8"))
    names = {c["name"] for c in report["checks"]}
    require(names == ORACLE_CHECKS, f"oracle checks {sorted(names)}")
    require(all(c["pass"] and c["max_rel_dev"] < c["tolerance"] for c in report["checks"]),
            "an oracle check failed")
    require(report["all_pass"] is True, "all_pass is not true")


def _check_coarse(directory: Path) -> None:
    report = json.loads((directory / "coarse.json").read_text(encoding="utf-8"))
    require("checks" not in report, "coarse run reported checks")
    require(report["error"]["type"] == "QuadratureNotConverged",
            f"coarse error type {report['error']['type']}")


def verify_ops(rng: random.Random) -> list[Op]:
    # The documented fixed suite: the seed does not enter.
    return [
        Op("oracle-verify", ["oracle-verify", "--out", "report.json"],
           check=_check_report),
        Op("oracle-verify-coarse",
           ["oracle-verify", "--grid-coarse", "--out", "coarse.json"],
           expect_code=3, check=_check_coarse),
    ]


# ----------------------------------------------------------------- ensemble

def _pure_state(rng: random.Random) -> tuple[float, float, float]:
    rho22 = rng.uniform(0.3, 1.0)
    radius = math.sqrt(rho22 * (1.0 - rho22))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return rho22, radius * math.cos(phase), radius * math.sin(phase)


def _rho0(rho22, re12, im12) -> np.ndarray:
    rho12 = complex(re12, im12)
    return np.array([[1.0 - rho22, rho12], [rho12.conjugate(), rho22]])


def _check_unravel(out: str, n_traj: int, rho0: np.ndarray,
                   channel) -> Callable[[Path], None]:
    def check(directory: Path) -> None:
        header, data = _read_table(directory / out)
        require(header[-1] == "stderr_rho22", f"header {header}")
        require(data.shape[0] == 5001, f"{data.shape[0]} rows")
        t, rho11, rho22 = data[:, 0], data[:, 1], data[:, 2]
        require(float(np.abs(rho11 + rho22 - 1.0).max()) <= 1e-9, "trace is not 1")
        exact = mastereq.analytic_solution(rho0, channel, t)[:, 1, 1].real
        # Without a drive a trajectory is either jumped (rho22 = 0) or on the
        # no-jump path (rho22 = exact / survival), survival = 1 - rho22(0) +
        # exact. That fixes the true standard error of the mean; the sample
        # one is useless while jumps are rare. The band is seven of them plus
        # three single-jump steps, which a correct program essentially never
        # leaves.
        survival = 1.0 - rho0[1, 1].real + exact
        sigma = np.sqrt((1.0 - survival) / survival / n_traj) * exact
        band = 7.0 * sigma + 3.0 * exact / survival / n_traj + 1e-9
        excess = np.abs(rho22 - exact) - band
        require(float(excess.max()) <= 0.0,
                f"rho22 leaves the 7-sigma band at t={t[int(np.argmax(excess))]}")
    return check


def _check_same_bytes(out: str, reference_dir: str) -> Callable[[Path], None]:
    def check(directory: Path) -> None:
        reference = directory.parent / reference_dir
        for name in (out, out + ".json"):
            require((directory / name).read_bytes() == (reference / name).read_bytes(),
                    f"{name} differs from the one-worker run")
    return check


def ensemble_ops(rng: random.Random) -> list[Op]:
    gamma = rng.uniform(0.5, 2.0)
    delta = rng.uniform(-1.0, 1.0) * gamma
    rho22, re12, im12 = _pure_state(rng)
    seed = rng.randrange(2**31)
    channel = mastereq.AtomChannel(gamma=gamma, delta=delta)
    rho0 = _rho0(rho22, re12, im12)
    base = ["evolve", _flag("gamma", gamma), _flag("delta", delta),
            _flag("rho22", rho22), _flag("rho12-re", re12), _flag("rho12-im", im12),
            _flag("seed", seed)]

    def unravel(n_traj, out):
        return base + [_flag("unravel", n_traj), "--out", out]

    return [
        Op("unravel", unravel(ENSEMBLE_TRAJ, "mc.csv"),
           check=_check_unravel("mc.csv", ENSEMBLE_TRAJ, rho0, channel)),
        Op("unravel-pair-1worker", unravel(ENSEMBLE_PAIR_TRAJ, "pair.csv"), cwd="w1",
           check=_check_unravel("pair.csv", ENSEMBLE_PAIR_TRAJ, rho0, channel)),
        Op("unravel-pair-2workers", unravel(ENSEMBLE_PAIR_TRAJ, "pair.csv"), cwd="w2",
           threads=2, check=_check_same_bytes("pair.csv", "w1")),
    ]


# ----------------------------------------------------------------- survey

def _check_golden(name: str) -> Callable[[Path], None]:
    def check(directory: Path) -> None:
        for file in (name, name + ".json"):
            require((directory / file).read_bytes() == (GOLDEN_DIR / file).read_bytes(),
                    f"{file} differs from the golden copy")
    return check


def _random_mirror(rng: random.Random) -> tuple[str, list[str], MirrorSpec]:
    preset = rng.choice(["perfect", "absorbing", "symmetric", "lossless"])
    if preset == "perfect":
        return preset, [], MirrorSpec.perfect()
    if preset == "absorbing":
        return preset, [], MirrorSpec.absorbing()
    r = rng.uniform(0.0, 1.0)
    if preset == "lossless":
        return preset, [_flag("r", r)], MirrorSpec.lossless(r=r)
    t = rng.uniform(0.0, math.sqrt(1.0 - r * r))
    return preset, [_flag("r", r), _flag("t", t)], MirrorSpec.symmetric(r=r, t=t)


def _check_scan(out: str, mirror: MirrorSpec, mu: float, side: str):
    def check(directory: Path) -> None:
        _, data = _read_table(directory / out)
        require(data.shape == (503, 3), f"scan shape {data.shape}")
        k0x = 0.025 + 0.025 * np.arange(503)
        require(bool(np.allclose(data[:, 0], k0x, rtol=0.0, atol=1e-12)), "k0x grid")
        z = 2.0 * k0x
        # The general route agrees with the preset closed forms to ~1e-12.
        for column, route in ((1, rates.gamma_mirr), (2, rates.delta_mirr)):
            reference = route(mirror, mu, z, side=side)
            require(bool(np.allclose(data[:, column], reference, rtol=1e-9, atol=1e-12)),
                    f"{out} column {column} disagrees with the general route")
    return check


def _fig2_packet() -> GaussianPacket:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return GaussianPacket.moving(e0=1.0, x0=1.0, sigma=1.0 / math.sqrt(2.0),
                                     k0_carrier=-6.0)


def _check_fig2(directory: Path) -> None:
    _, data = _read_table(directory / "fig2.csv")
    require(data.shape == (3 * 2001, 5), f"fig2 shape {data.shape}")
    packet = _fig2_packet()
    for t in np.unique(data[:, 0]):
        frame = data[data[:, 0] == t]
        x, total = frame[:, 1], frame[:, 2]
        # Independent route: incoming field minus its image, zero behind.
        reference, _ = classical.mirror_field_1d_perfect([packet], x, float(t))
        scale = max(1.0, float(np.abs(reference).max()))
        require(float(np.abs(total - reference).max()) <= 1e-12 * scale,
                f"fig2 frame t={t} disagrees with the image route")
        front = x >= 0.0
        parts = frame[front, 3] + frame[front, 4]
        require(float(np.abs(total[front] - parts).max()) <= 1e-12 * scale,
                "fig2 total is not original plus partner")


def _scatter_scene(rng: random.Random) -> tuple[dict, classical.ScatterScene]:
    r = rng.uniform(0.2, 0.9)
    t = rng.uniform(0.0, math.sqrt(1.0 - r * r))
    phases = {"phi_1": rng.uniform(0.0, 2.0 * math.pi),
              "phi_3": rng.uniform(0.0, 2.0 * math.pi)}
    mirror = {"preset": "symmetric", "r": r, "t": t, **phases}
    sides = {"a": [], "b": []}
    for side, sign in (("a", 1.0), ("b", -1.0)):
        for _ in range(SCATTER_PACKETS_PER_SIDE):
            sides[side].append({
                "e0": rng.uniform(0.5, 1.5), "x0": sign * rng.uniform(15.0, 35.0),
                "sigma": rng.uniform(2.0, 4.0),
                "k0_carrier": -sign * rng.uniform(3.0, 8.0),
                "xi_init": rng.uniform(0.0, 2.0 * math.pi)})
    scene = {"mirror": mirror, "packets_a": sides["a"], "packets_b": sides["b"]}
    packets = {side: tuple(GaussianPacket.moving(side=side, **p) for p in entries)
               for side, entries in sides.items()}
    reference = classical.ScatterScene(
        mirror=MirrorSpec.symmetric(r=r, t=t, **phases), medium=Medium(),
        packets_a=packets["a"], packets_b=packets["b"])
    return scene, reference


def _check_scatter(scene: classical.ScatterScene, times: list[float]):
    def check(directory: Path) -> None:
        _, data = _read_table(directory / "scatter.csv")
        require(data.shape == (len(times) * 2001, 5), f"scatter shape {data.shape}")
        for t in times:
            frame = data[data[:, 0] == t]
            require(frame.shape[0] == 2001, f"scatter frame t={t} missing")
            x, total = frame[:, 1], frame[:, 2]
            require(bool(np.all(total == frame[:, 3] + frame[:, 4])),
                    "scatter total is not the sum of the two sides")
            # Second route: the combined (E, B) assembly of the same scene.
            reference = classical.mirror_field_1d(scene, x, t)
            scale = max(1.0, float(np.abs(reference).max()))
            require(float(np.abs(total - reference).max()) <= 1e-12 * scale,
                    f"scatter frame t={t} disagrees with the combined field")
    return check


def _check_evolve(out: str, rho0: np.ndarray, channel=None):
    def check(directory: Path) -> None:
        path = directory / out
        header, data = _read_table(path)
        require(data.shape == (5001, 5), f"{out} shape {data.shape}")
        used = channel
        if used is None:
            recorded = _sidecar(path)["parameters"]["channel"]
            used = mastereq.AtomChannel(gamma=recorded["gamma"], delta=recorded["delta"])
        exact = mastereq.analytic_solution(rho0, used, data[:, 0])
        columns = np.stack([exact[:, 0, 0].real, exact[:, 1, 1].real,
                            exact[:, 0, 1].real, exact[:, 0, 1].imag], axis=1)
        require(float(np.abs(data[:, 1:] - columns).max()) <= 1e-8,
                f"{out} deviates from analytic_solution")
    return check


def _check_from_mirror(out, mirror, mu, z, gamma_free, rho0):
    trajectory = _check_evolve(out, rho0)

    def check(directory: Path) -> None:
        recorded = _sidecar(directory / out)["parameters"]["channel"]
        for key, route in (("gamma", rates.gamma_mirr), ("delta", rates.delta_mirr)):
            expected = route(mirror, mu, z) * gamma_free
            require(math.isclose(recorded[key], expected, rel_tol=1e-12, abs_tol=1e-15),
                    f"sidecar channel {key} {recorded[key]} != {expected}")
        trajectory(directory)
    return check


def survey_ops(rng: random.Random) -> list[Op]:
    ops = [Op(f"golden-{name}", ["rates-scan", *flags, "--out", name], cwd="golden",
              check=_check_golden(name)) for flags, name in GOLDEN_JOBS]

    for j in range(SURVEY_RANDOM_SCANS):
        preset, mirror_flags, mirror = _random_mirror(rng)
        mu, side = rng.uniform(0.0, 1.0), rng.choice("ab")
        out = f"scan{j}.csv"
        ops.append(Op(f"rates-scan-{preset}",
                      ["rates-scan", f"--preset={preset}", *mirror_flags,
                       _flag("mu", mu), f"--side={side}", "--out", out],
                      check=_check_scan(out, mirror, mu, side)))

    ops.append(Op("fig2", ["fig2", "--out", "fig2.csv"], check=_check_fig2))

    scene_json, scene = _scatter_scene(rng)
    times = sorted(rng.uniform(0.0, 40.0) for _ in range(SCATTER_TIMES))
    ops.append(Op("scatter",
                  ["scatter", "--scene", "scene.json", "--times", *map(repr, times),
                   "--out", "scatter.csv"],
                  files={"scene.json": json.dumps(scene_json)},
                  check=_check_scatter(scene, times)))

    gamma = rng.uniform(0.5, 2.0)
    delta = rng.uniform(-2.0, 2.0)
    rho22 = rng.uniform(0.0, 1.0)
    radius = rng.uniform(0.0, 1.0) * math.sqrt(rho22 * (1.0 - rho22))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    re12, im12 = radius * math.cos(phase), radius * math.sin(phase)
    ops.append(Op("evolve",
                  ["evolve", _flag("gamma", gamma), _flag("delta", delta),
                   _flag("rho22", rho22), _flag("rho12-re", re12),
                   _flag("rho12-im", im12), "--out", "evolve.csv"],
                  check=_check_evolve("evolve.csv", _rho0(rho22, re12, im12),
                                      mastereq.AtomChannel(gamma=gamma, delta=delta))))

    preset, mirror_flags, mirror = _random_mirror(rng)
    mirror_flags = [f.replace("--t=", "--t-rate=") for f in mirror_flags]
    k0x, mu = rng.uniform(0.3, 6.0), rng.uniform(0.0, 1.0)
    gamma_free = rng.uniform(0.5, 2.0)
    rho22, re12, im12 = _pure_state(rng)
    ops.append(Op(f"evolve-from-{preset}",
                  ["evolve", f"--from-mirror={preset}", *mirror_flags, _flag("k0x", k0x),
                   _flag("mu", mu), _flag("gamma-free", gamma_free),
                   _flag("rho22", rho22), _flag("rho12-re", re12),
                   _flag("rho12-im", im12), "--out", "near.csv"],
                  check=_check_from_mirror("near.csv", mirror, mu, 2.0 * k0x,
                                           gamma_free, _rho0(rho22, re12, im12))))
    return ops


WORKLOADS = {"verify": verify_ops, "ensemble": ensemble_ops, "survey": survey_ops}


def make_ops(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(seed))
