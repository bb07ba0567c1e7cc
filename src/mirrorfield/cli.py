"""Command-line frontend: frame series, rate sweeps, verification, evolution.

Every command reads defaults, then an optional JSON config file (keys
mirror the flag names with dashes replaced by underscores), then explicit
flags, in increasing priority. Unknown config keys are rejected. Exit
codes: 0 success, 2 validation error, 3 numerical-check failure, 4 I/O
error. The environment variable MIRRORFIELD_THREADS must be a positive
integer if set; results never depend on it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, classical, io, mastereq, oracle, rates
from .core import (MAX_STEPS, MAX_TRAJECTORIES, GaussianPacket, Medium, MirrorSpec,
                   validate_mirror)
from .errors import (GridTooCoarse, IntegratorInvariantBroken, MirrorFieldError,
                     QuadratureNotConverged)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _check_thread_env() -> None:
    raw = os.environ.get("MIRRORFIELD_THREADS", "1")
    try:
        if int(raw) >= 1:
            return
    except ValueError:
        pass
    raise CliError(2, f"MIRRORFIELD_THREADS must be a positive integer, got {raw!r}")


def _positive(config: dict, key: str) -> float:
    """config[key] as a float, which must be positive and finite."""
    value = float(config[key])
    if not (math.isfinite(value) and value > 0.0):
        raise CliError(2, f"--{key.replace('_', '-')} must be positive and finite, got {value}")
    return value


def _merged(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags."""
    merged = dict(defaults)
    if args.config is not None:
        try:
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise CliError(4, f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            raise CliError(2, f"config is not valid JSON: {exc}")
        unknown = sorted(set(data) - set(defaults))
        if unknown:
            raise CliError(2, f"unknown config keys: {', '.join(unknown)}")
        merged.update(data)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _meta(command: str, parameters: dict, tolerances: dict | None = None) -> dict:
    return {
        "command": command,
        "version": __version__,
        "parameters": parameters,
        "tolerances": tolerances or {},
    }


def _parse_mirror(data: dict) -> MirrorSpec:
    if "preset" in data:
        params = dict(data)
        return MirrorSpec.from_preset(params.pop("preset"), **params)
    return validate_mirror(MirrorSpec.from_dict(data))


# Largest frame series, nx points times the number of frame times, that
# fig2 and scatter write. Writing it costs about 0.24 kB per row as CSV
# (0.95 kB as JSON), so the cap peaks near 0.28 GB (1.0 GB); a larger
# series is rejected before any array is allocated.
MAX_FRAME_ROWS = 1_000_000


def _x_grid(config: dict, n_times: int) -> np.ndarray:
    """The frame grid from x_min, x_max and nx for n_times frames; rejects
    an empty grid, non-finite bounds and more than MAX_FRAME_ROWS rows."""
    nx = int(config["nx"])
    x_min, x_max = float(config["x_min"]), float(config["x_max"])
    if nx < 1:
        raise CliError(2, f"nx must be at least 1, got {nx}")
    if nx * n_times > MAX_FRAME_ROWS:
        raise CliError(2, f"--nx {nx} and {n_times} frame time(s) give {nx * n_times} rows, "
                          f"more than {MAX_FRAME_ROWS}")
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise CliError(2, f"x_min and x_max must be finite, got {x_min}, {x_max}")
    return np.linspace(x_min, x_max, nx)


# ---------------------------------------------------------------- fig2

FIG2_DEFAULTS = {
    "x0": 1.0,
    "k0x0": -6.0,
    "e0": 1.0,
    "sigma": None,      # defaults to x0 / sqrt(2)
    "x_min": -4.0,
    "x_max": 4.0,
    "nx": 2001,
    "t": [0.0, 0.89, 1.83],  # units of x0 / c
    "frames": None,
    "mirror": "perfect",
    "out": "fig2_frames.csv",
    "format": "csv",
}


def cmd_fig2(config: dict) -> int:
    medium = Medium()
    x0 = _positive(config, "x0")
    sigma = config["sigma"]
    sigma = x0 / math.sqrt(2.0) if sigma is None else float(sigma)
    # The packet envelope divides by sigma**2, which underflows to 0 for a
    # tiny x0 and would fill the frames with NaN.
    if not (math.isfinite(sigma * sigma) and sigma * sigma > 0.0):
        raise CliError(2, f"--sigma must have a positive, finite square, got {sigma} "
                          "(the default is --x0 / sqrt(2))")
    # The canonical frame-series packet is marginally localised (sigma of
    # order x0); silence the soft localisation warning for it.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        packet = GaussianPacket.moving(
            e0=float(config["e0"]), x0=x0, sigma=sigma,
            k0_carrier=float(config["k0x0"]) / x0, side="a",
        )
    if config["mirror"] not in ("perfect", "free"):
        raise CliError(2, f"fig2 mirror must be 'perfect' or 'free', got {config['mirror']!r}")
    mirror = MirrorSpec.from_preset(config["mirror"])
    scene = classical.ScatterScene(mirror=mirror, packets_a=(packet,), medium=medium)
    times = [float(v) * x0 / medium.c for v in config["t"]]
    if config["frames"] is not None:
        frames = int(config["frames"])
        if frames < 1:
            raise CliError(2, f"--frames must be at least 1, got {frames}")
        times = times[:frames]
    if not times:
        raise CliError(2, "fig2 needs at least one frame time --t")
    x_grid = _x_grid(config, len(times))

    def fields(t):
        total = classical.mirror_field_1d(scene, x_grid, t)
        original = 2.0 * classical.packet_complex_field(packet, x_grid, t, medium).real
        partner = 2.0 * (
            mirror.r_a
            * classical.packet_complex_field(packet, -x_grid, t, medium, mirror.phi_1)
        ).real
        return total, original, partner

    rows = io.frame_rows(times, x_grid, fields)
    meta = _meta("fig2", config)
    io.write_table(config["out"], io.FRAME_HEADER, rows, meta, config["format"])
    return 0


# ---------------------------------------------------------------- rates-scan

RATES_SCAN_DEFAULTS = {
    "preset": "perfect",
    "r": None,
    "t": None,
    "mu": 0.0,
    "side": "a",
    "k0x_min": 0.025,
    "k0x_max": 12.575,
    "k0x_step": 0.025,
    "out": "rates_scan.csv",
    "format": "csv",
}


# Largest k0x grid rates-scan takes. Writing it costs about 0.2 kB per
# point as CSV (0.72 kB as JSON), so the cap peaks near 0.23 GB (0.75 GB);
# a larger grid is rejected before any array is allocated.
MAX_SCAN_POINTS = 1_000_000


def _scan_rates(config: dict):
    k0x_min, k0x_max, k0x_step = (
        float(config[key]) for key in ("k0x_min", "k0x_max", "k0x_step"))
    if not all(map(math.isfinite, (k0x_min, k0x_max, k0x_step))) or k0x_step <= 0.0:
        raise CliError(2, "k0x bounds must be finite and k0x_step positive")
    # floor(span) points; span may overflow to inf, which floor rejects.
    span = (k0x_max - k0x_min) / k0x_step + 1.5
    if not 1.0 <= span < MAX_SCAN_POINTS + 1:
        raise CliError(2, f"--k0x-min {k0x_min}, --k0x-max {k0x_max} and --k0x-step "
                          f"{k0x_step} must give 1 to {MAX_SCAN_POINTS} grid points")
    n_points = math.floor(span)
    k0x = k0x_min + k0x_step * np.arange(n_points)
    z = 2.0 * k0x
    mu = float(config["mu"])
    preset = config["preset"]
    mirror = MirrorSpec.from_preset(preset, r=config["r"], t=config["t"])
    if preset in ("perfect", "absorbing"):
        result = rates.preset_rates(preset, mu, z, side=config["side"])
        mirror_desc = {"preset": preset}
    elif preset in ("symmetric", "lossless"):
        result = rates.preset_rates("symmetric", mu, z, r=mirror.r_a, t=mirror.t_a,
                                    side=config["side"])
        mirror_desc = {"preset": preset, "r": mirror.r_a, "t": mirror.t_a}
    else:
        raise CliError(2, f"rates-scan does not take preset {preset!r}")
    return k0x, result, mirror_desc


def cmd_rates_scan(config: dict) -> int:
    k0x, result, mirror_desc = _scan_rates(config)
    rows = io.sweep_rows(k0x, result.gamma_ratio, result.delta_ratio)
    parameters = dict(config)
    parameters["mirror"] = mirror_desc
    meta = _meta("rates-scan", parameters)
    io.write_table(config["out"], io.SWEEP_HEADER, rows, meta, config["format"])
    return 0


# ---------------------------------------------------------------- oracle-verify

ORACLE_DEFAULTS = {
    "tolerance": None,
    "tol_gamma": 1e-8,
    "tol_delta": 1e-8,
    "tol_route": 1e-10,
    "tol_energy": 1e-3,
    "grid_coarse": False,
    "order": 64,
    "out": "oracle_report.json",
}

# The convergence check doubles the order, and each Gauss-Legendre rule
# solves a dense eigenproblem of that size: 2048 nodes take about 290 MB
# and 13 s, and larger orders run out of memory.
ORACLE_MAX_ORDER = 1024


def cmd_oracle_verify(config: dict) -> int:
    tols = {k: _positive(config, k) for k in ("tol_gamma", "tol_delta", "tol_route", "tol_energy")}
    if config["tolerance"] is not None:
        tols = dict.fromkeys(tols, _positive(config, "tolerance"))
    order = 16 if config["grid_coarse"] else int(config["order"])
    if order > ORACLE_MAX_ORDER:
        raise CliError(2, f"--order must be at most {ORACLE_MAX_ORDER}, got {order}")
    quad = oracle.QuadratureSpec(order=order)
    out_path = Path(config["out"])
    meta = _meta("oracle-verify", dict(config), tolerances=tols)
    try:
        checks = oracle.run_default_checks(
            quad=quad, tol_gamma=tols["tol_gamma"], tol_delta=tols["tol_delta"],
            tol_route=tols["tol_route"], tol_energy=tols["tol_energy"])
    except (QuadratureNotConverged, GridTooCoarse) as exc:
        payload = {"meta": meta,
                   "error": {"type": type(exc).__name__, "message": str(exc)}}
        out_path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                            encoding="utf-8")
        print(f"oracle-verify: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    all_pass = all(c["pass"] for c in checks)
    payload = {"meta": meta, "checks": checks, "all_pass": all_pass}
    out_path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                        encoding="utf-8")
    for check in checks:
        status = "PASS" if check["pass"] else "FAIL"
        print(f"{status} {check['name']}: max_rel_dev={check['max_rel_dev']:.3e} "
              f"(tolerance {check['tolerance']:.1e})")
    return 0 if all_pass else 3


# ---------------------------------------------------------------- evolve

EVOLVE_DEFAULTS = {
    "gamma": None,
    "delta": None,
    "rho22": 1.0,
    "rho12_re": 0.0,
    "rho12_im": 0.0,
    "t_final": None,
    "dt": None,
    "from_mirror": None,
    "k0x": None,
    "mu": 0.0,
    "r": None,
    "t_rate": None,
    "gamma_free": 1.0,
    "unravel": None,
    "seed": 0,
    "out": "trajectory.csv",
    "format": "csv",
}


def _evolve_channel(config: dict) -> mastereq.AtomChannel:
    if config["from_mirror"] is not None:
        if config["k0x"] is None:
            raise CliError(2, "--from-mirror needs --k0x")
        mirror = MirrorSpec.from_preset(config["from_mirror"], r=config["r"],
                                        t=config["t_rate"])
        return mastereq.channel_at(mirror, float(config["mu"]), 2.0 * float(config["k0x"]),
                                   float(config["gamma_free"]))
    gamma = 1.0 if config["gamma"] is None else float(config["gamma"])
    delta = 0.0 if config["delta"] is None else float(config["delta"])
    return mastereq.AtomChannel(gamma=gamma, delta=delta)


# Numeric evolve flags; each must be finite when given.
_EVOLVE_FLOATS = ("gamma", "delta", "rho22", "rho12_re", "rho12_im", "t_final", "dt",
                  "k0x", "mu", "r", "t_rate", "gamma_free")


def cmd_evolve(config: dict) -> int:
    for key in _EVOLVE_FLOATS:
        if config[key] is not None and not math.isfinite(float(config[key])):
            raise CliError(2, f"--{key.replace('_', '-')} must be finite, got {config[key]}")
    channel = _evolve_channel(config)
    scale = max(channel.gamma, abs(channel.delta), 1e-12)
    t_final = 5.0 / scale if config["t_final"] is None else float(config["t_final"])
    dt = 1e-3 / scale if config["dt"] is None else float(config["dt"])
    rho22 = float(config["rho22"])
    rho12 = complex(float(config["rho12_re"]), float(config["rho12_im"]))
    rho0 = np.array([[1.0 - rho22, rho12], [np.conj(rho12), rho22]], dtype=complex)
    mastereq.DensityMatrix.from_matrix(rho0).validate()
    parameters = dict(config)
    parameters["channel"] = {"gamma": channel.gamma, "delta": channel.delta}
    parameters["t_final"], parameters["dt"] = t_final, dt
    if config["unravel"] is not None:
        result = mastereq.jump_unravel(
            rho0, channel, t_final, dt, n_traj=int(config["unravel"]),
            seed=int(config["seed"]))
        rows = io.trajectory_rows(result.t, result.rho, result.stderr_rho22)
        header = io.TRAJECTORY_HEADER + ["stderr_rho22"]
    else:
        trajectory = mastereq.evolve(rho0, channel, t_final, dt)
        rows = io.trajectory_rows(trajectory.t, trajectory.rho)
        header = io.TRAJECTORY_HEADER
    meta = _meta("evolve", parameters)
    io.write_table(config["out"], header, rows, meta, config["format"])
    return 0


# ---------------------------------------------------------------- scatter

SCATTER_DEFAULTS = {
    "scene": None,
    "times": [0.0],
    "x_min": -50.0,
    "x_max": 50.0,
    "nx": 2001,
    "out": "scatter_frames.csv",
    "format": "csv",
}


def _load_scene(path: str) -> classical.ScatterScene:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError(4, f"cannot read scene: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(2, f"scene is not valid JSON: {exc}")
    allowed = {"mirror", "medium", "packets_a", "packets_b"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise CliError(2, f"unknown scene keys: {', '.join(unknown)}")
    mirror = _parse_mirror(data.get("mirror", {"preset": "perfect"}))
    medium = Medium.from_dict(data.get("medium", {}))

    def packets(entries, side):
        out = []
        for entry in entries:
            entry = {"side": side, **entry}
            if "k0_carrier" in entry:
                k0 = float(entry["k0_carrier"])
                entry.setdefault("direction", "right" if k0 > 0 else "left")
            out.append(GaussianPacket.from_dict(entry))
        return tuple(out)

    return classical.ScatterScene(
        mirror=mirror, medium=medium,
        packets_a=packets(data.get("packets_a", []), "a"),
        packets_b=packets(data.get("packets_b", []), "b"),
    )


def cmd_scatter(config: dict) -> int:
    times = [float(v) for v in config["times"]]
    if not times:
        raise CliError(2, "scatter needs at least one time --times")
    x_grid = _x_grid(config, len(times))
    if config["scene"] is None:
        raise CliError(2, "scatter needs --scene")
    scene = _load_scene(config["scene"])

    def fields(t):
        from_a, from_b = classical.mirror_field_1d_by_side(scene, x_grid, t)
        return from_a + from_b, from_a, from_b

    rows = io.frame_rows(times, x_grid, fields)
    meta = _meta("scatter", dict(config))
    io.write_table(config["out"], io.FRAME_HEADER, rows, meta, config["format"])
    return 0


# ---------------------------------------------------------------- wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorfield",
        description="Light scattering and atom dynamics near semi-transparent mirrors",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig2", help="wave packet meeting a mirror, frame series")
    p.add_argument("--config")
    p.add_argument("--x0", type=float)
    p.add_argument("--k0x0", type=float, help="carrier wavenumber times x0")
    p.add_argument("--e0", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--x-min", dest="x_min", type=float)
    p.add_argument("--x-max", dest="x_max", type=float)
    p.add_argument("--nx", type=int,
                   help=f"grid points; nx times the frame count is at most {MAX_FRAME_ROWS}")
    p.add_argument("--t", type=float, action="append",
                   help="frame time in units of x0/c (repeatable)")
    p.add_argument("--frames", type=int, help="keep only the first N frame times")
    p.add_argument("--mirror", choices=["perfect", "free"])
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"])

    p = sub.add_parser("rates-scan", help="decay rate and level shift sweep")
    p.add_argument("--config")
    p.add_argument("--preset", choices=["perfect", "symmetric", "absorbing", "lossless"])
    p.add_argument("--r", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--side", choices=["a", "b"])
    p.add_argument("--k0x-min", dest="k0x_min", type=float)
    p.add_argument("--k0x-max", dest="k0x_max", type=float)
    p.add_argument("--k0x-step", dest="k0x_step", type=float,
                   help=f"grid step; the grid has at most {MAX_SCAN_POINTS} points")
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"])

    p = sub.add_parser("oracle-verify", help="run the numerical verification suite")
    p.add_argument("--config")
    p.add_argument("--tolerance", type=float, help="blanket override for all tolerances")
    p.add_argument("--tol-gamma", dest="tol_gamma", type=float)
    p.add_argument("--tol-delta", dest="tol_delta", type=float)
    p.add_argument("--tol-route", dest="tol_route", type=float)
    p.add_argument("--tol-energy", dest="tol_energy", type=float)
    p.add_argument("--order", type=int,
                   help=f"Gauss-Legendre order, 16 to {ORACLE_MAX_ORDER} (default 64)")
    p.add_argument("--grid-coarse", dest="grid_coarse", action="store_const", const=True)
    p.add_argument("--out")

    p = sub.add_parser(
        "evolve", help="integrate the atomic master equation",
        description="Integrate the atomic master equation, or average --unravel "
                    f"quantum-jump trajectories, over at most {MAX_STEPS} "
                    "steps t_final/dt.")
    p.add_argument("--config")
    p.add_argument("--gamma", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--rho22", type=float)
    p.add_argument("--rho12-re", dest="rho12_re", type=float)
    p.add_argument("--rho12-im", dest="rho12_im", type=float)
    p.add_argument("--t-final", dest="t_final", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--from-mirror", dest="from_mirror",
                   choices=["perfect", "symmetric", "absorbing", "lossless"])
    p.add_argument("--k0x", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--t-rate", dest="t_rate", type=float,
                   help="mirror transmission for --from-mirror symmetric")
    p.add_argument("--gamma-free", dest="gamma_free", type=float)
    p.add_argument("--unravel", type=int, help="number of quantum-jump trajectories, "
                   f"at most {MAX_TRAJECTORIES}")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"])

    p = sub.add_parser("scatter", help="classical scene from a JSON file")
    p.add_argument("--config")
    p.add_argument("--scene")
    p.add_argument("--times", type=float, nargs="+")
    p.add_argument("--x-min", dest="x_min", type=float)
    p.add_argument("--x-max", dest="x_max", type=float)
    p.add_argument("--nx", type=int,
                   help=f"grid points; nx times the time count is at most {MAX_FRAME_ROWS}")
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"])

    return parser


_COMMANDS = {
    "fig2": (FIG2_DEFAULTS, cmd_fig2),
    "rates-scan": (RATES_SCAN_DEFAULTS, cmd_rates_scan),
    "oracle-verify": (ORACLE_DEFAULTS, cmd_oracle_verify),
    "evolve": (EVOLVE_DEFAULTS, cmd_evolve),
    "scatter": (SCATTER_DEFAULTS, cmd_scatter),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    defaults, runner = _COMMANDS[args.command]
    try:
        _check_thread_env()
        config = _merged(args, defaults)
        return runner(config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (QuadratureNotConverged, GridTooCoarse, IntegratorInvariantBroken) as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 3
    except (MirrorFieldError, ValueError) as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
