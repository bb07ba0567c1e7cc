"""Command-line frontend: frame series, rate sweeps, verification, evolution.

Every command reads defaults, then an optional JSON config file (keys
mirror the flag names with dashes replaced by underscores), then explicit
flags, in increasing priority. One table per command declares each option
once; it builds the flags, supplies the defaults and reads the config file,
whose values must be of their option's kind (null counts as absent; unknown
keys are rejected). Every number, from a flag or a file, must be finite.
The fields of a scene file's records are read by the same rules, each
by the kind its annotation gives. Exit codes: 0 success, 2 validation
error, 3 numerical-check failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import re
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import __version__, classical, io, mastereq, oracle, rates
from .core import (MAX_STEPS, MAX_TRAJECTORIES, GaussianPacket, Medium, MirrorSpec,
                   _check_keys)
from .errors import (GridTooCoarse, IntegratorInvariantBroken, MirrorFieldError,
                     QuadratureNotConverged)

if TYPE_CHECKING:
    import numpy as np


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------- options

def _number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        return math.inf if value > 0 else -math.inf


def _numbers(value):
    numbers = [_number(v) for v in value] if isinstance(value, list) else [None]
    return None if None in numbers else numbers


class Kind(NamedTuple):
    """How an option is given: the argparse keywords of its flag, the reader
    of its JSON value (the value, or None if of the wrong JSON type), what
    that value must be, and the rule every number of the option obeys, in
    words and as a test."""
    flag: dict
    read: Callable
    what: str
    domain: str = ""
    inside: Callable = math.isfinite


FLOAT = Kind({"type": float}, _number, "a number", "finite")
POSITIVE = Kind({"type": float}, _number, "a number", "positive and finite",
                lambda x: math.isfinite(x) and x > 0.0)
INT = Kind({"type": int}, lambda v: v if type(v) is int else None, "an integer")
# A seed is the first key word of the unraveling's Philox stream.
SEED = INT._replace(domain="in [0, 2**64)", inside=lambda n: 0 <= n < 2 ** 64)
TEXT = Kind({}, lambda v: v if isinstance(v, str) else None, "a string")
SWITCH = Kind({"action": "store_const", "const": True},
              lambda v: v if isinstance(v, bool) else None, "true or false")
# Lists of numbers, from a repeatable flag or from one flag with many values.
REPEATED = Kind({"type": float, "action": "append"}, _numbers, "a list of numbers", "finite")
FLOATS = Kind({"type": float, "nargs": "+"}, _numbers, "a list of numbers", "finite")


class Option(NamedTuple):
    """One option of a command: config key ``key``, flag ``--key`` with
    dashes for underscores."""
    key: str
    kind: Kind
    default: object = None
    help: str | None = None
    choices: tuple | None = None

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


FORMAT = Option("format", TEXT, "csv", choices=("csv", "json"))
PRESETS = ("perfect", "symmetric", "absorbing", "lossless")


def _json_object(path: str, what: str, keys) -> dict:
    """The JSON object in the file at ``path``, with no key outside ``keys``;
    ``what`` names the file in messages."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError(4, f"cannot read {what}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(2, f"{what} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise CliError(2, f"{what} must be a JSON object, got {type(data).__name__}")
    _check_keys(f"{what} keys", data, keys)
    return data


def _read(data: dict, options, what: str) -> dict:
    """``data``, a JSON object from the file ``what`` names, without the nulls
    of its options; the value of each option in it is checked against the
    option's kind and choices, and other keys pass as they are."""
    keys = {option.key for option in options}
    values = {key: raw for key, raw in data.items() if raw is not None or key not in keys}
    for option in options:
        if option.key not in values:
            continue
        raw = values[option.key]
        value = values[option.key] = option.kind.read(raw)
        if value is None or (option.choices and value not in option.choices):
            expected = (f"one of {', '.join(option.choices)}" if option.choices
                        else option.kind.what)
            raise CliError(2, f"{what} key {option.key!r} must be {expected}, "
                              f"got {json.dumps(raw)}")
    return values


def _check_domains(values: dict, options, name: Callable) -> None:
    """Reject a number outside its option's domain, naming it ``name(option)``."""
    for option in options:
        value, domain = values.get(option.key), option.kind.domain
        if not domain or value is None:
            continue
        for number in value if isinstance(value, list) else [value]:
            if not option.kind.inside(number):
                raise CliError(2, f"{name(option)} must be {domain}, got {number}")


def _merged(args: argparse.Namespace, options) -> dict:
    """defaults < config file < explicit flags; every number must lie in its
    option's domain, wherever it came from."""
    by_key = {option.key: option for option in options}
    merged = {key: option.default for key, option in by_key.items()}
    if args.config is not None:
        merged.update(_read(_json_object(args.config, "config", by_key), options, "config"))
    merged.update((key, value) for key, value in vars(args).items()
                  if key in by_key and value is not None)
    _check_domains(merged, options, lambda option: option.flag)
    return merged


def _meta(command: str, parameters: dict, tolerances: dict | None = None) -> dict:
    return {
        "command": command,
        "version": __version__,
        "parameters": parameters,
        "tolerances": tolerances or {},
    }


# Largest frame series, nx points times the number of frame times, that
# fig2 and scatter write. Writing it costs about 0.28 kB per row, as CSV
# or as JSON, so the cap peaks near 0.28 GB; a larger series is rejected
# before any array is allocated.
MAX_FRAME_ROWS = 1_000_000


def _x_grid(config: dict, n_times: int) -> np.ndarray:
    """The frame grid from x_min, x_max and nx for n_times frames; rejects
    an empty grid, a span that overflows and more than MAX_FRAME_ROWS rows."""
    nx, x_min, x_max = config["nx"], config["x_min"], config["x_max"]
    if nx < 1:
        raise CliError(2, f"nx must be at least 1, got {nx}")
    if nx * n_times > MAX_FRAME_ROWS:
        raise CliError(2, f"--nx {nx} and {n_times} frame time(s) give {nx * n_times} rows, "
                          f"more than {MAX_FRAME_ROWS}")
    # linspace steps by x_max - x_min; an infinite step gives NaN positions.
    if not math.isfinite(x_max - x_min):
        raise CliError(2, f"--x-max {x_max} minus --x-min {x_min} must be finite")
    import numpy as np

    return np.linspace(x_min, x_max, nx)


def _write_frames(command: str, config: dict, times, x_grid, fields) -> int:
    """Write ``fields(t) -> (E_total, E_side_a, E_side_b)`` over x_grid for
    each t, row-major by time then position; rejects a frame that overflows."""
    import numpy as np

    rows = []
    for t in times:  # frame by frame, one float object for the t of a frame
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
            columns = fields(t)
        if not (math.isfinite(t) and all(np.isfinite(column).all() for column in columns)):
            raise CliError(2, f"the {command} frame at t = {t} overflows: the amplitudes, "
                              "times or positions are too large")
        rows += io.table_rows(x_grid, *columns, first=float(t))
    io.write_table(config["out"], io.FRAME_HEADER, rows, _meta(command, config),
                   config["format"])
    return 0


# ---------------------------------------------------------------- fig2

FIG2_OPTIONS = (
    Option("x0", POSITIVE, 1.0),
    Option("k0x0", FLOAT, -6.0, "carrier wavenumber times x0"),
    Option("e0", FLOAT, 1.0),
    Option("sigma", FLOAT),  # defaults to x0 / sqrt(2)
    Option("x_min", FLOAT, -4.0),
    Option("x_max", FLOAT, 4.0),
    Option("nx", INT, 2001,
           f"grid points; nx times the frame count is at most {MAX_FRAME_ROWS}"),
    Option("t", REPEATED, [0.0, 0.89, 1.83], "frame time in units of x0/c (repeatable)"),
    Option("frames", INT, None, "keep only the first N frame times"),
    Option("mirror", TEXT, "perfect", choices=("perfect", "free")),
    Option("out", TEXT, "fig2_frames.csv"),
    FORMAT,
)


def cmd_fig2(config: dict) -> int:
    medium = Medium()
    x0 = config["x0"]
    sigma = x0 / math.sqrt(2.0) if config["sigma"] is None else config["sigma"]
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
            e0=config["e0"], x0=x0, sigma=sigma, k0_carrier=config["k0x0"] / x0, side="a",
        )
    mirror = MirrorSpec.from_preset(config["mirror"])
    scene = classical.ScatterScene(mirror=mirror, packets_a=(packet,), medium=medium)
    times = [v * x0 / medium.c for v in config["t"]]
    if config["frames"] is not None:
        if config["frames"] < 1:
            raise CliError(2, f"--frames must be at least 1, got {config['frames']}")
        times = times[:config["frames"]]
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

    return _write_frames("fig2", config, times, x_grid, fields)


# ---------------------------------------------------------------- rates-scan

# Largest k0x grid rates-scan takes. Writing it costs about 0.2 kB per
# point, as CSV or as JSON, so the cap peaks near 0.24 GB and takes about
# 2.5 s on a 2-core x86 host, 0.8 s of it the closed forms on floats; a
# larger grid is rejected before any list is built.
MAX_SCAN_POINTS = 1_000_000

RATES_SCAN_OPTIONS = (
    Option("preset", TEXT, "perfect", choices=PRESETS),
    Option("r", FLOAT),
    Option("t", FLOAT),
    Option("mu", FLOAT, 0.0),
    Option("side", TEXT, "a", choices=("a", "b")),
    Option("k0x_min", POSITIVE, 0.025),
    Option("k0x_max", FLOAT, 12.575),
    Option("k0x_step", POSITIVE, 0.025,
           f"grid step; the grid has at most {MAX_SCAN_POINTS} points"),
    Option("out", TEXT, "rates_scan.csv"),
    FORMAT,
)


def _scan_rates(config: dict):
    k0x_min, k0x_max, k0x_step = config["k0x_min"], config["k0x_max"], config["k0x_step"]
    # floor(span) points; span may overflow to inf, which floor rejects.
    span = (k0x_max - k0x_min) / k0x_step + 1.5
    if not 1.0 <= span < MAX_SCAN_POINTS + 1:
        raise CliError(2, f"--k0x-min {k0x_min}, --k0x-max {k0x_max} and --k0x-step "
                          f"{k0x_step} must give 1 to {MAX_SCAN_POINTS} grid points")
    k0x = [k0x_min + k0x_step * i for i in range(math.floor(span))]
    z = [2.0 * k for k in k0x]
    preset = config["preset"]
    mirror = MirrorSpec.from_preset(preset, r=config["r"], t=config["t"])
    if preset in ("perfect", "absorbing"):
        result = rates.preset_rates(preset, config["mu"], z)
        mirror_desc = {"preset": preset}
    else:
        result = rates.preset_rates("symmetric", config["mu"], z, r=mirror.r_a, t=mirror.t_a)
        mirror_desc = {"preset": preset, "r": mirror.r_a, "t": mirror.t_a}
    return k0x, result, mirror_desc


def cmd_rates_scan(config: dict) -> int:
    k0x, result, mirror_desc = _scan_rates(config)
    rows = io.table_rows(k0x, result.gamma_ratio, result.delta_ratio)
    meta = _meta("rates-scan", {**config, "mirror": mirror_desc})
    io.write_table(config["out"], io.SWEEP_HEADER, rows, meta, config["format"])
    return 0


# ---------------------------------------------------------------- oracle-verify

# The convergence check doubles the order, and the route tables grow with
# it: --order 1024 takes about 0.5 s and 48 MB on a 2-core machine.
ORACLE_MAX_ORDER = 1024

ORACLE_OPTIONS = (
    Option("tolerance", POSITIVE, None, "blanket override for all tolerances"),
    Option("tol_gamma", POSITIVE, 1e-8),
    Option("tol_delta", POSITIVE, 1e-8),
    Option("tol_route", POSITIVE, 1e-10),
    Option("tol_energy", POSITIVE, 1e-3),
    Option("order", INT, 64, f"Gauss-Legendre order, 16 to {ORACLE_MAX_ORDER} (default 64)"),
    Option("grid_coarse", SWITCH, False),
    Option("out", TEXT, "oracle_report.json"),
)


def cmd_oracle_verify(config: dict) -> int:
    tols = {k: config[k] for k in ("tol_gamma", "tol_delta", "tol_route", "tol_energy")}
    if config["tolerance"] is not None:
        tols = dict.fromkeys(tols, config["tolerance"])
    order = 16 if config["grid_coarse"] else config["order"]
    if order > ORACLE_MAX_ORDER:
        raise CliError(2, f"--order must be at most {ORACLE_MAX_ORDER}, got {order}")
    out_path = Path(config["out"])
    meta = _meta("oracle-verify", dict(config), tolerances=tols)
    try:
        checks = oracle.run_default_checks(quad=oracle.QuadratureSpec(order=order), **tols)
    except (QuadratureNotConverged, GridTooCoarse) as exc:
        payload = {"meta": meta,
                   "error": {"type": type(exc).__name__, "message": str(exc)}}
        io._write_json(out_path, payload)
        print(f"oracle-verify: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    all_pass = all(c["pass"] for c in checks)
    payload = {"meta": meta, "checks": checks, "all_pass": all_pass}
    io._write_json(out_path, payload)
    for check in checks:
        status = "PASS" if check["pass"] else "FAIL"
        print(f"{status} {check['name']}: max_rel_dev={check['max_rel_dev']:.3e} "
              f"(tolerance {check['tolerance']:.1e})")
    return 0 if all_pass else 3


# ---------------------------------------------------------------- evolve

EVOLVE_OPTIONS = (
    Option("gamma", FLOAT),
    Option("delta", FLOAT),
    Option("rho22", FLOAT, 1.0),
    Option("rho12_re", FLOAT, 0.0),
    Option("rho12_im", FLOAT, 0.0),
    Option("t_final", FLOAT),
    Option("dt", FLOAT),
    Option("from_mirror", TEXT, choices=PRESETS),
    Option("k0x", FLOAT),
    Option("mu", FLOAT, 0.0),
    Option("r", FLOAT),
    Option("t_rate", FLOAT, None, "mirror transmission for --from-mirror symmetric"),
    Option("gamma_free", FLOAT, 1.0),
    Option("unravel", INT, None,
           f"number of quantum-jump trajectories, at most {MAX_TRAJECTORIES}"),
    Option("seed", SEED, 0),
    Option("out", TEXT, "trajectory.csv"),
    FORMAT,
)


def _evolve_channel(config: dict) -> mastereq.AtomChannel:
    if config["from_mirror"] is not None:
        if config["k0x"] is None:
            raise CliError(2, "--from-mirror needs --k0x")
        mirror = MirrorSpec.from_preset(config["from_mirror"], r=config["r"],
                                        t=config["t_rate"])
        return mastereq.channel_at(mirror, config["mu"], 2.0 * config["k0x"],
                                   config["gamma_free"])
    gamma = 1.0 if config["gamma"] is None else config["gamma"]
    delta = 0.0 if config["delta"] is None else config["delta"]
    return mastereq.AtomChannel(gamma=gamma, delta=delta)


def cmd_evolve(config: dict) -> int:
    channel = _evolve_channel(config)
    scale = max(channel.gamma, abs(channel.delta), 1e-12)
    t_final = 5.0 / scale if config["t_final"] is None else config["t_final"]
    dt = 1e-3 / scale if config["dt"] is None else config["dt"]
    rho22 = config["rho22"]
    rho12 = complex(config["rho12_re"], config["rho12_im"])
    rho0 = mastereq.DensityMatrix(rho11=1.0 - rho22, rho12=rho12, rho21=rho12.conjugate(),
                                  rho22=rho22)
    parameters = {**config, "channel": {"gamma": channel.gamma, "delta": channel.delta},
                  "t_final": t_final, "dt": dt}
    if config["unravel"] is None:
        # The populations are floats, since the diagonal of rho0 is real. At
        # the step cap each column holds 10**6 numbers, 32-40 MB, so rho21
        # and the complex rho12 are let go before the rows are built.
        result = mastereq.evolve(rho0, channel, t_final, dt)
        times, (ground, coherence, _, excited) = result.times, result.entries
        del result, _
        re12, im12 = [c.real for c in coherence], [c.imag for c in coherence]
        del coherence
        header, rows = io.TRAJECTORY_HEADER, io.table_rows(times, ground, excited, re12, im12)
    else:
        result = mastereq.jump_unravel(rho0, channel, t_final, dt,
                                       n_traj=config["unravel"], seed=config["seed"])
        rho = result.rho
        header = io.TRAJECTORY_HEADER + ["stderr_rho22"]
        rows = io.table_rows(result.t, rho[:, 0, 0].real, rho[:, 1, 1].real,
                             rho[:, 0, 1].real, rho[:, 0, 1].imag, result.stderr_rho22)
    io.write_table(config["out"], header, rows, _meta("evolve", parameters), config["format"])
    return 0


# ---------------------------------------------------------------- scatter

SCATTER_OPTIONS = (
    Option("scene", TEXT),
    Option("times", FLOATS, [0.0]),
    Option("x_min", FLOAT, -50.0),
    Option("x_max", FLOAT, 50.0),
    Option("nx", INT, 2001,
           f"grid points; nx times the time count is at most {MAX_FRAME_ROWS}"),
    Option("out", TEXT, "scatter_frames.csv"),
    FORMAT,
)


def _load_scene(path: str) -> classical.ScatterScene:
    data = _json_object(path, "scene", ("mirror", "medium", "packets_a", "packets_b"))

    def read(key, record, cls, *extra):
        """``record`` at scene key ``key``, read by an option per number field
        of ``cls``."""
        if not isinstance(record, dict):
            raise CliError(2, f"scene key {key!r} must be an object")
        options = [Option(f.name, FLOAT) for f in dataclasses.fields(cls)
                   if f.type == "float"] + list(extra)
        values = _read(record, options, "scene")
        _check_domains(values, options, lambda option: f"scene {key}.{option.key}")
        return values

    def packets(key, side):
        entries = data.get(key, [])
        if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
            raise CliError(2, f"scene key {key!r} must be a list of objects")
        out = []
        # A packet's side is the list it is in, never a key of its record.
        keys = [f.name for f in dataclasses.fields(GaussianPacket) if f.name != "side"]
        for index, entry in enumerate(entries):
            entry = read(key, entry, GaussianPacket)
            _check_keys("GaussianPacket keys", entry, keys)
            # A soft warning (a packet not well localised) names the record.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", UserWarning)
                out.append(GaussianPacket.from_dict({**entry, "side": side}))
            for warning in caught:
                print(f"warning: scene {key}[{index}]: {warning.message}", file=sys.stderr)
        return tuple(out)

    mirror = read("mirror", data.get("mirror", {"preset": "perfect"}), MirrorSpec,
                  Option("preset", TEXT), Option("r", FLOAT), Option("t", FLOAT))
    return classical.ScatterScene(
        mirror=(MirrorSpec.from_preset(mirror.pop("preset"), **mirror) if "preset" in mirror
                else MirrorSpec.from_dict(mirror)),
        medium=Medium.from_dict(read("medium", data.get("medium", {}), Medium)),
        packets_a=packets("packets_a", "a"),
        packets_b=packets("packets_b", "b"),
    )


def cmd_scatter(config: dict) -> int:
    times = config["times"]
    if not times:
        raise CliError(2, "scatter needs at least one time --times")
    x_grid = _x_grid(config, len(times))
    if config["scene"] is None:
        raise CliError(2, "scatter needs --scene")
    scene = _load_scene(config["scene"])

    def fields(t):
        from_a, from_b = classical.mirror_field_1d_by_side(scene, x_grid, t)
        return from_a + from_b, from_a, from_b

    return _write_frames("scatter", config, times, x_grid, fields)


# ---------------------------------------------------------------- wiring

class Command(NamedTuple):
    run: Callable[[dict], int]
    help: str
    options: tuple
    description: str | None = None


_COMMANDS = {
    "fig2": Command(cmd_fig2, "wave packet meeting a mirror, frame series", FIG2_OPTIONS),
    "rates-scan": Command(cmd_rates_scan, "decay rate and level shift sweep",
                          RATES_SCAN_OPTIONS),
    "oracle-verify": Command(cmd_oracle_verify, "run the numerical verification suite",
                             ORACLE_OPTIONS),
    "evolve": Command(
        cmd_evolve, "integrate the atomic master equation", EVOLVE_OPTIONS,
        "Integrate the atomic master equation, or average --unravel quantum-jump "
        f"trajectories, over at most {MAX_STEPS} steps t_final/dt."),
    "scatter": Command(cmd_scatter, "classical scene from a JSON file", SCATTER_OPTIONS),
}


# argparse reads a value as a negative number, not as a flag, only in the
# forms -1 and -1.5; a float flag also takes -1e-3, -inf and -nan.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$",
                              re.IGNORECASE)


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for ``argv``. Every command is listed, but only the one
    ``argv`` invokes gets its flags. The top-level parser has no option that
    takes a value, so the invoked command is the first word of ``argv``
    that names one."""
    parser = argparse.ArgumentParser(
        prog="mirrorfield",
        description="Light scattering and atom dynamics near semi-transparent mirrors",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    invoked = next((word for word in argv if word in _COMMANDS), None)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.description)
        if name != invoked:
            continue
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.add_argument("--config")
        for option in command.options:
            choices = {"choices": option.choices} if option.choices else {}  # not for a switch
            p.add_argument(option.flag, help=option.help, **option.kind.flag, **choices)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        config = _merged(args, command.options)
        return command.run(config)
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


def entry() -> None:
    """Run ``main`` as a process and exit with its code. However ``main``
    ends, the objects still alive are frozen first, so the interpreter's
    shutdown skips the collector's passes over them; output is still
    flushed and atexit handlers still run. ``main`` itself leaves the
    collector alone, since it may run many times in one process."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
