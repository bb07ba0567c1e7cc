import json

import numpy as np
import pytest

from mirrorfield import io
from mirrorfield import modespace as ms
from mirrorfield.core import GaussianPacket, Medium


def test_float_formatting_round_trips():
    values = [0.1, 1.0 / 3.0, 1.1519817754635067, -2.5e-17, 1e300]
    for v in values:
        assert float(io.format_value(v)) == v


def test_write_csv_and_sidecar(tmp_path):
    path = tmp_path / "table.csv"
    io.write_table(path, ["a", "b"], [(1.0, 2.5), (0.1, -0.25)],
                   {"command": "test", "parameters": {}}, fmt="csv")
    text = path.read_text()
    assert text.splitlines()[0] == "a,b"
    assert text.splitlines()[1] == "1.0,2.5"
    meta = json.loads((tmp_path / "table.csv.json").read_text())
    assert meta["command"] == "test"


@pytest.mark.parametrize("n_rows", [0, io.CSV_CHUNK_ROWS, 2 * io.CSV_CHUNK_ROWS + 1])
def test_write_csv_in_chunks_equals_joined_text(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    rows = [(float(j), float(v), -float(v) * 1e-300, 7) for j, v in
            enumerate(rng.standard_normal(n_rows))]
    header = ["a", "b", "c", "d"]
    path = tmp_path / "table.csv"
    io.write_csv(path, header, iter(rows))
    lines = [",".join(header)] + [",".join(map(io.format_value, row)) for row in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_amplitude_dump_schema(tmp_path):
    packet = GaussianPacket.moving(e0=1.0, x0=30.0, sigma=3.0, k0_carrier=-10.0)
    grid = ms.ModeGrid.for_packet(packet, n_modes=256)
    med = Medium()
    # A coarse grid is fine here; only the file schema is under test.
    try:
        amps = ms.packet_to_amplitudes(packet, grid, med)
    except Exception:
        grid = ms.ModeGrid.for_packet(packet, n_modes=4096)
        amps = ms.packet_to_amplitudes(packet, grid, med)
    path = tmp_path / "amps.csv"
    io.write_csv(path, io.AMPLITUDE_HEADER, io.amplitude_rows(grid, amps))
    lines = path.read_text().splitlines()
    assert lines[0] == "k,re_alpha_a,im_alpha_a,re_alpha_b,im_alpha_b"
    assert len(lines) == 1 + grid.k.size
    first = lines[1].split(",")
    assert float(first[0]) == grid.k[0]


def test_frame_rows_row_major_ordering():
    x = np.array([0.0, 1.0])

    def fields(t):
        base = np.array([t, t + 0.5])
        return base, base, np.zeros_like(base)

    rows = io.frame_rows([0.0, 2.0], x, fields)
    assert [(r[0], r[1]) for r in rows] == [(0.0, 0.0), (0.0, 1.0),
                                            (2.0, 0.0), (2.0, 1.0)]


def test_trajectory_rows_with_stderr():
    t = np.array([0.0, 1.0])
    rho = np.zeros((2, 2, 2), dtype=complex)
    rho[:, 1, 1] = [1.0, 0.5]
    rho[:, 0, 1] = [0.1 + 0.2j, 0.05 - 0.1j]
    rows = io.trajectory_rows(t, rho, stderr_rho22=np.array([0.0, 0.01]))
    assert rows[1] == (1.0, 0.0, 0.5, 0.05, -0.1, 0.01)


def test_trajectory_rows_are_float_tuples():
    t = np.arange(3)
    rho = np.zeros((3, 2, 2), dtype=complex)
    rho[:, 0, 0] = 1.0
    rows = io.trajectory_rows(t, rho)
    assert rows == [(0.0, 1.0, 0.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0, 0.0),
                    (2.0, 1.0, 0.0, 0.0, 0.0)]
    assert all(type(v) is float for row in rows for v in row)
