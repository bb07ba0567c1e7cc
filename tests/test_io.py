import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorfield import io


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


_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf]),
    st.integers(-2 ** 70, 2 ** 70),
)


@settings(max_examples=60, deadline=None)
@given(n_columns=st.integers(0, 6), data=st.data(),
       meta=st.dictionaries(st.text(max_size=5), st.one_of(st.none(), _NUMBERS, st.text()),
                            max_size=4))
def test_json_payload_equals_indented_dumps(tmp_path_factory, n_columns, data, meta):
    # Tables of 0, 1, a few and more than one chunk of rows; a row of no
    # columns is written as [] too.
    n_rows = data.draw(st.sampled_from([0, 1, 2, 7, io.CSV_CHUNK_ROWS + 3]))
    row = st.tuples(*[_NUMBERS] * n_columns)
    rows = data.draw(st.lists(row, min_size=n_rows, max_size=n_rows)
                     if n_rows < 10 else st.just([tuple(float(i) / 7.0 - j for j in
                                                        range(n_columns))
                                                  for i in range(n_rows)]))
    header = [f"c{j}" for j in range(n_columns)]
    path = tmp_path_factory.mktemp("payload") / "table.json"
    io.write_json_payload(path, meta, header, rows)
    expected = json.dumps({"meta": meta, "columns": header, "rows": [list(r) for r in rows]},
                          sort_keys=True, indent=2) + "\n"
    assert path.read_text(encoding="utf-8") == expected


def test_frame_rows_row_major_ordering(tmp_path):
    from mirrorfield import cli

    out = tmp_path / "frames.csv"
    assert cli.main(["fig2", "--nx", "2", "--x-min", "0", "--x-max", "1", "--t", "0",
                     "--t", "2", "--out", str(out)]) == 0
    rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
    assert rows == [["0.0", "0.0"], ["0.0", "1.0"], ["2.0", "0.0"], ["2.0", "1.0"]]


def test_trajectory_rows_with_stderr(tmp_path):
    from mirrorfield import cli, mastereq

    out = tmp_path / "trajectory.csv"
    assert cli.main(["evolve", "--gamma", "1", "--delta", "0.5", "--rho22", "0.8",
                     "--rho12-re", "0.24", "--rho12-im", "0.32", "--t-final", "0.02",
                     "--dt", "0.01", "--unravel", "50", "--seed", "3",
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,rho11,rho22,re_rho12,im_rho12,stderr_rho22"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    rho0 = np.array([[1.0 - 0.8, 0.24 + 0.32j], [0.24 - 0.32j, 0.8]])
    result = mastereq.jump_unravel(rho0, mastereq.AtomChannel(gamma=1.0, delta=0.5),
                                   0.02, 0.01, n_traj=50, seed=3)
    rho = result.rho
    assert rows == [(t, r[0, 0].real, r[1, 1].real, r[0, 1].real, r[0, 1].imag, se)
                    for t, r, se in zip(result.t, rho, result.stderr_rho22)]
    assert rows[1][5] > 0.0


def test_trajectory_rows_are_float_tuples(tmp_path):
    from mirrorfield import cli

    out = tmp_path / "trajectory.json"
    assert cli.main(["evolve", "--gamma", "0", "--rho22", "0", "--t-final", "2",
                     "--dt", "1", "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert rows == [[0.0, 1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0, 0.0],
                    [2.0, 1.0, 0.0, 0.0, 0.0]]
    assert all(type(v) is float for row in rows for v in row)
