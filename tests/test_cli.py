import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest


def run_cli(*args, cwd=None, env=None):
    cmd = [sys.executable, "-m", "mirrorfield", *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, env=env)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


# ------------------------------------------------------------- fig2

def test_fig2_default_run(tmp_path):
    out = tmp_path / "frames.csv"
    result = run_cli("fig2", "--out", str(out))
    assert result.returncode == 0, result.stderr
    header, rows = read_csv(out)
    assert header == ["t", "x", "E_total", "E_side_a", "E_side_b"]
    assert len(rows) == 3 * 2001
    # node at the mirror in every frame
    for row in rows:
        if float(row[1]) == 0.0:
            assert abs(float(row[2])) < 1e-12
    # sidecar carries provenance
    meta = json.loads(Path(str(out) + ".json").read_text())
    assert meta["command"] == "fig2"
    assert meta["version"]
    assert meta["parameters"]["mirror"] == "perfect"


def test_fig2_single_frame(tmp_path):
    out = tmp_path / "one.csv"
    result = run_cli("fig2", "--frames", "1", "--t", "0", "--out", str(out))
    assert result.returncode == 0, result.stderr
    _, rows = read_csv(out)
    assert len(rows) == 2001
    assert {row[0] for row in rows} == {"0.0"}


def test_fig2_free_mirror_is_sum_of_free_packets(tmp_path):
    out = tmp_path / "free.csv"
    result = run_cli("fig2", "--mirror", "free", "--out", str(out))
    assert result.returncode == 0, result.stderr
    _, rows = read_csv(out)
    for row in rows[::97]:
        total, side_a, side_b = float(row[2]), float(row[3]), float(row[4])
        assert side_b == 0.0
        assert total == pytest.approx(side_a, abs=1e-14)


def test_fig2_total_is_clipped_sum_of_contributions(tmp_path):
    out = tmp_path / "frames.csv"
    run_cli("fig2", "--out", str(out))
    _, rows = read_csv(out)
    for row in rows[::53]:
        x = float(row[1])
        total, side_a, side_b = float(row[2]), float(row[3]), float(row[4])
        if x >= 0.0:
            assert total == pytest.approx(side_a + side_b, abs=1e-12)
        else:
            assert total == 0.0


# ------------------------------------------------------------- rates-scan

def test_rates_scan_perfect_curve(tmp_path):
    out = tmp_path / "scan.csv"
    result = run_cli("rates-scan", "--preset", "perfect", "--mu", "0",
                     "--out", str(out))
    assert result.returncode == 0, result.stderr
    header, rows = read_csv(out)
    assert header == ["k0x", "gamma_ratio", "delta_ratio"]
    gammas = np.array([float(r[1]) for r in rows])
    k0x = np.array([float(r[0]) for r in rows])
    assert gammas[0] < 5e-3          # emanates from zero at contact
    assert abs(gammas[-1] - 1.0) < 0.1  # oscillates towards one
    assert k0x[0] == pytest.approx(0.025)


def test_rates_scan_symmetric_and_lossless(tmp_path):
    half = repr(2**-0.5)
    out1 = tmp_path / "sym.csv"
    assert run_cli("rates-scan", "--preset", "symmetric", "--r", half,
                   "--t", half, "--mu", "0", "--out", str(out1)).returncode == 0
    out2 = tmp_path / "lossless.csv"
    assert run_cli("rates-scan", "--preset", "lossless", "--r", "1",
                   "--out", str(out2)).returncode == 0
    out3 = tmp_path / "perfect.csv"
    assert run_cli("rates-scan", "--preset", "perfect", "--out", str(out3)).returncode == 0
    # lossless r=1 is the perfect mirror curve
    assert out2.read_text().splitlines()[1:] == out3.read_text().splitlines()[1:]


def test_rates_scan_rejects_inadmissible_rates(tmp_path):
    result = run_cli("rates-scan", "--preset", "symmetric", "--r", "0.9",
                     "--t", "0.9", "--out", str(tmp_path / "bad.csv"))
    assert result.returncode == 2


def test_rates_scan_byte_identical_reruns(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    run_cli("rates-scan", "--preset", "symmetric", "--r", "0.35", "--t", "0.35",
            "--out", str(out1))
    run_cli("rates-scan", "--preset", "symmetric", "--r", "0.35", "--t", "0.35",
            "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_rates_scan_json_format(tmp_path):
    out = tmp_path / "scan.json"
    result = run_cli("rates-scan", "--preset", "absorbing", "--format", "json",
                     "--out", str(out))
    assert result.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["columns"] == ["k0x", "gamma_ratio", "delta_ratio"]
    assert all(row[1] == 1.0 and row[2] == 0.0 for row in payload["rows"])


# ------------------------------------------------------------- config files

def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "perfect", "mu": 1.0,
                               "k0x_max": 1.0, "out": str(tmp_path / "c.csv")}))
    result = run_cli("rates-scan", "--config", str(cfg))
    assert result.returncode == 0, result.stderr
    _, rows = read_csv(tmp_path / "c.csv")
    assert float(rows[0][1]) == pytest.approx(2.0, abs=2e-3)  # mu=1 contact limit

    # flag overrides the config value
    result = run_cli("rates-scan", "--config", str(cfg), "--mu", "0")
    _, rows = read_csv(tmp_path / "c.csv")
    assert float(rows[0][1]) == pytest.approx(0.0, abs=2e-3)


def test_config_unknown_keys_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "perfect", "no_such_option": 1}))
    result = run_cli("rates-scan", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2
    assert "no_such_option" in result.stderr


# ------------------------------------------------------------- oracle-verify

def test_oracle_verify_passes_and_reports(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("oracle-verify", "--out", str(out))
    assert result.returncode == 0, result.stderr
    payload = json.loads(out.read_text())
    assert payload["all_pass"] is True
    names = {c["name"] for c in payload["checks"]}
    assert names == {"gamma_angular_quadrature", "delta_contour_form",
                     "decay_route_consistency", "field_energy_mode_sum"}
    for check in payload["checks"]:
        assert set(check) == {"name", "grid", "max_rel_dev", "tolerance", "pass"}


def test_oracle_verify_overtight_tolerance_fails(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("oracle-verify", "--tolerance", "1e-15", "--out", str(out))
    assert result.returncode == 3
    payload = json.loads(out.read_text())
    assert payload["all_pass"] is False
    failing = [c for c in payload["checks"] if not c["pass"]]
    assert failing and all(c["max_rel_dev"] > 1e-15 for c in failing)


def test_oracle_verify_grid_coarse_structured_error(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("oracle-verify", "--grid-coarse", "--out", str(out))
    assert result.returncode == 3
    payload = json.loads(out.read_text())
    assert payload["error"]["type"] == "QuadratureNotConverged"
    message = payload["error"]["message"]
    assert message.startswith("order 16 -> 32 ") and message.endswith(" at z=12.3")
    assert message in result.stderr


# ------------------------------------------------------------- evolve

def test_evolve_exponential_decay_table(tmp_path):
    out = tmp_path / "traj.csv"
    result = run_cli("evolve", "--gamma", "1", "--delta", "0", "--rho22", "1",
                     "--t-final", "3", "--dt", "0.002", "--out", str(out))
    assert result.returncode == 0, result.stderr
    header, rows = read_csv(out)
    assert header == ["t", "rho11", "rho22", "re_rho12", "im_rho12"]
    for row in rows[::211]:
        t, rho22 = float(row[0]), float(row[2])
        assert rho22 == pytest.approx(math.exp(-t), abs=1e-8)


def test_evolve_from_mirror_composition(tmp_path):
    out = tmp_path / "traj.csv"
    result = run_cli("evolve", "--from-mirror", "perfect",
                     "--k0x", repr(math.pi / 2.0), "--mu", "0",
                     "--t-final", "2", "--dt", "0.0005", "--out", str(out))
    assert result.returncode == 0, result.stderr
    meta = json.loads(Path(str(out) + ".json").read_text())
    channel = meta["parameters"]["channel"]
    assert channel["gamma"] == pytest.approx(1.1519817754635067, rel=1e-12)
    assert channel["delta"] == pytest.approx(-0.21454376381294338, rel=1e-12)
    _, rows = read_csv(out)
    mid = rows[len(rows) // 2]
    assert float(mid[2]) == pytest.approx(
        math.exp(-channel["gamma"] * float(mid[0])), abs=1e-7)


def test_evolve_unravel_reproducible(tmp_path):
    args = ["evolve", "--gamma", "1", "--rho22", "1", "--t-final", "2",
            "--dt", "0.01", "--unravel", "400", "--seed", "42"]
    out1 = tmp_path / "u1.csv"
    out2 = tmp_path / "u2.csv"
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_csv(out1)
    assert header[-1] == "stderr_rho22"
    # averages stay near the deterministic curve
    for row in rows[:: max(1, len(rows) // 20)]:
        t, rho22, err = float(row[0]), float(row[2]), float(row[5])
        assert abs(rho22 - math.exp(-t)) <= 4.0 * err + 1e-12


def test_evolve_unravel_json_rerun_is_byte_identical(tmp_path):
    args = ["evolve", "--gamma", "1", "--rho22", "1", "--t-final", "1.5",
            "--dt", "0.01", "--unravel", "300", "--seed", "9", "--format", "json"]
    out = tmp_path / "u.json"  # the JSON payload records the --out path
    assert run_cli(*args, "--out", str(out)).returncode == 0
    first = out.read_bytes()
    assert run_cli(*args, "--out", str(out)).returncode == 0
    assert out.read_bytes() == first


def test_evolve_rejects_too_large_step(tmp_path):
    result = run_cli("evolve", "--gamma", "10", "--dt", "0.1", "--t-final", "1",
                     "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2


# ------------------------------------------------------------- scatter

def scene_payload():
    return {
        "mirror": {"preset": "symmetric", "r": 0.6, "t": 0.6,
                   "phi_1": math.pi, "phi_3": math.pi},
        "medium": {"epsilon": 1.0, "mu_p": 1.0},
        "packets_a": [{"e0": 1.0, "x0": 30.0, "sigma": 3.0, "k0_carrier": -10.0}],
        "packets_b": [{"e0": 0.5, "x0": -25.0, "sigma": 2.5, "k0_carrier": 8.0}],
    }


def test_scatter_side_decomposition(tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(scene_payload()))
    out = tmp_path / "frames.csv"
    result = run_cli("scatter", "--scene", str(scene), "--times", "0", "2.5",
                     "--x-min", "-60", "--x-max", "60", "--nx", "601",
                     "--out", str(out))
    assert result.returncode == 0, result.stderr
    header, rows = read_csv(out)
    assert header == ["t", "x", "E_total", "E_side_a", "E_side_b"]
    assert len(rows) == 2 * 601
    for row in rows[::37]:
        assert float(row[2]) == pytest.approx(float(row[3]) + float(row[4]),
                                              abs=1e-12)


def test_scatter_scene_warning_names_the_record(tmp_path, capsys):
    """A packet that is not well localised gives one stderr line naming its
    scene record, not a Python warning, and the frames are unchanged."""
    from mirrorfield import classical, cli, io
    from mirrorfield.core import GaussianPacket, Medium, MirrorSpec

    payload = {**scene_payload(),
               "packets_b": [scene_payload()["packets_b"][0],
                             {"e0": 0.5, "x0": -1.0, "sigma": 2.5, "k0_carrier": 8.0}]}
    scene_file = tmp_path / "scene.json"
    scene_file.write_text(json.dumps(payload))
    out = tmp_path / "frames.csv"
    assert cli.main(["scatter", "--scene", str(scene_file), "--times", "0", "2.5",
                     "--nx", "301", "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        "warning: scene packets_b[1]: packet centred at x0=-1.0 is not well "
        "localised on side b (|x0| < 3 sigma)\n")

    with pytest.warns(UserWarning, match="not well localised"):
        packets_b = tuple(GaussianPacket.moving(side="b", **p) for p in payload["packets_b"])
    scene = classical.ScatterScene(
        mirror=MirrorSpec.symmetric(r=0.6, t=0.6, phi_1=math.pi, phi_3=math.pi),
        medium=Medium(), packets_b=packets_b,
        packets_a=(GaussianPacket.moving(side="a", **payload["packets_a"][0]),))
    x = np.linspace(-50.0, 50.0, 301)
    rows = []
    for t in (0.0, 2.5):
        from_a, from_b = classical.mirror_field_1d_by_side(scene, x, t)
        rows += io.table_rows(x, from_a + from_b, from_a, from_b, first=t)
    expected = tmp_path / "expected.csv"
    io.write_csv(expected, io.FRAME_HEADER, rows)
    assert out.read_bytes() == expected.read_bytes()


def test_scatter_rejects_unknown_scene_keys(tmp_path):
    payload = scene_payload()
    payload["bogus"] = True
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(payload))
    result = run_cli("scatter", "--scene", str(scene),
                     "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2


def test_scatter_missing_scene_file_is_io_error(tmp_path):
    result = run_cli("scatter", "--scene", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 4


# ------------------------------------------------------------- rejected input

SCENE_REJECTS = [
    ({"mirror": {"preset": "symmetric", "r": 0.5, "t": 0.5, "bogus": 1}}, "bogus"),
    ({"mirror": {"t_a": 1}}, "missing t_b"),
    ({"mirror": {"preset": "perfect", "r": 0.5}}, "unknown r"),
    ({"mirror": {"preset": "symmetric", "t": 0.5}}, "missing r"),
    ({"mirror": {"preset": "lossless"}}, "missing r"),
    ({"medium": {"bogus": 1}}, "bogus"),
    ({"packets_a": [{"e0": 1.0, "x0": 30.0, "sigma": 3.0}]}, "k0_carrier"),
    ({"packets_a": [{"e0": 1.0, "x0": 30.0, "sigma": 3.0, "k0_carrier": -10.0,
                     "bogus": 1}]}, "bogus"),
    ({"medium": {"epsilon": math.nan}}, "epsilon must be finite"),
    ({"medium": {"mu_p": math.inf}}, "mu_p must be finite"),
    ({"packets_a": [{"e0": math.nan, "x0": 30.0, "sigma": 3.0,
                     "k0_carrier": -10.0}]}, "e0 must be finite"),
    ({"mirror": 5}, "scene key 'mirror' must be an object"),
    ({"medium": [1]}, "scene key 'medium' must be an object"),
    ({"packets_a": 5}, "scene key 'packets_a' must be a list of objects"),
    ({"packets_a": [5]}, "scene key 'packets_a' must be a list of objects"),
    # A packet's side is the list it is in and its direction the carrier sign.
    ({"packets_a": [{"e0": 1.0, "x0": 30.0, "sigma": 3.0, "k0_carrier": -10.0,
                     "side": "b"}]}, "GaussianPacket keys: unknown side"),
    ({"packets_b": [{"e0": 0.5, "x0": -25.0, "sigma": 2.5, "k0_carrier": 8.0,
                     "direction": "right"}]}, "GaussianPacket keys: unknown direction"),
    # A null drops only an option's key; any other key is unknown, null or not.
    ({"mirror": {"preset": "perfect", "bogus": None}},
     "mirror preset 'perfect': unknown bogus"),
    ({"medium": {"bogus": None}}, "Medium keys: unknown bogus"),
    ({"packets_a": [{"e0": 1.0, "x0": 30.0, "sigma": 3.0, "k0_carrier": -10.0,
                     "bogus": None}]}, "GaussianPacket keys: unknown bogus"),
]


@pytest.mark.parametrize("patch, needle", SCENE_REJECTS)
def test_scatter_rejects_bad_scene_records(tmp_path, patch, needle):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({**scene_payload(), **patch}))
    out = tmp_path / "x.csv"
    result = run_cli("scatter", "--scene", str(scene), "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert needle in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


def _packet(**fields):
    return {"packets_a": [{**scene_payload()["packets_a"][0], **fields}]}


@pytest.mark.parametrize("patch, needle", [
    (_packet(e0="1"), "scene key 'e0' must be a number, got \"1\""),
    (_packet(e0=True), "scene key 'e0' must be a number, got true"),
    (_packet(e0=None), "missing e0"),  # null means absent
    (_packet(k0_carrier=[1]), "scene key 'k0_carrier' must be a number, got [1]"),
    (_packet(k0_carrier="-4"), "scene key 'k0_carrier' must be a number, got \"-4\""),
    (_packet(sigma=1e200), "sigma = 1e+200: need sigma > 0 and 0 < sigma**2 < inf"),
    ({"mirror": {"preset": "symmetric", "r": "0.5", "t": 0.5}},
     "scene key 'r' must be a number, got \"0.5\""),
    ({"mirror": {"preset": "symmetric", "r": True, "t": 0.5}},
     "scene key 'r' must be a number, got true"),
    ({"mirror": {"t_a": "0", "t_b": 0, "r_a": 1, "r_b": 1}},
     "scene key 't_a' must be a number, got \"0\""),
    ({"mirror": {"preset": "lossless", "r": 0.5, "phi_1": "x"}},
     "scene key 'phi_1' must be a number, got \"x\""),
    ({"mirror": {"preset": "lossless", "r": 0.5, "phi_2": math.inf}},
     "scene mirror.phi_2 must be finite, got inf"),
    ({"medium": {"epsilon": "2"}}, "scene key 'epsilon' must be a number, got \"2\""),
    ({"medium": {"epsilon": 1e300, "mu_p": 1e300}},
     "epsilon * mu_p must be positive and finite, got inf"),
    ({"medium": {"epsilon": 1e-300, "mu_p": 1e-300}},
     "epsilon * mu_p must be positive and finite, got 0.0"),
])
def test_scatter_reads_scene_fields_by_kind(tmp_path, capsys, patch, needle):
    from mirrorfield import cli

    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({**scene_payload(), **patch}))
    out = tmp_path / "x.csv"
    assert cli.main(["scatter", "--scene", str(scene), "--nx", "5", "--out", str(out)]) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_scene_null_is_absent(tmp_path):
    from mirrorfield import cli

    outputs = []
    for xi_init in ({"xi_init": None}, {}):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({**scene_payload(), **_packet(**xi_init)}))
        out = tmp_path / "frames.csv"
        assert cli.main(["scatter", "--scene", str(scene), "--nx", "21", "--times", "0", "2",
                         "--out", str(out)]) == 0
        outputs.append((out.read_bytes(), Path(str(out) + ".json").read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flag", ["--config", "--scene"])
def test_invalid_json_file_exits_2(tmp_path, capsys, flag):
    from mirrorfield import cli

    path = tmp_path / "file.json"
    path.write_text('{"nx": 5,')
    out = tmp_path / "x.csv"
    argv = ["scatter", flag, str(path), "--out", str(out)]
    if flag == "--config":
        argv += ["--scene", str(tmp_path / "no-such-scene.json")]
    assert cli.main(argv) == 2
    assert f"{flag[2:]} is not valid JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["rates-scan"], ["oracle-verify"]])
def test_out_in_a_missing_directory_exits_4(tmp_path, monkeypatch, capsys, argv):
    from mirrorfield import cli, oracle

    monkeypatch.setattr(oracle, "run_default_checks", lambda **kwargs: [
        {"name": "stub", "grid": {}, "max_rel_dev": 0.0, "tolerance": 1.0, "pass": True}])
    out = tmp_path / "missing" / "x.csv"
    assert cli.main([*argv, "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert not out.parent.exists()


def test_scatter_rejects_a_scene_that_is_not_an_object(tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text("[1]")
    out = tmp_path / "x.csv"
    result = run_cli("scatter", "--scene", str(scene), "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert "scene must be a JSON object" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


ARGV_REJECTS = [
    ["rates-scan", "--preset", "perfect", "--r", "0.5"],
    ["rates-scan", "--preset", "lossless", "--r", "0.5", "--t", "0.5"],
    ["rates-scan", "--k0x-step", "0"],
    ["rates-scan", "--k0x-step", "-0.1"],
    ["rates-scan", "--k0x-step", "nan"],
    ["rates-scan", "--k0x-min", "5", "--k0x-max", "1"],
    ["rates-scan", "--mu", "2"],
    ["rates-scan", "--mu", "nan"],
    ["evolve", "--from-mirror", "perfect", "--r", "0.5", "--k0x", "1"],
    ["evolve", "--from-mirror", "perfect", "--k0x", "1", "--mu", "3"],
    ["fig2", "--nx", "0"],
    ["fig2", "--x-min", "nan"],
    # The grid is checked before the scene is read: a missing scene would
    # exit 4.
    ["scatter", "--scene", "no-such-scene.json", "--nx", "0"],
    ["evolve", "--gamma", "1", "--t-final", "inf"],
    ["evolve", "--gamma", "1", "--t-final", "inf", "--unravel", "10"],
    ["evolve", "--gamma", "nan"],
    ["evolve", "--dt", "nan"],
    ["evolve", "--delta", "inf"],
    ["evolve", "--rho22", "nan"],
    ["oracle-verify", "--order", "1025"],
    # The no-jump renormalisation would divide by an underflowed norm.
    ["evolve", "--gamma", "1", "--rho22", "1", "--dt", "1000", "--t-final", "3000",
     "--unravel", "5"],
    # 1e12 steps: rejected before anything is allocated.
    ["evolve", "--gamma", "1", "--t-final", "1e9", "--dt", "1e-3"],
    ["evolve", "--gamma", "1", "--t-final", "1e9", "--dt", "1e-3", "--unravel", "5"],
    # t_final / dt overflows to inf.
    ["evolve", "--gamma", "1e-300", "--t-final", "1e300", "--dt", "1e-300"],
    # 1e12 trajectories: rejected before anything is allocated.
    ["evolve", "--gamma", "1", "--rho22", "1", "--unravel", "1000000000000"],
    ["fig2", "--x0", "0"],
    # The grid size overflows to inf.
    ["rates-scan", "--preset", "perfect", "--mu", "0", "--k0x-min", "1e-300",
     "--k0x-max", "1e300", "--k0x-step", "1e-300"],
    ["oracle-verify", "--tolerance", "nan"],
    ["oracle-verify", "--tolerance", "-1"],
    # The default sigma = x0 / sqrt(2) squares to 0: the frames would be NaN.
    ["fig2", "--x0", "1e-300", "--nx", "5"],
    ["fig2", "--sigma", "1e200", "--nx", "5"],
    # No frame is left, or --frames -1 would drop the last one.
    ["fig2", "--frames", "0"],
    ["fig2", "--frames", "-1"],
    # Non-finite frame times would fill the frames with NaN.
    ["fig2", "--t", "nan"],
    ["fig2", "--t", "inf"],
    ["scatter", "--scene", "no-such-scene.json", "--times", "nan"],
    ["scatter", "--scene", "no-such-scene.json", "--times", "0", "inf"],
    # The level shift, about 1/z**3, overflows at the first grid point.
    ["rates-scan", "--k0x-min", "1e-300"],
    # x_max - x_min overflows to inf: linspace would give NaN positions.
    ["fig2", "--x-min=-1e308", "--x-max=1e308", "--nx", "5"],
    ["scatter", "--scene", "no-such-scene.json", "--x-min=-1e308", "--x-max=1e308"],
    # The field, or the frame time t * x0, overflows to inf.
    ["fig2", "--e0=1.7e308", "--nx", "5"],
    ["fig2", "--x0", "1e300", "--sigma", "1", "--t", "1e300", "--nx", "5"],
    ["evolve", "--from-mirror", "perfect"],
    ["scatter"],
    # A seed outside 64 bits would alias seed mod 2**64's stream.
    ["evolve", "--gamma", "1", "--rho22", "1", "--unravel", "50",
     "--seed", "18446744073709551616"],
    ["evolve", "--gamma", "1", "--rho22", "1", "--unravel", "50", "--seed", "-1"],
]


@pytest.mark.parametrize("argv, flag, value, code", [
    (["fig2", "--nx", "5"], "--x-min", "-2e1", 0),
    (["rates-scan"], "--k0x-min", "-1e-3", 2),
    (["fig2", "--nx", "5"], "--x-min", "-inf", 2),
    (["fig2", "--nx", "5"], "--x-min", "-NaN", 2),
])
def test_negative_value_reads_alike_after_a_space_or_equals(tmp_path, argv, flag, value,
                                                            code):
    """argparse itself reads only -1 and -1.5 as values after a space."""
    outcomes = []
    for form, pair in (("space", [flag, value]), ("equals", [f"{flag}={value}"])):
        (tmp_path / form).mkdir()
        result = run_cli(*argv, *pair, "--out", "out.csv", cwd=tmp_path / form)
        files = sorted((p.name, p.read_bytes()) for p in (tmp_path / form).iterdir())
        outcomes.append((result.returncode, result.stderr, files))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == code, outcomes[0][1]
    if code == 2:
        domain = "finite" if value[1:].lower() in ("inf", "nan") else "positive and finite"
        assert f"{flag} must be {domain}, got {float(value)}" in outcomes[0][1]


def test_evolve_perfect_mirror_at_contact_fails_on_the_step_not_on_gamma(tmp_path):
    # At k0x = 1e-50 the perfect mirror's rate is exactly 0 for mu = 0; a
    # rounded -2.2e-16 used to be rejected as a negative gamma.
    result = run_cli("evolve", "--from-mirror", "perfect", "--k0x", "1e-50",
                     "--dt", "1e-3", "--t-final", "0.01", "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2
    assert "dt = 0.001 exceeds" in result.stderr
    assert "gamma must be non-negative" not in result.stderr


@pytest.mark.parametrize("argv", ARGV_REJECTS, ids=" ".join)
def test_out_of_domain_arguments_exit_2(tmp_path, argv):
    out = tmp_path / "x.csv"
    result = run_cli(*argv, "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["--gamma", "1", "--t-final", "inf"], "--t-final"),
    (["--gamma", "nan"], "--gamma"),
    (["--dt", "nan"], "--dt"),
    (["--delta", "inf"], "--delta"),
])
def test_evolve_names_the_non_finite_flag(tmp_path, argv, flag):
    result = run_cli("evolve", *argv, "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2
    assert f"{flag} must be finite" in result.stderr


def test_oracle_order_cap_runs_no_quadrature(tmp_path, monkeypatch, capsys):
    from mirrorfield import cli, oracle

    def forbidden(*args, **kwargs):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(oracle, "run_default_checks", forbidden)
    out = tmp_path / "report.json"
    assert cli.main(["oracle-verify", "--order", "1025", "--out", str(out)]) == 2
    assert "at most 1024" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_step_cap_allocates_nothing(tmp_path, monkeypatch, capsys):
    from mirrorfield import cli, mastereq

    def forbidden(*args, **kwargs):
        raise AssertionError("a trajectory was allocated")

    monkeypatch.setattr(mastereq, "_rk4_columns", forbidden)
    monkeypatch.setattr(mastereq, "_no_jump_path", forbidden)
    out = tmp_path / "x.csv"
    too_long = str(mastereq.MAX_STEPS + 1)
    for extra in ([], ["--unravel", "5"]):
        argv = ["evolve", "--gamma", "1e-3", "--t-final", too_long, "--dt", "1", *extra]
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert f"exceeds the cap of {mastereq.MAX_STEPS}" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_unravel_underflow_names_dt(tmp_path):
    result = run_cli("evolve", "--gamma", "1", "--rho22", "1", "--dt", "1000",
                     "--t-final", "3000", "--unravel", "5", "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2
    assert "dt = 1000.0" in result.stderr
    assert "RuntimeWarning" not in result.stderr


@pytest.mark.parametrize("argv, flag", [
    (["fig2", "--x0", "0"], "--x0 must be positive and finite"),
    (["rates-scan", "--k0x-min", "1e-300", "--k0x-max", "1e300", "--k0x-step", "1e-300"],
     "--k0x-step 1e-300 must give 1 to 1000000 grid points"),
    (["oracle-verify", "--tolerance", "nan"], "--tolerance must be positive and finite"),
    (["oracle-verify", "--tolerance", "-1"], "--tolerance must be positive and finite"),
    (["oracle-verify", "--tol-energy", "0"], "--tol-energy must be positive and finite"),
    (["oracle-verify", "--tolerance", "1e-3", "--tol-route", "inf"],
     "--tol-route must be positive and finite"),
    (["fig2", "--x0", "1e-300", "--nx", "5"], "--sigma must have a positive, finite square"),
    (["fig2", "--frames", "-1"], "--frames must be at least 1, got -1"),
    (["fig2", "--x-min=-1e308", "--x-max=1e308"],
     "--x-max 1e+308 minus --x-min -1e+308 must be finite"),
    (["evolve", "--unravel", "50", "--seed=-18446744073709551616"],
     "--seed must be in [0, 2**64), got -18446744073709551616"),
])
def test_rejected_flag_is_named(tmp_path, monkeypatch, capsys, argv, flag):
    from mirrorfield import cli, oracle

    def forbidden(*args, **kwargs):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(oracle, "run_default_checks", forbidden)
    out = tmp_path / "x.out"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_rates_scan_grid_cap(tmp_path, monkeypatch, capsys):
    from mirrorfield import cli, rates

    monkeypatch.setattr(cli, "MAX_SCAN_POINTS", 10)
    out = tmp_path / "scan.csv"
    argv = ["rates-scan", "--k0x-min", "0.5", "--k0x-step", "0.5", "--out", str(out)]
    assert cli.main([*argv, "--k0x-max", "5"]) == 0
    assert len(out.read_text().splitlines()) == 1 + 10
    out.unlink()

    def forbidden(*args, **kwargs):
        raise AssertionError("a rate was computed")

    monkeypatch.setattr(rates, "preset_rates", forbidden)
    assert cli.main([*argv, "--k0x-max", "5.5"]) == 2
    assert "must give 1 to 10 grid points" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config, needle", [
    ("fig2", {"t": []}, "fig2 needs at least one frame time --t"),
    ("scatter", {"times": []}, "scatter needs at least one time --times"),
])
def test_empty_frame_list_exits_2(tmp_path, capsys, command, config, needle):
    from mirrorfield import cli

    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "frames.csv"
    argv = [command, "--config", str(path), "--out", str(out)]
    if command == "scatter":
        argv += ["--scene", str(tmp_path / "no-such-scene.json")]
    assert cli.main(argv) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config, needle", [
    ("fig2", 5, "config must be a JSON object"),
    # dict.update would read the string "x0" as the pair ("x", "0").
    ("fig2", ["x0"], "config must be a JSON object"),
    ("scatter", {"times": 5}, "config key 'times' must be a list of numbers, got 5"),
    ("fig2", {"t": [None]}, "config key 't' must be a list of numbers, got [null]"),
    ("evolve", {"unravel": 2.7}, "config key 'unravel' must be an integer, got 2.7"),
    ("evolve", {"seed": True}, "config key 'seed' must be an integer, got true"),
    ("rates-scan", {"side": "c"}, "config key 'side' must be one of a, b, got \"c\""),
    ("oracle-verify", {"grid_coarse": "no"},
     "config key 'grid_coarse' must be true or false, got \"no\""),
    ("rates-scan", {"format": "xml"}, "config key 'format' must be one of csv, json"),
    ("rates-scan", {"mu": "0.5"}, "config key 'mu' must be a number, got \"0.5\""),
    ("evolve", {"gamma": math.inf}, "--gamma must be finite, got inf"),
    ("fig2", {"x0": -1}, "--x0 must be positive and finite, got -1.0"),
    ("scatter", {"times": [0, math.nan]}, "--times must be finite, got nan"),
])
def test_config_value_of_the_wrong_kind_exits_2(tmp_path, monkeypatch, capsys, command,
                                                 config, needle):
    from mirrorfield import cli, oracle

    def forbidden(*args, **kwargs):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(oracle, "run_default_checks", forbidden)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "x.csv"
    argv = [command, "--config", str(path), "--out", str(out)]
    if command == "scatter":
        argv += ["--scene", str(tmp_path / "no-such-scene.json")]
    assert cli.main(argv) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_config_null_is_absent(tmp_path):
    from mirrorfield import cli

    path = tmp_path / "config.json"
    path.write_text(json.dumps({"nx": None, "t": [0.0, 0.5], "sigma": None}))
    out, sidecar = tmp_path / "frames.csv", tmp_path / "frames.csv.json"
    assert cli.main(["fig2", "--config", str(path), "--out", str(out)]) == 0
    with_config = out.read_bytes(), sidecar.read_bytes()
    assert cli.main(["fig2", "--t", "0", "--t", "0.5", "--out", str(out)]) == 0
    assert (out.read_bytes(), sidecar.read_bytes()) == with_config


def test_frame_row_cap(tmp_path, monkeypatch, capsys):
    from mirrorfield import classical, cli, io

    out = tmp_path / "frames.csv"
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(scene_payload()))
    default_cap = cli.MAX_FRAME_ROWS
    monkeypatch.setattr(cli, "MAX_FRAME_ROWS", 10)
    for argv in (["fig2", "--nx", "5", "--t", "0", "--t", "1"],
                 ["scatter", "--scene", str(scene), "--nx", "5", "--times", "0", "1"]):
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 10
        out.unlink()

    def forbidden(*args, **kwargs):
        raise AssertionError("a frame was computed")

    for name in ("mirror_field_1d", "mirror_field_1d_by_side", "packet_complex_field"):
        monkeypatch.setattr(classical, name, forbidden)
    monkeypatch.setattr(io, "table_rows", forbidden)
    for cap, argv in [
            (10, ["fig2", "--nx", "11", "--t", "0"]),
            (10, ["fig2", "--nx", "4", "--t", "0", "--t", "1", "--t", "2"]),
            (10, ["scatter", "--scene", str(scene), "--nx", "6", "--times", "0", "1"]),
            (default_cap, ["fig2", "--nx", str(default_cap // 3 + 1)]),
            (default_cap, ["scatter", "--scene", str(scene), "--nx", str(default_cap + 1)])]:
        monkeypatch.setattr(cli, "MAX_FRAME_ROWS", cap)
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert f"rows, more than {cap}" in capsys.readouterr().err
        assert not out.exists()


def test_evolve_unravel_cap_allocates_nothing(tmp_path, monkeypatch, capsys):
    from mirrorfield import cli, mastereq

    def forbidden(*args, **kwargs):
        raise AssertionError("a trajectory was allocated")

    monkeypatch.setattr(mastereq, "_no_jump_path", forbidden)
    monkeypatch.setattr(mastereq, "_jumped_counts", forbidden)
    out = tmp_path / "x.csv"
    too_many = str(mastereq.MAX_TRAJECTORIES + 1)
    assert cli.main(["evolve", "--gamma", "1", "--rho22", "1", "--unravel", too_many,
                     "--out", str(out)]) == 2
    assert f"between 1 and {mastereq.MAX_TRAJECTORIES}" in capsys.readouterr().err
    assert not out.exists()


def test_broken_integrator_invariant_exits_3(tmp_path, monkeypatch, capsys):
    from mirrorfield import cli, mastereq

    monkeypatch.setattr(mastereq, "_TRACE_TOL", -1.0)
    out = tmp_path / "x.csv"
    assert cli.main(["evolve", "--gamma", "1", "--out", str(out)]) == 3
    assert "trace lost beyond tolerance at step 1" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------- CLI surface

SURFACE = {
    "fig2": (
        ["--nx", "5"],
        {"--config", "--e0", "--format", "--frames", "--k0x0", "--mirror", "--nx", "--out",
         "--sigma", "--t", "--x-max", "--x-min", "--x0"},
        {"e0": 1.0, "format": "csv", "frames": None, "k0x0": -6.0, "mirror": "perfect",
         "nx": 5, "out": "o.csv", "sigma": None, "t": [0.0, 0.89, 1.83], "x0": 1.0,
         "x_max": 4.0, "x_min": -4.0}),
    "rates-scan": (
        [],
        {"--config", "--format", "--k0x-max", "--k0x-min", "--k0x-step", "--mu", "--out",
         "--preset", "--r", "--side", "--t"},
        {"format": "csv", "k0x_max": 12.575, "k0x_min": 0.025, "k0x_step": 0.025,
         "mirror": {"preset": "perfect"}, "mu": 0.0, "out": "o.csv", "preset": "perfect",
         "r": None, "side": "a", "t": None}),
    "oracle-verify": (
        [],
        {"--config", "--grid-coarse", "--order", "--out", "--tol-delta", "--tol-energy",
         "--tol-gamma", "--tol-route", "--tolerance"},
        {"grid_coarse": False, "order": 64, "out": "o.csv", "tol_delta": 1e-08,
         "tol_energy": 0.001, "tol_gamma": 1e-08, "tol_route": 1e-10, "tolerance": None}),
    "evolve": (
        [],
        {"--config", "--delta", "--dt", "--format", "--from-mirror", "--gamma",
         "--gamma-free", "--k0x", "--mu", "--out", "--r", "--rho12-im", "--rho12-re",
         "--rho22", "--seed", "--t-final", "--t-rate", "--unravel"},
        {"channel": {"delta": 0.0, "gamma": 1.0}, "delta": None, "dt": 0.001,
         "format": "csv", "from_mirror": None, "gamma": None, "gamma_free": 1.0,
         "k0x": None, "mu": 0.0, "out": "o.csv", "r": None, "rho12_im": 0.0,
         "rho12_re": 0.0, "rho22": 1.0, "seed": 0, "t_final": 5.0, "t_rate": None,
         "unravel": None}),
    "scatter": (
        ["--scene", "scene.json"],
        {"--config", "--format", "--nx", "--out", "--scene", "--times", "--x-max",
         "--x-min"},
        {"format": "csv", "nx": 2001, "out": "o.csv", "scene": "scene.json",
         "times": [0.0], "x_max": 50.0, "x_min": -50.0}),
}


@pytest.mark.parametrize("command", SURFACE)
def test_cli_surface_is_pinned(tmp_path, monkeypatch, capsys, command):
    """The flags each command's --help lists, and the parameters a default
    run records in its sidecar (oracle-verify: in its report's meta)."""
    import re

    import mirrorfield
    from mirrorfield import cli, oracle

    argv, flags, parameters = SURFACE[command]
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    assert exit_info.value.code == 0
    listed = set(re.findall(r"--[a-z0-9][a-z0-9-]*", capsys.readouterr().out))
    assert listed == flags | {"--help"}

    monkeypatch.chdir(tmp_path)
    (tmp_path / "scene.json").write_text(json.dumps(scene_payload()))
    tolerances = {"tol_delta": 1e-08, "tol_energy": 0.001, "tol_gamma": 1e-08,
                  "tol_route": 1e-10}
    monkeypatch.setattr(oracle, "run_default_checks", lambda **kwargs: [
        {"name": "stub", "grid": {}, "max_rel_dev": 0.0, "tolerance": 1.0, "pass": True}])
    assert cli.main([command, *argv, "--out", "o.csv"]) == 0
    if command == "oracle-verify":
        meta = json.loads((tmp_path / "o.csv").read_text())["meta"]
        assert meta == {"command": command, "version": mirrorfield.__version__,
                        "parameters": parameters, "tolerances": tolerances}
    else:
        meta = json.loads((tmp_path / "o.csv.json").read_text())
        assert meta["command"] == command
        assert meta["parameters"] == parameters


@pytest.mark.parametrize("command", SURFACE)
def test_a_command_builds_only_its_own_parser(tmp_path, monkeypatch, capsys, command):
    """Every command is listed, but only the invoked one gets its flags;
    --version and an unknown command give none of them flags."""
    import argparse

    from mirrorfield import cli, oracle

    built = {}
    add_parser = argparse._SubParsersAction.add_parser

    def recording(self, name, **kwargs):
        built[name] = add_parser(self, name, **kwargs)
        return built[name]

    def with_flags():  # beyond the -h that argparse gives every parser
        return [name for name, parser in built.items() if len(parser._actions) > 1]

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording)
    monkeypatch.setattr(oracle, "run_default_checks", lambda **kwargs: [
        {"name": "stub", "grid": {}, "max_rel_dev": 0.0, "tolerance": 1.0, "pass": True}])
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scene.json").write_text(json.dumps(scene_payload()))
    assert cli.main([command, *SURFACE[command][0], "--out", "o.csv"]) == 0
    assert list(built) == list(SURFACE) and with_flags() == [command]
    for argv in (["--version"], ["bogus"]):
        built.clear()
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert list(built) == list(SURFACE) and with_flags() == []


# ------------------------------------------------------------- process entry

def test_main_leaves_the_collector_alone(tmp_path, capsys):
    """main runs many times in one process (tests, the benchmark's tracer),
    so only the process entry may freeze the heap."""
    import gc

    from mirrorfield import cli

    before = (gc.get_freeze_count(), gc.isenabled())
    assert cli.main(["rates-scan", "--k0x-max", "1", "--out", str(tmp_path / "o.csv")]) == 0
    assert cli.main(["rates-scan", "--mu", "2", "--out", str(tmp_path / "o.csv")]) == 2
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["bogus"])
    assert exit_info.value.code == 2
    assert (gc.get_freeze_count(), gc.isenabled()) == before


@pytest.mark.parametrize("ending", [3, SystemExit(2), RuntimeError("escaped")])
def test_entry_freezes_however_main_ends(monkeypatch, ending):
    import gc

    from mirrorfield import cli

    def main():
        if isinstance(ending, BaseException):
            raise ending
        return ending

    monkeypatch.setattr(cli, "main", main)
    try:
        with pytest.raises(BaseException) as raised:
            cli.entry()
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    if isinstance(ending, BaseException):
        assert raised.value is ending
    else:
        assert isinstance(raised.value, SystemExit) and raised.value.code == ending


@pytest.mark.parametrize("argv, code", [(["--version"], 0), (["rates-scan", "--help"], 0),
                                        ([], 2), (["bogus"], 2),
                                        (["rates-scan", "--mu", "2"], 2)])
def test_every_process_entry_prints_and_exits_alike(tmp_path, argv, code):
    """python -m mirrorfield, python -m mirrorfield.cli and the installed
    script's call of cli.entry give the same output and exit code."""
    script = "import sys; from mirrorfield.cli import entry; sys.exit(entry())"
    runs = {(run.returncode, run.stdout, run.stderr) for run in (
        subprocess.run([sys.executable, *launch, *argv], capture_output=True, text=True,
                       cwd=tmp_path)
        for launch in (["-m", "mirrorfield"], ["-m", "mirrorfield.cli"], ["-c", script]))}
    assert len(runs) == 1 and runs.pop()[0] == code


# ------------------------------------------------------------- in-process fuzz

# The edge values every numeric input is drawn from; 10**30 overflows an
# int64, 10**400 a float, and the difference of +-1.7e308 a float.
EDGE_NUMBERS = [0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, -1.7e308, math.nan,
                math.inf, -math.inf, -1, 10**30, 10**400]


def _fuzz_inputs(draw, st, command):
    """Flags and config values for ``command``, drawn per option kind."""
    from mirrorfield import cli

    numbers = st.sampled_from(EDGE_NUMBERS)
    argv, config = [], {}
    for option in cli._COMMANDS[command].options:
        if option.key in ("out", "scene"):
            continue
        if option.kind is cli.SWITCH:
            flag, file_value = [option.flag], st.booleans()
        elif option.choices is not None:
            file_value = st.sampled_from(option.choices + ("bogus",))
            flag = [f"{option.flag}={draw(file_value)}"]
        elif option.kind in (cli.REPEATED, cli.FLOATS):
            values = draw(st.lists(numbers, min_size=1, max_size=3))
            flag = ([f"{option.flag}={v}" for v in values] if option.kind is cli.REPEATED
                    else [option.flag, *map(str, values)])
            file_value = st.lists(numbers, max_size=3)
        else:
            flag, file_value = [f"{option.flag}={draw(numbers)}"], numbers
        source = draw(st.sampled_from(["default"] * 6 + ["flag", "file", "junk"]))
        if source == "flag":
            argv += flag
        elif source == "file":
            config[option.key] = draw(file_value)
        elif source == "junk":
            config[option.key] = draw(st.sampled_from([None, True, "1", [1.0], {}]))
    return argv, config


def _assert_finite_output(path):
    assert path.exists() and path.stat().st_size > 0

    def reject(constant):
        raise AssertionError(f"{path.name} holds {constant}")

    text = path.read_text()
    if not text.startswith("{"):  # a CSV table with a sidecar
        lines = text.splitlines()
        assert len(lines) > 1
        assert all(math.isfinite(float(cell)) for line in lines[1:] for cell in line.split(","))
        text = Path(str(path) + ".json").read_text()
    json.loads(text, parse_constant=reject)


def test_cli_fuzz_in_process(tmp_path, monkeypatch):
    """Every command, fed edge-value flags and config files, exits 0, 2, 3 or
    4 without an escaping exception, and an exit-0 run writes finite numbers."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    from mirrorfield import cli, mastereq, oracle

    monkeypatch.setattr(cli, "MAX_FRAME_ROWS", 10_000)
    monkeypatch.setattr(cli, "MAX_SCAN_POINTS", 1_000)
    monkeypatch.setattr(mastereq, "MAX_STEPS", 10_000)
    monkeypatch.setattr(mastereq, "MAX_TRAJECTORIES", 100)
    monkeypatch.setattr(oracle, "run_default_checks", lambda quad, **tols: [
        {"name": name, "grid": {"order": quad.order}, "max_rel_dev": 0.0,
         "tolerance": tol, "pass": True} for name, tol in sorted(tols.items())])
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"packets_a": [{"e0": 1.0, "x0": 3.0, "sigma": 1.0,
                                                "k0_carrier": -4.0}]}))
    config_path = tmp_path / "config.json"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def run(data):
        command = data.draw(st.sampled_from(sorted(cli._COMMANDS)))
        argv, config = _fuzz_inputs(data.draw, st, command)
        out = tmp_path / "out"
        for stale in tmp_path.glob("out*"):
            stale.unlink()
        argv = [command, *argv, "--out", str(out)]
        if command == "scatter":
            argv += ["--scene", str(scene)]
        if data.draw(st.booleans()):
            config_path.write_text(json.dumps(config))
            argv += ["--config", str(config_path)]
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 2, 3, 4), argv
        if code == 0:
            _assert_finite_output(out)

    run()


# Valid records the scene fuzz starts from, one field at a time replaced.
FUZZ_MIRRORS = [
    {"preset": "perfect"},
    {"preset": "symmetric", "r": 0.6, "t": 0.6, "phi_1": math.pi, "phi_3": math.pi},
    {"preset": "lossless", "r": 0.5, "phi_2": 1.0},
    {"t_a": 0.5, "t_b": 0.4, "r_a": 0.5, "r_b": 0.6, "phi_1": 1.0, "phi_2": 0.0,
     "phi_3": 2.0, "phi_4": 0.5},
]
FUZZ_PACKETS = {
    "packets_a": {"e0": 1.0, "x0": 3.0, "sigma": 1.0, "k0_carrier": -4.0, "xi_init": 0.5},
    "packets_b": {"e0": 0.5, "x0": -3.0, "sigma": 1.0, "k0_carrier": 4.0},
}


def test_cli_fuzz_scene_files(tmp_path, monkeypatch):
    """scatter, fed scene files whose record fields are edge numbers or values
    of the wrong JSON type, exits 0 or 2 without an escaping exception, and an
    exit-0 run writes finite numbers."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    from mirrorfield import cli

    values = st.sampled_from(EDGE_NUMBERS + ["1", True, [1.0], None])
    scene = tmp_path / "scene.json"

    def record(draw, valid):
        """``valid`` with each field kept, dropped or replaced by a drawn value."""
        fields = {}
        for key, value in valid.items():
            choice = draw(st.sampled_from(["keep"] * 3 + ["drop", "draw"]))
            if choice != "drop":
                fields[key] = value if choice == "keep" else draw(values)
        return fields

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def run(data):
        payload = {"mirror": record(data.draw, data.draw(st.sampled_from(FUZZ_MIRRORS))),
                   "medium": record(data.draw, {"epsilon": 1.0, "mu_p": 1.0})}
        for key, valid in FUZZ_PACKETS.items():
            payload[key] = [record(data.draw, valid)
                            for _ in range(data.draw(st.integers(0, 2)))]
        scene.write_text(json.dumps(payload))
        out = tmp_path / "out"
        for stale in tmp_path.glob("out*"):
            stale.unlink()
        code = cli.main(["scatter", "--scene", str(scene), "--nx", "21", "--times", "0", "1",
                         "--out", str(out)])
        assert code in (0, 2), payload
        if code == 0:
            _assert_finite_output(out)
        else:
            assert not out.exists()

    run()
