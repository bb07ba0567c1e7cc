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


def test_evolve_unravel_thread_env_invariance(tmp_path):
    import os
    args = ["evolve", "--gamma", "1", "--rho22", "1", "--t-final", "1.5",
            "--dt", "0.01", "--unravel", "300", "--seed", "9"]
    out1 = tmp_path / "w1.csv"
    out2 = tmp_path / "w4.csv"
    env1 = dict(os.environ, MIRRORFIELD_THREADS="1")
    env4 = dict(os.environ, MIRRORFIELD_THREADS="4")
    assert run_cli(*args, "--out", str(out1), env=env1).returncode == 0
    assert run_cli(*args, "--out", str(out2), env=env4).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


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
]


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

    monkeypatch.setattr(mastereq, "_rk4_increment", forbidden)
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


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_thread_env_must_be_positive_integer(tmp_path, value):
    import os
    out = tmp_path / "x.csv"
    for argv in (["evolve", "--gamma", "1", "--t-final", "0.1", "--dt", "0.01",
                  "--unravel", "5"],
                 ["evolve", "--gamma", "1", "--t-final", "0.1", "--dt", "0.01"],
                 ["rates-scan"]):
        result = run_cli(*argv, "--out", str(out),
                         env=dict(os.environ, MIRRORFIELD_THREADS=value))
        assert result.returncode == 2
        assert "MIRRORFIELD_THREADS must be a positive integer" in result.stderr
        assert not out.exists()


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
    monkeypatch.setattr(io, "frame_rows", forbidden)
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
    monkeypatch.setattr(mastereq, "_jump_steps", forbidden)
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
