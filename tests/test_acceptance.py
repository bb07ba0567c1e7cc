"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here and must not be loosened.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mirrorfield import classical, mastereq, modespace, oracle, rates
from mirrorfield.core import GaussianPacket, Medium, MirrorSpec
from mirrorfield.errors import ZeroDistance

MED = Medium()
PERFECT = MirrorSpec.perfect()
GOLDEN_DIR = Path(__file__).parent / "golden"


def report(criterion, text):
    print(f"[criterion {criterion}] PASS {text}")


def test_criterion_1_perfect_mirror_contact_endpoints():
    start = time.perf_counter()
    g_parallel = rates.gamma_mirr(PERFECT, 0.0, 1e-9)
    g_perpendicular = rates.gamma_mirr(PERFECT, 1.0, 1e-9)
    assert 1e-9 < rates.SMALL_Z  # the series branch is the one exercised
    assert abs(g_parallel - 0.0) < 1e-9
    assert abs(g_perpendicular - 2.0) < 1e-9
    assert abs(rates.gamma_mirr(PERFECT, 0.0, 0.0)) < 1e-9
    assert abs(rates.gamma_mirr(PERFECT, 1.0, 0.0) - 2.0) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"contact limits 0 and 2 within 1e-9 ({elapsed * 1e3:.0f} ms)")


def test_criterion_2_far_field_normalisation_random_mirrors():
    start = time.perf_counter()
    rng = np.random.default_rng(2718281828)
    z = np.linspace(1000.0, 1000.0 + 2.0 * math.pi, 2048)
    tested = 0
    worst = 0.0
    while tested < 20:
        t_a, r_a, t_b, r_b = rng.random(4)
        if t_a**2 + r_a**2 > 1.0 or t_b**2 + r_b**2 > 1.0:
            continue
        if 1.0 + r_b**2 - t_b**2 < 0.05 or 1.0 + r_a**2 - t_a**2 < 0.05:
            continue  # keep eta well away from the degenerate point
        mirror = MirrorSpec(t_a=t_a, t_b=t_b, r_a=r_a, r_b=r_b)
        mu = float(rng.random())
        for side in ("a", "b"):
            vals = rates.gamma_mirr(mirror, mu, z, side=side)
            mean = float(np.trapezoid(vals, z)) / (2.0 * math.pi)
            worst = max(worst, abs(mean - 1.0))
            assert abs(mean - 1.0) < 3e-3
        tested += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, f"20 mirrors, both sides: |mean - 1| <= {worst:.2e} < 3e-3 "
              f"({elapsed:.2f} s)")


def test_criterion_3_absorbing_mirror_flatness():
    z = np.logspace(-2.0, 3.0, 2001)
    mirror = MirrorSpec.absorbing()
    gamma_dev = np.abs(rates.gamma_mirr(mirror, 0.5, z) - 1.0).max()
    delta_dev = np.abs(rates.delta_mirr(mirror, 0.5, z)).max()
    assert gamma_dev <= 1e-14
    assert delta_dev <= 1e-14
    # r_a = 0 alone is already enough, independent of the other rates.
    partial = MirrorSpec(t_a=0.7, t_b=0.4, r_a=0.0, r_b=0.6)
    assert np.abs(rates.gamma_mirr(partial, 0.2, z) - 1.0).max() <= 1e-14
    assert np.abs(rates.delta_mirr(partial, 0.2, z)).max() <= 1e-14
    report(3, f"gamma dev {gamma_dev:.1e}, delta dev {delta_dev:.1e} <= 1e-14")


def test_criterion_4_oracle_agreement():
    start = time.perf_counter()
    gamma_report, delta_report = oracle.run_default_checks()[:2]
    elapsed = time.perf_counter() - start
    assert gamma_report["name"] == "gamma_angular_quadrature"
    assert delta_report["name"] == "delta_contour_form"
    for checked in (gamma_report, delta_report):
        assert checked["grid"]["z_min"] == pytest.approx(0.1)
        assert checked["grid"]["z_max"] == pytest.approx(50.0)
        assert checked["tolerance"] == 1e-8
        assert checked["max_rel_dev"] < 1e-8, checked
    assert elapsed < 30.0
    report(4, f"gamma dev {gamma_report['max_rel_dev']:.2e}, delta dev "
              f"{delta_report['max_rel_dev']:.2e} < 1e-8 ({elapsed:.1f} s)")


def test_criterion_5_route_consistency():
    route_report = oracle.run_default_checks()[2]
    assert route_report["name"] == "decay_route_consistency"
    assert route_report["tolerance"] == 1e-10
    assert route_report["max_rel_dev"] < 1e-10, route_report
    report(5, f"no-emission vs emission route dev {route_report['max_rel_dev']:.2e} "
              "< 1e-10")


def test_criterion_6_energy_split():
    packet = GaussianPacket.moving(e0=1.0, x0=30.0, sigma=3.0, k0_carrier=-10.0)
    grid = modespace.ModeGrid.for_packet(packet)  # the default grid
    amps = modespace.packet_to_amplitudes(packet, grid)
    ratio = modespace.expect_H_field_one_sided(amps, grid) \
        / modespace.expect_H_sys(amps, grid)
    assert abs(ratio - 0.5) < 1e-3
    bump = np.exp(-0.5 * ((grid.k_pos - 10.0) / 0.4) ** 2).astype(complex)
    anti = np.concatenate([-bump[::-1], bump])
    amps_anti = modespace.ModeAmplitudes(alpha_a=anti, alpha_b=np.zeros_like(anti))
    ratio_anti = modespace.expect_H_field_one_sided(amps_anti, grid) \
        / modespace.expect_H_sys(amps_anti, grid)
    assert abs(ratio_anti - 1.0) < 1e-12
    report(6, f"one-sided split {ratio:.6f} ~ 0.5; antisymmetric split "
              f"{ratio_anti:.15f} ~ 1")


def test_criterion_7_classical_boundary_and_energy():
    # Frame-series packet against the perfect mirror: node at the surface.
    x0 = 1.0
    with pytest.warns(UserWarning):
        packet = GaussianPacket(e0=1.0, x0=x0, sigma=x0 / math.sqrt(2.0),
                                k0_carrier=-6.0, side="a")
    scene = classical.ScatterScene(mirror=PERFECT, packets_a=(packet,), medium=MED)
    worst_node = 0.0
    for t_units in (0.0, 0.89, 1.83):
        val = abs(float(classical.mirror_field_1d(scene, 0.0, t_units * x0 / MED.c)))
        worst_node = max(worst_node, val)
    assert worst_node < 1e-12 * packet.e0

    # Scattered energy fraction r**2 + t**2 for five rate pairs, lossy included.
    probe = GaussianPacket.moving(e0=1.0, x0=40.0, sigma=4.0, k0_carrier=-8.0)
    worst_energy = 0.0
    for r, t in ((1.0, 0.0), (2**-0.5, 2**-0.5), (0.5, 0.5), (0.3, 0.8), (0.0, 1.0)):
        mirror = MirrorSpec.symmetric(r=r, t=t, phi_1=math.pi, phi_3=math.pi)
        sc = classical.ScatterScene(mirror=mirror, packets_a=(probe,), medium=MED)
        e_in = classical.energy_between(
            lambda xa: classical.free_field_1d(probe, xa, 0.0, MED),
            probe.x0 - 36.0, probe.x0 + 36.0, MED)
        e_out = classical.energy_between(
            lambda xa: classical.mirror_fields_1d(sc, xa, 90.0), -90.0, 90.0, MED)
        worst_energy = max(worst_energy, abs(e_out / e_in - (r * r + t * t)))
    assert worst_energy < 1e-6
    report(7, f"boundary residual {worst_node:.1e} < 1e-12; energy fraction "
              f"dev {worst_energy:.1e} < 1e-6")


def test_criterion_8_master_equation_and_unraveling():
    start = time.perf_counter()
    gamma = 1.0
    channel = mastereq.AtomChannel(gamma=gamma, delta=0.0)
    trajectory = mastereq.evolve(mastereq.DensityMatrix.excited(), channel,
                                 t_final=5.0, dt=1e-3 / gamma)
    decay_err = np.abs(trajectory.rho22 - np.exp(-gamma * trajectory.t)).max()
    assert decay_err < 1e-8
    traces = np.trace(trajectory.rho, axis1=1, axis2=2)
    assert np.abs(traces - 1.0).max() < 1e-10
    min_eig = min(mastereq.min_eigenvalue(m) for m in trajectory.rho)
    assert min_eig > -1e-10

    unravel = mastereq.jump_unravel(mastereq.DensityMatrix.excited(), channel,
                                    t_final=4.0, dt=4e-3, n_traj=10_000, seed=1)
    idx = np.linspace(1, len(unravel.t) - 1, 50).astype(int)
    exact = np.exp(-gamma * unravel.t[idx])
    dev = np.abs(unravel.rho[idx, 1, 1].real - exact)
    bands = 3.0 * unravel.stderr_rho22[idx] + 1e-12
    assert np.all(dev <= bands)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(8, f"decay err {decay_err:.1e} < 1e-8; trace/positivity hold; "
              f"10^4 trajectories inside 3 sigma at 50 times ({elapsed:.1f} s)")


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


def _interior_extrema(values):
    out = []
    for j in range(1, len(values) - 1):
        if (values[j] - values[j - 1]) * (values[j + 1] - values[j]) < 0.0:
            out.append(j)
    return out


def _refine_extremum(fn, z_lo, z_hi):
    zz = np.linspace(z_lo, z_hi, 20001)
    vv = fn(zz)
    j_max, j_min = int(np.argmax(vv)), int(np.argmin(vv))
    j = j_max if 0 < j_max < zz.size - 1 else j_min
    return float(zz[j])


def test_criterion_9_figure_goldens_and_extrema(tmp_path):
    # Byte-identical regeneration of every figure parameter set.
    for flags, name in GOLDEN_JOBS:
        cmd = [sys.executable, "-m", "mirrorfield", "rates-scan", *flags,
               "--out", name]
        proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name
        sidecar = name + ".json"
        assert (tmp_path / sidecar).read_bytes() == \
            (GOLDEN_DIR / sidecar).read_bytes(), sidecar

    # Extrema locations of the perfect mu=0 curves against the closed form.
    rows = (GOLDEN_DIR / "rates_fig3_mu0.csv").read_text().splitlines()[1:]
    data = np.array([[float(v) for v in row.split(",")] for row in rows])
    z = 2.0 * data[:, 0]
    z_step = z[1] - z[0]
    gamma_curve, delta_curve = data[:, 1], data[:, 2]

    checked = 0
    for j in _interior_extrema(delta_curve):
        if z[j] <= 5.0:
            continue
        refined = _refine_extremum(
            lambda zz: np.asarray(rates.delta_mirr(PERFECT, 0.0, zz)),
            z[j] - 2.0 * z_step, z[j] + 2.0 * z_step)
        assert abs(z[j] - refined) <= z_step
        n = round(refined / math.pi)
        assert n >= 1
        assert abs(refined - n * math.pi) <= 2.5 / refined  # near n pi
        checked += 1
    assert checked >= 5

    for j in _interior_extrema(gamma_curve):
        if z[j] <= 5.0:
            continue
        refined = _refine_extremum(
            lambda zz: np.asarray(rates.gamma_mirr(PERFECT, 0.0, zz)),
            z[j] - 2.0 * z_step, z[j] + 2.0 * z_step)
        assert abs(z[j] - refined) <= z_step
    report(9, f"8 goldens byte-identical; {checked} shift extrema near n*pi "
              "to grid resolution")
