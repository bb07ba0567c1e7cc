import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mirrorfield import modespace as ms
from mirrorfield import oracle, rates
from mirrorfield.core import GaussianPacket, Medium, MirrorSpec
from mirrorfield.errors import QuadratureNotConverged, ZeroDistance

MED = Medium()
PERFECT = MirrorSpec.perfect()


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        oracle.QuadratureSpec(order=8)
    with pytest.raises(ValueError):
        oracle.QuadratureSpec(tolerance=0.0)


# --------------------------------------------------- Gauss-Legendre rule

def test_gl_nodes_match_leggauss():
    for order in range(16, 101):
        s, w = oracle._gl_nodes(order)
        s_ref, w_ref = np.polynomial.legendre.leggauss(order)
        assert np.abs(s - s_ref).max() <= 4e-16, order
        assert np.abs(w / w_ref - 1.0).max() <= 1e-11, order


@pytest.mark.parametrize("order", [16, 17, 64, 128, 129, 1024, 1025, 2048])
def test_gl_nodes_are_ascending_and_mirror_symmetric(order):
    s, w = oracle._gl_nodes(order)
    assert s.shape == w.shape == (order,)
    assert np.all(np.diff(s) > 0.0)
    assert np.array_equal(s, -s[::-1]) and np.array_equal(w, w[::-1])
    if order % 2:
        assert s[order // 2] == 0.0


@pytest.mark.parametrize("order", [16, 17, 64, 128, 1024, 2048, 4096])
def test_gl_rule_integrates_even_monomials_exactly(order):
    s, w = oracle._gl_nodes(order)
    for degree in range(0, 2 * order - 1, 2):
        assert abs(w @ s**degree - 2.0 / (degree + 1)) <= 1e-15, degree


def test_gl_rule_integrates_a_fast_cosine_at_order_2048():
    # The companion-matrix rule of leggauss misses this by 3e-13.
    s, w = oracle._gl_nodes(2048)
    assert abs(w @ np.cos(50.0 * s) - 2.0 * math.sin(50.0) / 50.0) <= 1e-14


def test_gl_nodes_raise_when_newton_has_not_converged(monkeypatch):
    monkeypatch.setattr(oracle, "_NEWTON_STEPS", 2)
    with pytest.raises(QuadratureNotConverged, match="order 64"):
        oracle._gl_nodes.__wrapped__(64)


# ------------------------------------------------------- angular quadrature

def test_angular_quadrature_zero_distance_brackets():
    # At z = 0 the integrand is a polynomial: int (1 - s**2) = 4/3 and
    # int (1 + s**2) = 8/3, so the result is exact at any order.
    val_mu0 = oracle.angular_bracket_quadrature(0.0, 1.0, 2.0, 0.0, 0.0)
    # (3/4) * (1/2) * (1 + 1 - 2) * (8/3) / 2 ... collapses to gamma(0) = 0.
    assert val_mu0 == pytest.approx(0.0, abs=1e-14)
    val_mu1 = oracle.angular_bracket_quadrature(0.0, 1.0, 2.0, 0.0, 1.0)
    assert val_mu1 == pytest.approx(2.0, rel=1e-14)


def test_angular_quadrature_reduces_without_reflection():
    # r_a = 0 removes the interference cosine: the result is the constant
    # part at every distance.
    for z in (0.0, 1.0, 17.3):
        val = oracle.angular_bracket_quadrature(z, 0.0, 1.0, 0.0, 0.3)
        assert val == pytest.approx(1.0, rel=1e-13)


def test_angular_quadrature_frozen_value_at_pi():
    val = oracle.angular_bracket_quadrature(math.pi, 1.0, 2.0, 0.0, 0.0)
    assert val == pytest.approx(1.1519817754635067, rel=1e-8)
    closed = rates.gamma_mirr(PERFECT, 0.0, math.pi)
    assert val == pytest.approx(closed, rel=1e-8)


def test_angular_quadrature_not_converged_when_coarse():
    quad = oracle.QuadratureSpec(order=16, tolerance=1e-12)
    with pytest.raises(QuadratureNotConverged):
        oracle.angular_bracket_quadrature(40.0, 1.0, 2.0, 0.0, 0.0, quad)


def test_order_escalation_stability():
    # 64 -> 128 changes nothing beyond the stated tolerance.
    for z in (0.5, 5.0, 50.0):
        v64 = oracle.angular_bracket_quadrature(
            z, 1.0, 2.0, 0.0, 0.0, oracle.QuadratureSpec(order=64))
        v128 = oracle.angular_bracket_quadrature(
            z, 1.0, 2.0, 0.0, 0.0, oracle.QuadratureSpec(order=128))
        assert v64 == pytest.approx(v128, abs=1e-10)


# ------------------------------------------------------- level shift

def test_contour_matches_closed_form_everywhere():
    z_grid = np.linspace(0.1, 50.0, 500)
    for mu in (0.0, 0.5, 1.0):
        closed = rates.delta_mirr(PERFECT, mu, z_grid)
        contour = np.array([
            oracle.levelshift_contour_eval(z, mu, 1.0, 2.0) for z in z_grid])
        scale = np.maximum(np.abs(closed), 1e-12)
        assert (np.abs(contour - closed) / scale).max() < 1e-12


def test_contour_frozen_value_at_pi():
    val = oracle.levelshift_contour_eval(math.pi, 0.0, 1.0, 2.0)
    assert val == pytest.approx(-0.21454376381294338, rel=1e-12)


def test_contour_mu_one_keeps_only_near_field_terms():
    # With mu = 1 the 1/z travelling term drops; the remainder decays as
    # 1/z**2.
    z = 400.0
    val = oracle.levelshift_contour_eval(z, 1.0, 1.0, 2.0)
    bound = (3.0 / 4.0) * 2.0 * (1.0 / z**2 + 1.0 / z**3)
    assert abs(val) <= bound
    assert abs(val) > (3.0 / 4.0) / z**2 * 0.1  # and is genuinely nonzero


def test_contour_vanishes_at_infinity():
    assert abs(oracle.levelshift_contour_eval(1e8, 0.3, 1.0, 2.0)) < 1e-7


def test_contour_rejects_zero_distance():
    with pytest.raises(ZeroDistance):
        oracle.levelshift_contour_eval(0.0, 0.0, 1.0, 2.0)


# ------------------------------------------------------- emission route

def test_reset_route_matches_conditional_route():
    z_grid = np.arange(0.5, 30.5, 1.0)
    mirrors = [PERFECT, MirrorSpec.symmetric(r=2**-0.5, t=2**-0.5),
               MirrorSpec.symmetric(r=0.3, t=0.5)]
    for mirror in mirrors:
        eta = rates.eta_factors(mirror)
        tb2 = mirror.t_b**2 / eta.eta_b_sq
        for mu in (0.0, 0.5, 1.0):
            for z in z_grid:
                cond = oracle.angular_bracket_quadrature(
                    z, mirror.r_a, eta.eta_a_sq, tb2, mu)
                reset = oracle.reset_rate_quadrature(z, mirror, mu)
                assert reset == pytest.approx(cond, abs=1e-10)


def test_reset_route_absorbing_mirror_is_flat():
    mirror = MirrorSpec.absorbing()
    for z in (0.1, 1.0, 30.0):
        assert oracle.reset_rate_quadrature(z, mirror, 0.4) == pytest.approx(
            1.0, rel=1e-12)


def test_reset_route_perfect_contact_limit():
    assert oracle.reset_rate_quadrature(0.0, PERFECT, 0.0) == pytest.approx(
        0.0, abs=1e-13)


def test_reset_route_side_b():
    mirror = MirrorSpec(t_a=0.2, t_b=0.6, r_a=0.5, r_b=0.3)
    z = 2.7
    assert oracle.reset_rate_quadrature(z, mirror, 0.25, side="b") == \
        pytest.approx(rates.gamma_mirr(mirror, 0.25, z, side="b"), rel=1e-10)


# Rates of one absorbing side: reflection and transmission on a quarter
# circle of radius below 1, so t**2 + r**2 < 1.
ABSORBING_SIDE = st.tuples(st.floats(0.05, 0.95), st.floats(0.0, math.pi / 2)).map(
    lambda polar: (polar[0] * math.cos(polar[1]), polar[0] * math.sin(polar[1])))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(side_a=ABSORBING_SIDE, side_b=ABSORBING_SIDE, mu=st.floats(0.0, 1.0),
       side=st.sampled_from(["a", "b"]))
def test_both_routes_match_closed_form_on_two_sided_mirrors(side_a, side_b, mu, side):
    (r_a, t_a), (r_b, t_b) = side_a, side_b
    assume(t_a != t_b and r_a != r_b)
    mirror = MirrorSpec(t_a=t_a, t_b=t_b, r_a=r_a, r_b=r_b)
    eta = rates.eta_factors(mirror)
    if side == "a":
        args = (r_a, eta.eta_a_sq, t_b**2 / eta.eta_b_sq)
    else:
        args = (r_b, eta.eta_b_sq, t_a**2 / eta.eta_a_sq)
    z_grid = np.linspace(0.0, 50.0, 101)
    closed = rates.gamma_mirr(mirror, mu, z_grid, side=side)
    angular = oracle.angular_bracket_quadrature(z_grid, *args, mu)
    emission = oracle.reset_rate_quadrature(z_grid, mirror, mu, side=side)
    assert np.abs(angular - closed).max() < 1e-8
    assert np.abs(emission - closed).max() < 1e-8


# ------------------------------------------------------- field energy check

def test_hfield_check_gaussian_packet():
    packet = GaussianPacket.moving(e0=1.0, x0=30.0, sigma=3.0, k0_carrier=-10.0)
    grid = ms.ModeGrid.for_packet(packet, n_modes=4096)
    amps = ms.packet_to_amplitudes(packet, grid, MED)
    x_grid = np.linspace(-56.0, 56.0, 8193)
    result = oracle.hfield_mode_sum_check(amps, grid, x_grid, medium=MED)
    assert result["rel_gap"] < 1e-3


def test_hfield_check_antisymmetric_amplitudes():
    grid = ms.ModeGrid.symmetric(k_max=14.0, n_half=2048)
    g = np.exp(-0.5 * ((grid.k_pos - 9.0) / 0.4) ** 2).astype(complex)
    alpha = np.concatenate([-g[::-1], g])
    amps = ms.ModeAmplitudes(alpha_a=alpha, alpha_b=np.zeros_like(alpha))
    x_grid = np.linspace(-40.0, 40.0, 8193)
    result = oracle.hfield_mode_sum_check(amps, grid, x_grid, medium=MED)
    assert result["rel_gap"] < 1e-6


def test_hfield_check_vacuum():
    grid = ms.ModeGrid.symmetric(k_max=10.0, n_half=128)
    amps = ms.ModeAmplitudes.vacuum(grid)
    x_grid = np.linspace(-10.0, 10.0, 257)
    result = oracle.hfield_mode_sum_check(amps, grid, x_grid, medium=MED)
    assert result["mode_sum"] == 0.0
    assert result["spatial"] == 0.0
    assert result["rel_gap"] == 0.0


# ------------------------------------------------------- reports

def test_gamma_report_passes_default_tolerance():
    gamma = oracle.run_default_checks()[0]
    assert gamma["name"] == "gamma_angular_quadrature"
    assert gamma["pass"] is True
    assert gamma["max_rel_dev"] < 1e-8


def test_route_report_passes_default_tolerance():
    route = oracle.run_default_checks()[2]
    assert route["name"] == "decay_route_consistency"
    assert route["pass"] is True
    assert route["max_rel_dev"] < 1e-10


def test_report_dict_shape():
    reports = oracle.run_default_checks()
    assert [r["name"] for r in reports] == [
        "gamma_angular_quadrature", "delta_contour_form", "decay_route_consistency",
        "field_energy_mode_sum"]
    for report in reports:
        assert set(report) == {"name", "grid", "max_rel_dev", "tolerance", "pass"}
        assert report["pass"] is True
        assert report["max_rel_dev"] < report["tolerance"]


# ------------------------------------------------------- array z

Z_SAMPLES = np.array([0.0, 0.1, math.pi, 12.3, 50.0])
ROUTE_MIRRORS = [PERFECT, MirrorSpec.symmetric(r=2**-0.5, t=2**-0.5),
                 MirrorSpec(t_a=0.2, t_b=0.6, r_a=0.5, r_b=0.3)]


@pytest.mark.parametrize("mirror", ROUTE_MIRRORS)
@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0])
def test_angular_quadrature_array_z_equals_scalar_calls(mirror, mu):
    eta = rates.eta_factors(mirror)
    args = (mirror.r_a, eta.eta_a_sq, mirror.t_b**2 / eta.eta_b_sq, mu)
    vals = oracle.angular_bracket_quadrature(Z_SAMPLES, *args)
    assert vals.shape == Z_SAMPLES.shape
    for z, val in zip(Z_SAMPLES, vals):
        scalar = oracle.angular_bracket_quadrature(float(z), *args)
        assert isinstance(scalar, float)
        assert val == pytest.approx(scalar, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("mirror", ROUTE_MIRRORS)
@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("side", ["a", "b"])
def test_reset_quadrature_array_z_equals_scalar_calls(mirror, mu, side):
    vals = oracle.reset_rate_quadrature(Z_SAMPLES, mirror, mu, side=side)
    assert vals.shape == Z_SAMPLES.shape
    for z, val in zip(Z_SAMPLES, vals):
        scalar = oracle.reset_rate_quadrature(float(z), mirror, mu, side=side)
        assert isinstance(scalar, float)
        assert val == pytest.approx(scalar, rel=1e-13, abs=1e-13)


def _reset_on_full_mesh(z, mirror, mu, order=128, n_phi=32):
    """Emission route summed term by term on the (cos theta, phi) mesh."""
    s, w = np.polynomial.legendre.leggauss(order)
    phi = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    eta = rates.eta_factors(mirror)
    phase = np.exp(-1j * z * s)[:, None]
    d = np.array([math.sqrt(mu), math.sqrt(1.0 - mu)])
    ux = d[0] * (1.0 + mirror.r_a * phase)
    uz = d[1] * (1.0 - mirror.r_a * phase)
    kx = s[:, None]
    kz = np.sqrt(1.0 - s**2)[:, None] * np.sin(phi)[None, :]
    f_ai = np.abs(ux) ** 2 + np.abs(uz) ** 2 - np.abs(ux * kx + uz * kz) ** 2
    f_a = 1.0 - (d[0] * kx + d[1] * kz) ** 2
    over_phi = (f_ai / eta.eta_a_sq + mirror.t_b**2 / eta.eta_b_sq * f_a).sum(axis=1)
    return 3.0 / (8.0 * math.pi) * np.dot(w, over_phi) * (2.0 * math.pi / n_phi)


@pytest.mark.parametrize("mirror", ROUTE_MIRRORS)
@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0])
def test_reset_quadrature_matches_full_mesh_sum(mirror, mu):
    vals = oracle.reset_rate_quadrature(Z_SAMPLES, mirror, mu)
    for z, val in zip(Z_SAMPLES, vals):
        assert val == pytest.approx(_reset_on_full_mesh(z, mirror, mu),
                                    rel=1e-13, abs=1e-13)


def _route_by_whole_arrays(route, z, case, mu, order, n_phi=32):
    """One route's value per z at one order, for one (r, eta**2,
    t_other**2 / eta_other**2) case and mu, written as whole-array
    expressions that integrate each mu-independent plane once and weigh the
    integrals by mu: the reference the buffered routes must equal bit for
    bit."""
    r, eta_sq, other_ratio = case
    column = np.asarray(z, dtype=float).reshape(-1, 1)
    s, w = oracle._gl_nodes(order)
    s_minus, s_plus = 1.0 - s**2, 1.0 + s**2
    if route == "angular":
        cos_term = 2.0 * r * np.cos(column * s)
        perp = ((1.0 + r**2 + cos_term) * s_minus) @ w
        par = (0.5 * (1.0 + r**2 - cos_term) * s_plus) @ w
        trans = other_ratio * (mu * (s_minus @ w) + (1.0 - mu) * (0.5 * (s_plus @ w)))
        return 0.75 * ((mu * perp + (1.0 - mu) * par) / eta_sq + trans)
    phi = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    kx = np.broadcast_to(s[:, None], (s.size, n_phi))
    kz = np.sqrt(np.clip(s_minus, 0.0, None))[:, None] * np.sin(phi)[None, :]
    w_perp = w * (n_phi - (kx * kx).sum(axis=1))
    w_par = w * (n_phi - (kz * kz).sum(axis=1))
    w_cross = w * (2.0 * (kx * kz).sum(axis=1))
    phase = np.exp(-1j * column * s)
    plus, minus = 1.0 + r * phase, 1.0 - r * phase
    cross = (plus * minus.conj()).real
    d_cross = math.sqrt(mu * (1.0 - mu))
    f_atom_image = (mu * (np.abs(plus) ** 2 @ w_perp) + (1.0 - mu) * (np.abs(minus) ** 2 @ w_par)
                    - d_cross * (cross @ w_cross))
    f_atom_only = mu * w_perp.sum() + (1.0 - mu) * w_par.sum() - d_cross * w_cross.sum()
    over_phi = f_atom_image / eta_sq + other_ratio * f_atom_only
    return 3.0 / (8.0 * math.pi) * (over_phi * (2.0 * math.pi / n_phi))


BIT_MIRRORS = ROUTE_MIRRORS + [MirrorSpec.symmetric(r=0.3, t=0.5)]


@pytest.mark.parametrize("order", [16, 64])
@pytest.mark.parametrize("z", [2.7, 0.25 * np.arange(49), np.linspace(0.0, 9.0, 12).reshape(3, 4)],
                         ids=["scalar", "grid", "2d"])
@pytest.mark.parametrize("side", ["a", "b"])
def test_routes_equal_their_whole_array_expressions(order, z, side):
    quad = oracle.QuadratureSpec(order=order, tolerance=1.0)  # compare values, not convergence
    for mirror in BIT_MIRRORS:
        eta = rates.eta_factors(mirror)
        case = ((mirror.r_a, eta.eta_a_sq, mirror.t_b**2 / eta.eta_b_sq) if side == "a"
                else (mirror.r_b, eta.eta_b_sq, mirror.t_a**2 / eta.eta_a_sq))
        for mu in (0.0, 0.3, 0.5, 1.0):
            got = {"angular": oracle.angular_bracket_quadrature(z, *case, mu, quad),
                   "emission": oracle.reset_rate_quadrature(z, mirror, mu, quad, side=side)}
            for route, value in got.items():
                expected = _route_by_whole_arrays(route, z, case, mu, 2 * order)
                if np.ndim(z) == 0:
                    assert isinstance(value, float) and value == expected[0]
                else:
                    assert value.shape == np.shape(z)
                    assert np.array_equal(value, expected.reshape(np.shape(z)))


@pytest.mark.parametrize("side", ["a", "b"])
def test_routes_are_linear_in_mu(side):
    # The rate is mu Gamma_perp + (1 - mu) Gamma_par, so the mu = 0.3 value
    # is the same mixture of the mu = 1 and mu = 0 values.
    z = 0.25 * np.arange(49)
    for mirror in BIT_MIRRORS:
        case = rates._side_case(mirror, side)
        routes = {"angular": lambda mu: oracle.angular_bracket_quadrature(z, *case, mu),
                  "emission": lambda mu: oracle.reset_rate_quadrature(z, mirror, mu, side=side)}
        for route, value in routes.items():
            mixed = value(0.3)
            assert np.all(np.abs(mixed - (0.3 * value(1.0) + 0.7 * value(0.0)))
                          <= 1e-15 * np.abs(mixed)), (route, mirror)


def test_contour_array_z_equals_scalar_calls():
    z_grid = Z_SAMPLES[1:]
    vals = oracle.levelshift_contour_eval(z_grid, 0.4, 0.6, 1.7)
    for z, val in zip(z_grid, vals):
        assert val == pytest.approx(
            oracle.levelshift_contour_eval(float(z), 0.4, 0.6, 1.7), rel=1e-13)
    with pytest.raises(ZeroDistance):
        oracle.levelshift_contour_eval(Z_SAMPLES, 0.4, 0.6, 1.7)


def test_array_z_rejects_any_negative_distance():
    with pytest.raises(ValueError):
        oracle.angular_bracket_quadrature(np.array([1.0, -0.1]), 1.0, 2.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        oracle.reset_rate_quadrature(np.array([1.0, -0.1]), PERFECT, 0.0)


def test_array_z_names_first_unconverged_z_in_grid_order():
    quad = oracle.QuadratureSpec(order=16, tolerance=1e-12)
    z_grid = np.array([1.0, 45.0, 2.0, 40.0])
    messages = []
    for z in z_grid:
        try:
            oracle.angular_bracket_quadrature(float(z), 1.0, 2.0, 0.0, 0.0, quad)
        except QuadratureNotConverged as exc:
            messages.append(str(exc))
    assert len(messages) >= 2 and "z=45.0" in messages[0]
    with pytest.raises(QuadratureNotConverged, match=re.escape(messages[0]) + "$"):
        oracle.angular_bracket_quadrature(z_grid, 1.0, 2.0, 0.0, 0.0, quad)


def test_default_checks_pass_fail_set_at_1e_15():
    # The energy check sits near 1e-16 and must stay below 1e-15; the
    # other three sit above it. A field sum that rounds its chirp phases
    # to their own ulp lands near 2e-15 and flips the energy check.
    checks = oracle.run_default_checks(tol_gamma=1e-15, tol_delta=1e-15,
                                       tol_route=1e-15, tol_energy=1e-15)
    assert {c["name"]: c["pass"] for c in checks} == {
        "gamma_angular_quadrature": False, "delta_contour_form": False,
        "decay_route_consistency": False, "field_energy_mode_sum": True}


def test_coarse_default_checks_stop_before_the_emission_route(monkeypatch):
    def fail(*args):
        raise AssertionError("the emission route ran after the angular route failed")
    monkeypatch.setitem(oracle._ROUTES, "emission", (fail, oracle._ROUTES["emission"][1]))
    with pytest.raises(QuadratureNotConverged, match="^order 16 -> 32 moved"):
        oracle.run_default_checks(oracle.QuadratureSpec(order=16))


def test_coarse_default_checks_name_first_unconverged_z():
    with pytest.raises(QuadratureNotConverged) as info:
        oracle.run_default_checks(oracle.QuadratureSpec(order=16))
    assert str(info.value) == "order 16 -> 32 moved the result by 1.150e-10 at z=12.3"


SUITE_CASES = [rates._side_case(m, "a") for m in oracle._MIRRORS]


@pytest.mark.parametrize("route", ["angular", "emission"])
@pytest.mark.parametrize("order", [64, 128])
@pytest.mark.parametrize("z", [oracle._Z, 0.37 * np.arange(130)], ids=["suite", "130"])
def test_chunked_routes_equal_one_whole_grid_call(route, order, z):
    # The chunk boundaries must not move a single bit: each chunk keeps
    # every row in the same dgemv kernel as one call over the whole grid.
    assert oracle._Z_CHUNK % 4 == 0 and z.size > oracle._Z_CHUNK
    quad = oracle.QuadratureSpec(order=order // 2, tolerance=1.0)  # the fine rule is order
    got = oracle._quadratures(z, SUITE_CASES, oracle._MU, quad, [route])[route]
    build = oracle._ROUTES[route][0]
    whole = build(z.reshape(-1, 1), order, SUITE_CASES, oracle._MU)
    assert len(got) == len(whole) == len(SUITE_CASES) * len(oracle._MU)
    for value, expected in zip(got, whole):
        np.testing.assert_array_equal(value, expected)


def _hfield_four_sums(amps, grid, x_grid, medium):
    """The energy check with the fields at x and at -x each summed."""
    mode_sum = ms.expect_H_field_one_sided(amps, grid, medium)
    e_plus = ms.expect_E_free(amps, grid, medium, x_grid)
    e_minus = ms.expect_E_free(amps, grid, medium, -x_grid)
    b_plus = ms.expect_B_free(amps, grid, medium, x_grid)
    b_minus = ms.expect_B_free(amps, grid, medium, -x_grid)
    e_odd = (e_plus - e_minus) / math.sqrt(2.0)
    b_even = (b_plus + b_minus) / math.sqrt(2.0)
    density = medium.epsilon * e_odd**2 + b_even**2 / medium.mu_p
    spatial = 0.25 * grid.area * ms.simpson_with_check(density, x_grid[1] - x_grid[0])
    scale = max(abs(mode_sum), abs(spatial))
    return {"mode_sum": mode_sum, "spatial": spatial,
            "rel_gap": abs(mode_sum - spatial) / scale if scale > 0.0 else 0.0}


def test_hfield_check_equals_the_four_sum_form_on_the_suite_grid():
    packet = GaussianPacket.moving(e0=1.0, x0=30.0, sigma=3.0, k0_carrier=-10.0)
    grid = ms.ModeGrid.for_packet(packet, n_modes=4096)
    amps = ms.packet_to_amplitudes(packet, grid, MED)
    x_grid = np.linspace(-56.0, 56.0, 8193)
    got = oracle.hfield_mode_sum_check(amps, grid, x_grid, medium=MED)
    assert got == _hfield_four_sums(amps, grid, x_grid, MED)
    assert got["rel_gap"] < 1e-15


def _reference_default_checks():
    """The default suite, one (mirror, mu) pair at a time through the public
    per-pair functions: the loop the shared tables must reproduce exactly."""
    half = math.sqrt(0.5)
    mirrors = [PERFECT, MirrorSpec.symmetric(r=half, t=half),
               MirrorSpec.symmetric(r=0.3, t=0.5)]
    z_grid = 0.1 * np.arange(1, 501)

    def angular(mirror, mu):
        eta = rates.eta_factors(mirror)
        return oracle.angular_bracket_quadrature(
            z_grid, mirror.r_a, eta.eta_a_sq, mirror.t_b**2 / eta.eta_b_sq, mu)

    def contour(mirror, mu):
        eta = rates.eta_factors(mirror)
        return oracle.levelshift_contour_eval(z_grid, mu, mirror.r_a, eta.eta_a_sq)

    checks = [
        ("gamma_angular_quadrature", 1e-8, False,
         lambda m, mu: (angular(m, mu), rates.gamma_mirr(m, mu, z_grid))),
        ("delta_contour_form", 1e-8, True,
         lambda m, mu: (contour(m, mu), rates.delta_mirr(m, mu, z_grid))),
        ("decay_route_consistency", 1e-10, False,
         lambda m, mu: (oracle.reset_rate_quadrature(z_grid, m, mu), angular(m, mu))),
    ]
    reports = []
    for name, tolerance, scale_by_both, routes in checks:
        worst = np.zeros_like(z_grid)
        for mirror in mirrors:
            for mu in (0.0, 0.5, 1.0):
                got, reference = routes(mirror, mu)
                scale = np.abs(reference)
                if scale_by_both:
                    scale = np.maximum(scale, np.abs(got))
                worst = np.maximum(worst, np.abs(got - reference) / np.maximum(scale, 1e-12))
        reports.append({"name": name,
                        "grid": {"n_points": 500, "z_min": 0.1, "z_max": 50.0},
                        "max_rel_dev": float(worst.max()), "tolerance": tolerance,
                        "pass": bool(worst.max() < tolerance)})
    packet = GaussianPacket.moving(e0=1.0, x0=30.0, sigma=3.0, k0_carrier=-10.0)
    grid = ms.ModeGrid.for_packet(packet, n_modes=4096)
    amps = ms.packet_to_amplitudes(packet, grid, MED)
    energy = oracle.hfield_mode_sum_check(amps, grid, np.linspace(-56.0, 56.0, 8193),
                                          medium=MED)
    return reports + [{"name": "field_energy_mode_sum",
                       "grid": {"n_modes": 4096, "n_x": 8193},
                       "max_rel_dev": energy["rel_gap"], "tolerance": 1e-3,
                       "pass": bool(energy["rel_gap"] < 1e-3)}]


def test_default_checks_equal_the_per_pair_loop():
    assert oracle.run_default_checks() == _reference_default_checks()


def test_default_checks_run_without_sort_or_allclose(monkeypatch):
    # Each numpy kernel the suite touches maps its code pages; the energy
    # check's samples are ascending and its grid tests are max-abs bounds.
    def forbidden(*args, **kwargs):
        raise AssertionError("the default checks called a forbidden numpy helper")
    monkeypatch.setattr(np, "sort", forbidden)
    monkeypatch.setattr(np, "allclose", forbidden)
    assert all(check["pass"] for check in oracle.run_default_checks())


def test_default_checks_memory_peak():
    import tracemalloc

    oracle.run_default_checks()  # fill the node cache outside the measurement
    tracemalloc.start()
    try:
        oracle.run_default_checks()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0e6


# ------------------------------------------------------- field energy grid

@pytest.mark.parametrize("x_grid", [
    np.linspace(-20.0, 92.0, 8193),
    np.concatenate([np.linspace(-56.0, 0.0, 4097), np.linspace(0.0, 28.0, 4097)[1:]]),
    np.linspace(-56.0, 56.0, 8192),
    np.linspace(56.0, -56.0, 8193),
    np.where(np.arange(8193) == 100, math.nan, np.linspace(-56.0, 56.0, 8193)),
    np.where(np.arange(8193) == 4096, math.nan, np.linspace(-56.0, 56.0, 8193)),
    np.where(np.arange(8193) == 8192, math.inf, np.linspace(-56.0, 56.0, 8193)),
    np.where(np.arange(8193) == 0, -math.inf, np.linspace(-56.0, 56.0, 8193)),
    np.concatenate([[-math.inf], np.linspace(-55.0, 55.0, 8191), [math.inf]]),
], ids=["off-centre", "step-change-at-0", "even-count", "descending", "nan", "nan-at-0",
        "inf-end", "minus-inf-start", "plus-minus-inf-ends"])
def test_hfield_check_rejects_unsuitable_grid(x_grid):
    grid = ms.ModeGrid.symmetric(k_max=10.0, n_half=128)
    amps = ms.ModeAmplitudes.vacuum(grid)
    with pytest.raises(ValueError, match="x_grid"):
        oracle.hfield_mode_sum_check(amps, grid, x_grid, medium=MED)


# ------------------------------------------------------- non-finite input

def _entry_points(bad):
    z = np.array([1.0, bad])
    return {
        "angular": lambda: oracle.angular_bracket_quadrature(bad, 0.5, 1.5, 0.2, 0.3),
        "reset": lambda: oracle.reset_rate_quadrature(z, PERFECT, 0.3),
        "contour": lambda: oracle.levelshift_contour_eval(z, 0.3, 0.5, 1.5),
    }


@pytest.mark.parametrize("entry", sorted(_entry_points(math.nan)))
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_oracle_entry_points_reject_non_finite_z(entry, bad):
    with pytest.raises(ValueError, match="z must be finite"):
        _entry_points(bad)[entry]()


def test_gamma_report_fails_on_a_nan_closed_form(monkeypatch):
    gamma_mirr = rates.gamma_mirr

    def nan_at_one_z(mirror, mu, z, side="a"):
        values = np.array(gamma_mirr(mirror, mu, z, side=side))
        values[3] = math.nan
        return values

    monkeypatch.setattr(rates, "gamma_mirr", nan_at_one_z)
    gamma, delta, route, energy = oracle.run_default_checks()
    assert gamma["name"] == "gamma_angular_quadrature"
    assert math.isnan(gamma["max_rel_dev"])
    assert gamma["pass"] is False
    assert delta["pass"] and route["pass"] and energy["pass"]


@pytest.mark.parametrize("side", ["c", "", None])
def test_reset_rate_quadrature_rejects_an_unknown_side(side):
    with pytest.raises(ValueError, match="side must be 'a' or 'b'"):
        oracle.reset_rate_quadrature(1.0, MirrorSpec.symmetric(r=0.3, t=0.5), 0.2,
                                     side=side)
