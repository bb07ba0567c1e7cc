import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorfield import rates
from mirrorfield.core import AtomSpec, Medium, MirrorSpec
from mirrorfield.errors import (AbsorptionViolation, DegenerateNormalisation, RateOutOfRange,
                               ZeroDistance)

PERFECT = MirrorSpec.perfect()

# Frozen reference values, derived independently of the implementation:
# gamma(z=pi, mu=0, perfect) = 1 + 3/(2 pi**2), delta = (3/4)(1/pi**3 - 1/pi).
GAMMA_PERFECT_PI = 1.1519817754635067
DELTA_PERFECT_PI = -0.21454376381294338


# ------------------------------------------------------------- gamma_free

def test_gamma_free_scaling_in_dipole_and_frequency():
    base = AtomSpec(omega_0=1.0, dipole_norm=1.0, mu_orient=0.0, x=1.0)
    med = Medium()
    g0 = rates.gamma_free(base, med)
    double_d = AtomSpec(omega_0=1.0, dipole_norm=2.0, mu_orient=0.0, x=1.0)
    assert rates.gamma_free(double_d, med) == pytest.approx(4.0 * g0, rel=1e-12)
    double_w = AtomSpec(omega_0=2.0, dipole_norm=1.0, mu_orient=0.0, x=1.0)
    assert rates.gamma_free(double_w, med) == pytest.approx(8.0 * g0, rel=1e-12)


def test_gamma_free_si_reference_value():
    # Hand evaluation with SI constants, omega_0 = 2.4e15 rad/s, |D| = 50 pm.
    med = Medium(epsilon=8.8541878128e-12, mu_p=1.25663706212e-6)
    atom = AtomSpec(omega_0=2.4e15, dipole_norm=5.0e-11, mu_orient=0.0, x=1e-6,
                    e=1.602176634e-19, hbar=1.054571817e-34)
    assert med.c == pytest.approx(299792458.0, rel=1e-9)
    assert rates.gamma_free(atom, med) == pytest.approx(3741419.4049034966, rel=1e-12)


# ------------------------------------------------------------- eta factors

def test_eta_perfect_mirror_is_sqrt_two():
    eta = rates.eta_factors(PERFECT)
    assert eta.eta_a_sq == pytest.approx(2.0, rel=1e-14)
    assert eta.eta_b_sq == pytest.approx(2.0, rel=1e-14)


def test_eta_fully_absorbing_is_one():
    eta = rates.eta_factors(MirrorSpec.absorbing())
    assert eta.eta_a_sq == 1.0 and eta.eta_b_sq == 1.0


def test_eta_symmetric_general_form(rng):
    # eta**2 = 1 + r**2 + t**2 for any admissible symmetric mirror.
    for _ in range(20):
        r, t = rng.random(2)
        if r * r + t * t > 1.0:
            continue
        eta = rates.eta_factors(MirrorSpec.symmetric(r=r, t=t))
        assert eta.eta_a_sq == pytest.approx(1.0 + r * r + t * t, rel=1e-12)
        assert eta.eta_b_sq == pytest.approx(eta.eta_a_sq, rel=1e-14)


def test_eta_50_50_lossless():
    half = 2**-0.5
    eta = rates.eta_factors(MirrorSpec.symmetric(r=half, t=half))
    assert eta.eta_a_sq == pytest.approx(2.0, rel=1e-12)


def test_eta_free_space_sum_rule():
    eta = rates.eta_factors(MirrorSpec.free_space())
    assert 1.0 / eta.eta_a_sq + 1.0 / eta.eta_b_sq == pytest.approx(1.0, rel=1e-14)
    assert eta.eta_a_sq == pytest.approx(2.0)


def test_eta_single_degenerate_side_raises():
    with pytest.raises(DegenerateNormalisation):
        rates.eta_factors(MirrorSpec(t_a=0.5, t_b=1.0, r_a=0.5, r_b=0.0))
    with pytest.raises(DegenerateNormalisation):
        rates.eta_factors(MirrorSpec(t_a=1.0, t_b=0.5, r_a=0.0, r_b=0.5))


# ------------------------------------------------------------- gamma / delta

def test_perfect_mirror_contact_limits():
    assert rates.gamma_mirr(PERFECT, 0.0, 0.0) == pytest.approx(0.0, abs=1e-9)
    assert rates.gamma_mirr(PERFECT, 1.0, 0.0) == pytest.approx(2.0, abs=1e-9)
    assert rates.gamma_mirr(PERFECT, 0.0, 1e-12) == pytest.approx(0.0, abs=1e-9)
    assert rates.gamma_mirr(PERFECT, 1.0, 1e-12) == pytest.approx(2.0, abs=1e-9)


def test_perfect_mirror_contact_is_exact():
    # eta**2 is num / den, exactly 2 here. Squaring sqrt(2) gave
    # 2.0000000000000004, and the decay rate at contact came out as -2.2e-16.
    eta = rates.eta_factors(PERFECT)
    assert (eta.eta_a_sq, eta.eta_b_sq) == (2.0, 2.0)
    assert rates.gamma_mirr(PERFECT, 0.0, 0.0) == 0.0


def test_perfect_mirror_frozen_values_at_z_pi():
    assert rates.gamma_mirr(PERFECT, 0.0, math.pi) == pytest.approx(
        GAMMA_PERFECT_PI, rel=1e-12)
    assert rates.delta_mirr(PERFECT, 0.0, math.pi) == pytest.approx(
        DELTA_PERFECT_PI, rel=1e-12)


def test_delta_rejects_zero_distance():
    with pytest.raises(ZeroDistance):
        rates.delta_mirr(PERFECT, 0.0, 0.0)
    with pytest.raises(ZeroDistance):
        rates.delta_mirr(PERFECT, 0.0, np.array([1.0, -2.0]))


def test_absorbing_side_is_free_space_at_all_distances():
    z = np.logspace(-2.0, 3.0, 301)
    mirror = MirrorSpec.absorbing()
    assert np.abs(rates.gamma_mirr(mirror, 0.4, z) - 1.0).max() <= 1e-14
    assert np.abs(rates.delta_mirr(mirror, 0.4, z)).max() <= 1e-14
    # r_a = 0 alone suffices, whatever the other rates do.
    partial = MirrorSpec(t_a=0.6, t_b=0.5, r_a=0.0, r_b=0.4)
    assert np.abs(rates.gamma_mirr(partial, 0.7, z) - 1.0).max() <= 1e-14
    assert np.abs(rates.delta_mirr(partial, 0.7, z)).max() <= 1e-14


def test_delta_vanishes_far_from_mirror():
    z = 1e6
    assert abs(rates.delta_mirr(PERFECT, 0.0, z)) < 1e-6
    envelope = 3.0 * 1.0 / (2.0 * 2.0) * (1.0 / z) * 1.01
    assert abs(rates.delta_mirr(PERFECT, 0.0, z)) <= envelope


def test_far_field_oscillation_envelope():
    mirror = MirrorSpec.symmetric(r=0.6, t=0.5)
    eta_sq = rates.eta_factors(mirror).eta_a_sq
    far = rates.far_field_gamma(mirror)
    for z in (1e3, 1e4, 1e5):
        dev = abs(rates.gamma_mirr(mirror, 0.0, z) - far)
        assert dev <= 3.0 * 0.6 / (eta_sq * z) * 1.05


def test_far_field_normalisation_both_sides(rng):
    # The defining property of the eta factors: period-averaged decay ratio
    # far away equals 1 on both sides.
    z = np.linspace(1000.0, 1000.0 + 2.0 * math.pi, 2048)
    for _ in range(10):
        t_a, r_a, t_b, r_b = rng.random(4)
        if t_a**2 + r_a**2 > 1.0 or t_b**2 + r_b**2 > 1.0:
            continue
        if 1.0 + r_b**2 - t_b**2 < 0.05 or 1.0 + r_a**2 - t_a**2 < 0.05:
            continue
        mirror = MirrorSpec(t_a=t_a, t_b=t_b, r_a=r_a, r_b=r_b)
        mu = float(rng.random())
        for side in ("a", "b"):
            vals = rates.gamma_mirr(mirror, mu, z, side=side)
            mean = np.trapezoid(vals, z) / (2.0 * math.pi)
            assert mean == pytest.approx(1.0, abs=3e-3)


def test_mu_dependence_is_affine(rng):
    mirror = MirrorSpec.symmetric(r=0.4, t=0.7)
    for z in (0.3, 2.0, 11.0):
        g0 = rates.gamma_mirr(mirror, 0.0, z)
        g1 = rates.gamma_mirr(mirror, 1.0, z)
        gh = rates.gamma_mirr(mirror, 0.5, z)
        assert gh == pytest.approx(0.5 * (g0 + g1), rel=1e-12)


def test_series_branch_matches_direct_at_switchover():
    # Each oscillatory factor individually agrees across the branch point,
    # on either path; combined brackets can cross zero there, which would
    # inflate any relative measure. The bracket is sin(z)/z + pair at
    # mu = 0 and twice the pair at mu = 1.
    for points in (float, lambda z: np.array([z])):
        def factors(z):
            both, twice_pair = (float(np.ravel(rates.gamma_bracket(points(z), mu))[0])
                                for mu in (0.0, 1.0))
            return both - 0.5 * twice_pair, 0.5 * twice_pair

        below = factors(rates.SMALL_Z * (1.0 - 1e-12))
        above = factors(rates.SMALL_Z * (1.0 + 1e-12))
        for lo, hi in zip(below, above):
            assert lo == pytest.approx(hi, rel=1e-10)


def test_gamma_rejects_negative_z():
    with pytest.raises(ValueError):
        rates.gamma_mirr(PERFECT, 0.0, -1.0)


# ------------------------------------------------------------- presets

def test_symmetric_preset_contact_limit():
    half = 2**-0.5
    res = rates.preset_rates("symmetric", 0.0, 1e-12, r=half, t=half)
    assert res.gamma_ratio == pytest.approx(1.0 - 2**-0.5, abs=1e-9)


def test_symmetric_preset_free_space_member():
    z = np.linspace(0.1, 40.0, 400)
    res = rates.preset_rates("symmetric", 0.0, z, r=0.0, t=1.0)
    assert np.abs(res.gamma_ratio - 1.0).max() == 0.0
    assert np.abs(res.delta_ratio).max() == 0.0


def test_preset_matches_general_route_on_log_grid():
    z = np.logspace(-3.0, 3.0, 301)
    cases = [
        ("perfect", None, None, PERFECT),
        ("absorbing", None, None, MirrorSpec.absorbing()),
        ("symmetric", 2**-0.5, 2**-0.5, MirrorSpec.symmetric(r=2**-0.5, t=2**-0.5)),
        ("symmetric", 0.35, 0.35, MirrorSpec.symmetric(r=0.35, t=0.35)),
        ("symmetric", 0.3, 0.5, MirrorSpec.symmetric(r=0.3, t=0.5)),
    ]
    for mu in (0.0, 0.5, 1.0):
        for kind, r, t, mirror in cases:
            preset = rates.preset_rates(kind, mu, z, r=r, t=t)
            general_g = rates.gamma_mirr(mirror, mu, z)
            general_d = rates.delta_mirr(mirror, mu, z)
            np.testing.assert_allclose(preset.gamma_ratio, general_g,
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(preset.delta_ratio, general_d,
                                       rtol=1e-12, atol=1e-12)


def test_preset_perfect_equals_frozen_value():
    res = rates.preset_rates("perfect", 0.0, math.pi)
    assert res.gamma_ratio == pytest.approx(GAMMA_PERFECT_PI, rel=1e-12)
    assert res.delta_ratio == pytest.approx(DELTA_PERFECT_PI, rel=1e-12)


@pytest.mark.parametrize("kind, params, error, message", [
    ("symmetric", {"r": 2.0, "t": 0.0}, RateOutOfRange, "r_a = 2.0 outside [0, 1]"),
    ("symmetric", {"r": 0.9, "t": 0.9}, AbsorptionViolation,
     "side a: t**2 + r**2 = 1.62 exceeds 1"),
    ("symmetric", {"r": math.nan, "t": 0.1}, RateOutOfRange, "r_a = nan outside [0, 1]"),
    ("symmetric", {"r": 0.3}, ValueError, "mirror preset 'symmetric': missing t"),
    ("perfect", {"r": 0.3, "t": 0.1}, ValueError, "mirror preset 'perfect': unknown r, t"),
    ("absorbing", {"t": 0.5}, ValueError, "mirror preset 'absorbing': unknown t"),
], ids=["r-above-1", "t2-plus-r2-above-1", "r-nan", "t-missing", "perfect-with-r-t",
        "absorbing-with-t"])
def test_preset_refuses_rates_that_no_mirror_has(kind, params, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        rates.preset_rates(kind, 0.0, 1.0, **params)


def test_preset_result_record():
    res = rates.preset_rates("perfect", 0.5, 2.0)
    assert res.gamma_ratio >= 0.0


def test_rate_result_gamma_nonnegative_for_admissible_mirrors(rng):
    z = np.linspace(0.0, 30.0, 601)
    for _ in range(10):
        r, t = rng.random(2)
        if r * r + t * t > 1.0:
            continue
        vals = rates.gamma_mirr(MirrorSpec.symmetric(r=r, t=t), rng.random(), z)
        assert np.min(vals) >= -1e-12


@pytest.mark.parametrize("mu", [-0.1, 1.5, math.nan, math.inf])
def test_rates_reject_orientation_outside_unit_interval(mu):
    z = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="mu_orient"):
        rates.gamma_mirr(PERFECT, mu, z)
    with pytest.raises(ValueError, match="mu_orient"):
        rates.delta_mirr(PERFECT, mu, z)
    for kind, params in (("perfect", {}), ("absorbing", {}),
                         ("symmetric", {"r": 0.5, "t": 0.5})):
        with pytest.raises(ValueError, match="mu_orient"):
            rates.preset_rates(kind, mu, z, **params)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_rates_reject_non_finite_z(bad):
    for z in (bad, np.array([1.0, bad])):
        with pytest.raises(ValueError, match="z must be finite"):
            rates.gamma_mirr(PERFECT, 0.3, z)
        with pytest.raises(ValueError, match="z must be finite"):
            rates.delta_mirr(PERFECT, 0.3, z)
        for bracket in (rates.gamma_bracket, rates.delta_bracket):
            with pytest.raises(ValueError, match="z must be finite"):
                bracket(z, 0.0)
        for kind, params in (("perfect", {}), ("absorbing", {}),
                             ("symmetric", {"r": 0.5, "t": 0.5})):
            with pytest.raises(ValueError, match="z must be finite"):
                rates.preset_rates(kind, 0.3, z, **params)


@pytest.mark.parametrize("side", ["c", "", None])
def test_rates_reject_an_unknown_side(side):
    mirror = MirrorSpec.symmetric(r=0.3, t=0.5)
    for call in (lambda: rates.gamma_mirr(mirror, 0.2, 1.0, side=side),
                 lambda: rates.delta_mirr(mirror, 0.2, 1.0, side=side),
                 lambda: rates.far_field_gamma(mirror, side=side)):
        with pytest.raises(ValueError, match="side must be 'a' or 'b'"):
            call()


# ------------------------------------------------------------- two paths

# The scaled distances of the figure scans: k0x = 0.025 (0.025) 12.575.
GOLDEN_Z = [2.0 * (0.025 + 0.025 * i) for i in range(503)]
RATE_MIRRORS = [PERFECT, MirrorSpec.absorbing(), MirrorSpec.symmetric(r=0.35, t=0.35),
                MirrorSpec.symmetric(r=0.3, t=0.5), MirrorSpec.lossless(r=0.5),
                MirrorSpec(t_a=0.6, t_b=0.5, r_a=0.7, r_b=0.4)]
RATE_PRESETS = [("perfect", {}), ("absorbing", {}), ("symmetric", {"r": 0.35, "t": 0.35}),
                ("symmetric", {"r": 2**-0.5, "t": 2**-0.5}),
                ("symmetric", {"r": 0.3, "t": 0.5})]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_paths_agree(route, z: list) -> None:
    """route(z) on a list, on each float of it and on an array: floats on
    the first two, an array on the last, all with the same bits."""
    on_list = route(z)
    on_floats = [route(v) for v in z]
    on_array = route(np.array(z))
    assert type(on_list) is list and {type(v) for v in on_list + on_floats} <= {float}
    assert isinstance(on_array, np.ndarray) and on_array.shape == (len(z),)
    assert _bits(on_list) == _bits(on_floats) == _bits(on_array)


def _preset_route(kind, mu, params, field):
    return lambda z: getattr(rates.preset_rates(kind, mu, z, **params), field)


def test_float_and_array_paths_agree_bit_for_bit_on_the_golden_grid():
    for mu in (0.0, 0.5, 1.0):
        for mirror in RATE_MIRRORS:
            for side in ("a", "b"):
                for route in (rates.gamma_mirr, rates.delta_mirr):
                    assert_paths_agree(lambda z: route(mirror, mu, z, side=side), GOLDEN_Z)
        for kind, params in RATE_PRESETS:
            for field in ("gamma_ratio", "delta_ratio"):
                assert_paths_agree(_preset_route(kind, mu, params, field), GOLDEN_Z)


_Z_POINTS = st.one_of(
    st.floats(min_value=1e-6, max_value=1e4),
    st.floats(min_value=rates.SMALL_Z * (1.0 - 1e-6), max_value=rates.SMALL_Z * (1.0 + 1e-6)),
    st.floats(min_value=0.5 * rates.SMALL_Z, max_value=2.0 * rates.SMALL_Z),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(z=st.lists(_Z_POINTS, min_size=1, max_size=20), mu=st.floats(0.0, 1.0),
       side=st.sampled_from("ab"), mirror=st.sampled_from(RATE_MIRRORS),
       preset=st.sampled_from(RATE_PRESETS))
def test_float_and_array_paths_agree_bit_for_bit_on_drawn_z(z, mu, side, mirror, preset):
    kind, params = preset
    assert_paths_agree(lambda zz: rates.gamma_mirr(mirror, mu, zz, side=side), z)
    assert_paths_agree(lambda zz: rates.delta_mirr(mirror, mu, zz, side=side), z)
    for field in ("gamma_ratio", "delta_ratio"):
        assert_paths_agree(_preset_route(kind, mu, params, field), z)


def test_each_path_keeps_the_shape_and_type_of_z():
    z = np.linspace(0.5, 3.0, 6).reshape(2, 3)
    gamma = rates.gamma_mirr(PERFECT, 0.2, z)
    assert gamma.shape == (2, 3)
    assert _bits(gamma.ravel()) == _bits(rates.gamma_mirr(PERFECT, 0.2, list(z.ravel())))
    for zero_d in (np.array(1.5), np.float64(1.5), np.int64(2), 2):
        value = rates.delta_mirr(PERFECT, 0.2, zero_d)
        assert type(value) is float
        assert value == rates.delta_mirr(PERFECT, 0.2, float(zero_d))
    res = rates.preset_rates("absorbing", 0.3, [0.5, 1.0])
    assert (res.gamma_ratio, res.delta_ratio) == ([1.0, 1.0], [0.0, 0.0])
    res = rates.preset_rates("absorbing", 0.3, np.array([0.5, 1.0]))
    assert _bits(res.gamma_ratio) == _bits([1.0, 1.0])
    assert _bits(res.delta_ratio) == _bits([0.0, 0.0])


# ------------------------------------------------------------- the cube

def test_cube_is_correctly_rounded(rng):
    z = np.concatenate([rng.uniform(0.01, 60.0, 20000),
                        np.exp(rng.uniform(math.log(rates._CUBE_MIN),
                                           math.log(rates._CUBE_MAX), 2000))])
    z = z * rng.choice([-1.0, 1.0], z.size)
    on_array = rates._cube(z)
    for v, cubed in zip(z.tolist(), on_array.tolist()):
        exact = float(Fraction(v) ** 3)
        assert rates._cube(v) == exact == cubed, v


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=rates._CUBE_MIN, max_value=rates._CUBE_MAX))
def test_cube_is_correctly_rounded_on_drawn_z(z):
    assert rates._cube(z) == float(Fraction(z) ** 3)


@pytest.mark.parametrize("z", [1e103, 1e200])
def test_cube_falls_back_to_the_plain_product_above_its_range(z):
    # z**3 overflows to inf there; the two-products would give NaN.
    assert z > rates._CUBE_MAX and math.isnan(rates._cube(z))
    mu = 0.3
    s, c, z2 = math.sin(z), math.cos(z), z * z
    expected = c / z * (1.0 - mu) - (s / z2 + c / (z2 * z)) * (1.0 + mu)
    assert math.isfinite(expected)
    for points in (z, [z], np.array([z])):
        assert _bits(rates.delta_bracket(points, mu)) == _bits(expected)
        assert math.isfinite(np.ravel(rates.gamma_bracket(points, mu))[0])


def test_cube_falls_back_to_the_plain_product_below_its_range():
    # z**3 underflows to zero at z = 1e-110, and the shift overflows.
    z = 1e-110
    assert z < rates._CUBE_MIN and z * z * z == 0.0
    for points in (z, [2.0, z], np.array([2.0, z])):
        with pytest.raises(ZeroDistance, match="^level shift overflows at z = 1e-110$"):
            rates.delta_bracket(points, 0.0)
        with pytest.raises(ZeroDistance, match="^level shift overflows at z = 1e-110$"):
            rates.preset_rates("perfect", 0.0, points)
    assert rates.gamma_mirr(PERFECT, 1.0, z) == rates.gamma_mirr(PERFECT, 1.0, [z])[0]


@pytest.mark.parametrize("form", [lambda z: z, lambda z: [1.0, z], lambda z: np.array([1.0, z])],
                         ids=["float", "list", "array"])
def test_error_messages_are_the_same_on_either_path(form):
    messages = [
        (lambda z: rates.delta_mirr(PERFECT, 0.0, z), 0.0, ZeroDistance,
         "level shift requires z > 0"),
        (lambda z: rates.preset_rates("absorbing", 0.0, z), -1.0, ZeroDistance,
         "level shift requires z > 0"),
        (lambda z: rates.gamma_mirr(PERFECT, 0.0, z), -1.0, ValueError,
         "z must be non-negative"),
        (lambda z: rates.gamma_mirr(PERFECT, 0.0, z), math.nan, ValueError,
         "z must be finite"),
        (lambda z: rates.preset_rates("perfect", 0.0, z), math.inf, ValueError,
         "z must be finite"),
        (lambda z: rates.delta_mirr(PERFECT, 0.0, z), 1e-104, ZeroDistance,
         "level shift overflows at z = 1e-104"),
    ]
    for call, bad, error, message in messages:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(form(bad))
