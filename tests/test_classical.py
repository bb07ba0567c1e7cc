import math

import numpy as np
import pytest

from mirrorfield import classical
from mirrorfield.classical import (ScatterScene, energy_between, field_energy_1d,
                                   free_field_1d, interference_intensities,
                                   mirror_field_1d, mirror_field_1d_perfect,
                                   mirror_fields_1d)
from mirrorfield.core import GaussianPacket, Medium, MirrorSpec
from mirrorfield.errors import GridTooCoarse, NegativeTime

MED = Medium()


def left_packet(x0=30.0, sigma=3.0, k0=-10.0, e0=1.0, xi=0.0):
    return GaussianPacket.moving(e0=e0, x0=x0, sigma=sigma, k0_carrier=k0,
                                 side="a", xi_init=xi)


# ------------------------------------------------------------- free field

def test_free_field_translates_rigidly():
    p = left_packet()
    x = np.linspace(-60.0, 60.0, 1201)
    for t in (0.0, 3.7, -2.5):  # free propagation is time reversible
        e_now, _ = free_field_1d(p, x, t, MED)
        e_ref, _ = free_field_1d(p, x + MED.c * t, 0.0, MED)  # left mover
        np.testing.assert_allclose(e_now, e_ref, atol=1e-14)


def test_free_field_peak_amplitude_at_center():
    p = GaussianPacket.moving(e0=0.7, x0=-30.0, sigma=3.0, k0_carrier=10.0,
                              side="b", xi_init=0.0)
    t = 2.0
    center = p.center(t, MED)
    # At the envelope centre the field equals 2 e0 cos(carrier phase).
    e_val, _ = free_field_1d(p, center, t, MED)
    omega = abs(p.k0_carrier) * MED.c
    expected = 2.0 * p.e0 * math.cos(p.k0_carrier * center - omega * t)
    assert float(e_val) == pytest.approx(expected, rel=1e-12)


def test_free_field_gaussian_tail():
    p = left_packet()
    t = 1.3
    far = p.center(t, MED) + 10.0 * p.sigma
    e_val, _ = free_field_1d(p, far, t, MED)
    assert abs(float(e_val)) < math.exp(-50.0) * 2.0 * p.e0


def test_magnetic_field_sign_follows_direction():
    x = np.linspace(-80.0, 80.0, 501)
    lm = left_packet()
    e_l, b_l = free_field_1d(lm, x, 1.0, MED)
    np.testing.assert_allclose(b_l, -e_l / MED.c, atol=1e-15)
    rm = GaussianPacket.moving(e0=1.0, x0=-30.0, sigma=3.0, k0_carrier=10.0, side="b")
    e_r, b_r = free_field_1d(rm, x, 1.0, MED)
    np.testing.assert_allclose(b_r, e_r / MED.c, atol=1e-15)


def test_fig2_frame_shape():
    # Canonical frame-series packet: carrier times centre = -6, width x0/sqrt(2).
    x0 = 1.0
    with pytest.warns(UserWarning):  # marginally localised by construction
        p = GaussianPacket(e0=1.0, x0=x0, sigma=x0 / math.sqrt(2.0),
                           k0_carrier=-6.0 / x0, side="a")
    t1 = 0.89 * x0 / MED.c
    x = np.linspace(-4.0, 4.0, 8001)
    envelope = np.abs(classical.packet_complex_field(p, x, t1, MED))
    peak = x[int(np.argmax(envelope))]
    assert peak == pytest.approx(x0 - 0.89 * x0, abs=2e-3)
    # Envelope width unchanged by propagation: half maximum at sqrt(2 ln 2) sigma.
    half = envelope >= 0.5 * envelope.max()
    width = x[half][-1] - x[half][0]
    assert width == pytest.approx(2.0 * math.sqrt(2.0 * math.log(2.0)) * p.sigma, rel=2e-3)


def test_localised_packet_warns_for_fig2_parameters():
    with pytest.warns(UserWarning):
        GaussianPacket(e0=1.0, x0=1.0, sigma=1.0 / math.sqrt(2.0),
                       k0_carrier=-6.0, side="a")


# ------------------------------------------------------------- perfect mirror

def test_perfect_mirror_node_and_dark_side():
    p = left_packet()
    for t in (0.0, 2.0, 2.9, 3.5, 6.0):
        e0_val, _ = mirror_field_1d_perfect([p], 0.0, t, MED)
        assert abs(float(e0_val)) < 1e-12
        e_neg, b_neg = mirror_field_1d_perfect([p], np.array([-5.0, -0.1]), t, MED)
        assert np.all(e_neg == 0.0) and np.all(b_neg == 0.0)


def test_perfect_mirror_reflection_is_negated_image():
    p = left_packet()
    t_late = 60.0 / MED.c  # packet has fully crossed and returned
    x = np.linspace(5.0, 60.0, 901)
    e_mirr, _ = mirror_field_1d_perfect([p], x, t_late, MED)
    e_image, _ = free_field_1d(p, -x, t_late, MED)
    np.testing.assert_allclose(e_mirr, -e_image, atol=1e-13)


def test_perfect_mirror_boundary_condition_invariant():
    p = left_packet()
    times = np.linspace(0.0, 8.0, 81)
    worst = max(abs(float(mirror_field_1d_perfect([p], 0.0, t, MED)[0]))
                for t in times)
    assert worst < 1e-12 * p.e0


# ------------------------------------------------------------- two-sided mirror

def test_mirror_field_free_preset_is_identity():
    p = left_packet()
    q = GaussianPacket.moving(e0=0.5, x0=-25.0, sigma=2.0, k0_carrier=8.0, side="b")
    scene = ScatterScene(mirror=MirrorSpec.free_space(), packets_a=(p,),
                         packets_b=(q,), medium=MED)
    x = np.linspace(-60.0, 60.0, 1001)
    for t in (0.0, 1.5, 4.0):
        total = mirror_field_1d(scene, x, t)
        free = free_field_1d(p, x, t, MED)[0] + free_field_1d(q, x, t, MED)[0]
        np.testing.assert_array_equal(total, free)


def test_mirror_field_perfect_preset_matches_one_sided():
    p = left_packet()
    scene = ScatterScene(mirror=MirrorSpec.perfect(), packets_a=(p,), medium=MED)
    x = np.linspace(-20.0, 60.0, 1601)
    for t in (0.0, 2.0, 3.0, 4.5):
        general = mirror_field_1d(scene, x, t)
        reference, _ = mirror_field_1d_perfect([p], x, t, MED)
        np.testing.assert_allclose(general, reference, atol=2e-13)


def test_mirror_fields_perfect_preset_match_image_route_pointwise():
    # B is compared point by point while the packet overlaps the mirror;
    # energy integrals after separation can not see a sign slip on the
    # reflected B. c != 1 so a missing or doubled 1/c shows as well.
    med = Medium(epsilon=4.0, mu_p=1.0)
    p = left_packet(x0=12.0)
    scene = ScatterScene(mirror=MirrorSpec.perfect(), packets_a=(p,), medium=med)
    x = np.linspace(-30.0, 30.0, 2401)
    for shift in (-1.5, 0.0, 2.0):
        t = (p.x0 + shift * p.sigma) / med.c
        e_field, b_field = mirror_fields_1d(scene, x, t)
        e_ref, b_ref = mirror_field_1d_perfect([p], x, t, med)
        for got, ref in ((e_field, e_ref), (b_field, b_ref)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_fields_by_side_sum_to_total():
    mirror = MirrorSpec(t_a=0.5, t_b=0.3, r_a=0.6, r_b=0.7,
                        phi_1=0.4, phi_2=1.9, phi_3=-2.2, phi_4=2.8)
    q = GaussianPacket.moving(e0=0.5, x0=-25.0, sigma=2.5, k0_carrier=8.0,
                              side="b", xi_init=1.1)
    scene = ScatterScene(mirror=mirror, packets_a=(left_packet(xi=0.3),),
                         packets_b=(q,), medium=Medium(epsilon=2.0))
    x = np.linspace(-60.0, 60.0, 1201)
    for t in (0.0, 25.0, 40.0):
        from_a, from_b = classical.mirror_field_1d_by_side(scene, x, t)
        total = mirror_field_1d(scene, x, t)
        assert np.abs(from_a).max() > 0.1 and np.abs(from_b).max() > 0.1
        np.testing.assert_allclose(from_a + from_b, total, rtol=0.0, atol=1e-12)


def test_mirror_field_rejects_negative_time():
    scene = ScatterScene(mirror=MirrorSpec.perfect(), packets_a=(left_packet(),),
                         medium=MED)
    with pytest.raises(NegativeTime):
        mirror_field_1d(scene, 1.0, -0.5)


def test_scene_rejects_mislabeled_packets():
    with pytest.raises(ValueError):
        ScatterScene(mirror=MirrorSpec.perfect(),
                     packets_a=(GaussianPacket.moving(
                         e0=1.0, x0=-30.0, sigma=3.0, k0_carrier=10.0, side="b"),))


def test_superposition_satisfies_wave_equation():
    # Discrete second differences: residual scales as h**2. Needs c != 1,
    # otherwise the leading truncation terms cancel identically.
    med = Medium(epsilon=2.0, mu_p=1.5)
    p = left_packet()
    scene = ScatterScene(mirror=MirrorSpec.symmetric(
        r=0.6, t=0.7, phi_1=math.pi, phi_2=0.4, phi_3=0.9, phi_4=1.1),
        packets_a=(p,), medium=med)
    x = np.linspace(5.0, 25.0, 41)
    t0 = 1.7

    def residual(h):
        e_xx = (mirror_field_1d(scene, x + h, t0)
                - 2.0 * mirror_field_1d(scene, x, t0)
                + mirror_field_1d(scene, x - h, t0)) / h**2
        e_tt = (mirror_field_1d(scene, x, t0 + h)
                - 2.0 * mirror_field_1d(scene, x, t0)
                + mirror_field_1d(scene, x, t0 - h)) / h**2
        return np.max(np.abs(e_xx - med.epsilon * med.mu_p * e_tt))

    r1, r2 = residual(1e-3), residual(5e-4)
    assert r1 / r2 == pytest.approx(4.0, rel=0.2)


# ------------------------------------------------------------- energy

def test_free_space_energy_constant_in_time():
    p = left_packet()
    values = []
    for t in (0.0, 2.0, 5.0):
        center = p.center(t, MED)
        values.append(energy_between(
            lambda xa: free_field_1d(p, xa, t, MED),
            center - 28.0, center + 28.0, MED))
    assert values[1] == pytest.approx(values[0], rel=1e-9)
    assert values[2] == pytest.approx(values[0], rel=1e-9)


def test_perfect_mirror_energy_conserved_after_reflection():
    p = left_packet()
    e_in = energy_between(lambda xa: free_field_1d(p, xa, 0.0, MED),
                          p.x0 - 28.0, p.x0 + 28.0, MED)
    t_late = 65.0
    e_out = energy_between(lambda xa: mirror_field_1d_perfect([p], xa, t_late, MED),
                           0.0, 64.0, MED)
    assert e_out == pytest.approx(e_in, rel=1e-6)


@pytest.mark.parametrize("r,t", [(1.0, 0.0), (2**-0.5, 2**-0.5), (0.5, 0.5),
                                 (0.3, 0.8), (0.0, 1.0)])
def test_scattered_energy_fraction(r, t):
    p = left_packet()
    mirror = MirrorSpec.symmetric(r=r, t=t, phi_1=math.pi, phi_3=math.pi)
    scene = ScatterScene(mirror=mirror, packets_a=(p,), medium=MED)
    e_in = energy_between(lambda xa: free_field_1d(p, xa, 0.0, MED),
                          p.x0 - 28.0, p.x0 + 28.0, MED)
    e_out = energy_between(lambda xa: mirror_fields_1d(scene, xa, 70.0),
                           -70.0, 70.0, MED)
    assert e_out / e_in == pytest.approx(r * r + t * t, abs=1e-6)


def test_field_energy_grid_too_coarse():
    p = left_packet()
    x = np.linspace(p.x0 - 28.0, p.x0 + 28.0, 41)  # far too few samples
    e_field, b_field = free_field_1d(p, x, 0.0, MED)
    with pytest.raises(GridTooCoarse):
        field_energy_1d(e_field, b_field, x[1] - x[0], MED)


def test_field_energy_matches_refined_quadrature():
    p = left_packet()
    x = np.linspace(p.x0 - 28.0, p.x0 + 28.0, 16385)
    e_field, b_field = free_field_1d(p, x, 0.0, MED)
    sampled = field_energy_1d(e_field, b_field, x[1] - x[0], MED)
    refined = energy_between(lambda xa: free_field_1d(p, xa, 0.0, MED),
                             p.x0 - 28.0, p.x0 + 28.0, MED)
    assert sampled == pytest.approx(refined, rel=1e-8)


# ------------------------------------------------------------- interference

def test_interference_single_input_limit():
    mirror = MirrorSpec.symmetric(r=0.6, t=0.7, phi_1=0.4, phi_2=1.1)
    i_right, i_left = interference_intensities(mirror, e0_a=2.0, e0_b=0.0,
                                               xi_1=0.3, xi_2=0.0)
    assert i_right == pytest.approx(mirror.r_a**2 * 4.0, rel=1e-12)
    assert i_left == pytest.approx(mirror.t_a**2 * 4.0, rel=1e-12)


def test_interference_perfect_mirror():
    i_right, i_left = interference_intensities(MirrorSpec.perfect(), 1.5, 0.7,
                                               xi_1=0.2, xi_2=1.9)
    assert i_right == pytest.approx(1.5**2, rel=1e-12)
    assert i_left == pytest.approx(0.7**2, rel=1e-12)


def test_interference_complementarity_50_50():
    half = 2**-0.5
    mirror = MirrorSpec.symmetric(r=half, t=half, phi_1=math.pi)
    deltas = np.arange(0.0, 2.0 * math.pi, 1e-3)
    rights = np.empty_like(deltas)
    lefts = np.empty_like(deltas)
    for j, d in enumerate(deltas):
        rights[j], lefts[j] = interference_intensities(mirror, 1.0, 1.0, 0.0, d)
    jmax = int(np.argmax(rights))
    assert lefts[jmax] == pytest.approx(0.0, abs=1e-5)
    assert rights[jmax] == pytest.approx(2.0, rel=1e-6)


def test_interference_argmax_argmin_coincide(rng):
    # Constraint-satisfying phases make the brightest right output coincide
    # with the darkest left output, for any amplitude pair.
    deltas = np.arange(0.0, 2.0 * math.pi, 1e-3)
    for _ in range(5):
        phi_1, phi_2, phi_3 = rng.uniform(0.0, 2.0 * math.pi, 3)
        phi_4 = phi_1 - phi_2 + phi_3 - math.pi
        mirror = MirrorSpec.symmetric(r=0.6, t=0.6, phi_1=phi_1, phi_2=phi_2,
                                      phi_3=phi_3, phi_4=phi_4)
        e0_a, e0_b = rng.uniform(0.5, 2.0, 2)
        rights = np.empty_like(deltas)
        lefts = np.empty_like(deltas)
        for j, d in enumerate(deltas):
            rights[j], lefts[j] = interference_intensities(mirror, e0_a, e0_b, 0.0, d)
        gap = deltas[int(np.argmax(rights))] - deltas[int(np.argmin(lefts))]
        gap = abs(math.remainder(gap, 2.0 * math.pi))
        assert gap <= 1.5e-3


def test_two_sided_scattering_reproduces_interference_algebra():
    # Counter-propagating equal packets on a 50:50 lossless mirror: the
    # late-time outgoing energy split over the initial-phase sweep follows
    # the single-frequency interference intensities.
    half = 2**-0.5
    mirror = MirrorSpec.symmetric(r=half, t=half, phi_1=math.pi)
    p_a = GaussianPacket.moving(e0=1.0, x0=40.0, sigma=4.0, k0_carrier=-8.0,
                                side="a")
    e_in = 2.0 * energy_between(lambda xa: free_field_1d(p_a, xa, 0.0, MED),
                                p_a.x0 - 32.0, p_a.x0 + 32.0, MED)
    floor = 1e-9 * e_in  # a fully dark side never converges relatively
    for xi_2 in (0.0, math.pi / 2.0, math.pi, 4.4):
        p_b = GaussianPacket.moving(e0=1.0, x0=-40.0, sigma=4.0, k0_carrier=8.0,
                                    side="b", xi_init=xi_2)
        scene = ScatterScene(mirror=mirror, packets_a=(p_a,), packets_b=(p_b,),
                             medium=MED)
        e_right = energy_between(lambda xa: mirror_fields_1d(scene, xa, 90.0),
                                 0.0, 90.0, MED, abs_tol=floor)
        e_left = energy_between(lambda xa: mirror_fields_1d(scene, xa, 90.0),
                                -90.0, 0.0, MED, abs_tol=floor)
        i_right, i_left = interference_intensities(mirror, 1.0, 1.0, 0.0, xi_2)
        assert e_right / (e_right + e_left) == pytest.approx(
            i_right / (i_right + i_left), abs=1e-6)


def test_interference_energy_balance_lossless():
    half = 2**-0.5
    mirror = MirrorSpec.symmetric(r=half, t=half, phi_1=math.pi)
    for delta in (0.0, 0.7, 2.2):
        i_right, i_left = interference_intensities(mirror, 1.3, 0.8, 0.0, delta)
        assert i_right + i_left == pytest.approx(1.3**2 + 0.8**2, rel=1e-12)
