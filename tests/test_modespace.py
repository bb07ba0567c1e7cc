import math
import re
import sys

import numpy as np
import pytest

from mirrorfield import modespace as ms
from mirrorfield import oracle
from mirrorfield.classical import free_field_1d, mirror_field_1d_perfect
from mirrorfield.core import GaussianPacket, Medium
from mirrorfield.errors import BandwidthNotCovered

MED = Medium()


@pytest.fixture(scope="module")
def packet():
    return GaussianPacket.moving(e0=1.0, x0=30.0, sigma=3.0, k0_carrier=-10.0)


@pytest.fixture(scope="module")
def grid(packet):
    return ms.ModeGrid.for_packet(packet)


@pytest.fixture(scope="module")
def amps(packet, grid):
    return ms.packet_to_amplitudes(packet, grid, MED)


def bump_amplitudes(grid, antisymmetric, k_center=10.0, width=0.3, phase=0.3):
    """One-sided synthetic amplitudes with definite parity."""
    g = np.exp(-0.5 * ((grid.k_pos - k_center) / width) ** 2) \
        * np.exp(1j * phase * grid.k_pos)
    sign = -1.0 if antisymmetric else 1.0
    alpha = np.concatenate([sign * g[::-1], g]).astype(complex)
    return ms.ModeAmplitudes(alpha_a=alpha, alpha_b=np.zeros_like(alpha))


# ------------------------------------------------------------- grid

def test_grid_is_symmetric_uniform_and_excludes_zero(grid):
    k = grid.k
    assert k.size == 4096
    np.testing.assert_allclose(k, -k[::-1], atol=0.0)
    assert np.all(k != 0.0)
    np.testing.assert_allclose(np.diff(grid.k_pos), grid.dk, rtol=1e-12)


def test_grid_is_built_from_k_max_and_n_half():
    grid = ms.ModeGrid(k_max=10.0, n_half=4, area=2.0)
    np.testing.assert_array_equal(grid.k, [-10.0, -7.5, -5.0, -2.5, 2.5, 5.0, 7.5, 10.0])
    assert grid.dk == 2.5
    assert grid.n_half == 4
    np.testing.assert_array_equal(grid.k_pos, [2.5, 5.0, 7.5, 10.0])


def test_grid_modes_are_read_only():
    # The chirp-z sum reads the modes from dk and n_half, the dense sum from k.
    grid = ms.ModeGrid(k_max=10.0, n_half=4)
    with pytest.raises(ValueError):
        grid.k[0] = 3.0
    with pytest.raises(ValueError):
        grid.k_pos[0] = 3.0


def test_grid_accepts_a_numpy_integer_count():
    assert ms.ModeGrid(k_max=10.0, n_half=np.int64(4)).k.size == 8


def test_equal_grids_compare_equal_and_hash_alike():
    grid = ms.ModeGrid(k_max=10.0, n_half=4)
    same = ms.ModeGrid(k_max=10.0, n_half=4)
    assert grid == same
    assert hash(grid) == hash(same)
    assert grid != ms.ModeGrid(k_max=10.0, n_half=4, area=2.0)
    assert repr(grid) == "ModeGrid(k_max=10.0, n_half=4, area=1.0)"


def test_grid_rejects_asymmetric():
    # A grid is its parameters: an asymmetric or uneven k cannot be passed.
    with pytest.raises(TypeError):
        ms.ModeGrid(k=np.array([-2.0, 1.0]), dk=1.0)


def test_grid_rejects_zero_mode():
    # A k_max of 0 would put every mode at k = 0.
    with pytest.raises(ValueError, match="^k_max must be positive and finite, got 0.0$"):
        ms.ModeGrid(k_max=0.0, n_half=4)


_FLOAT_MAX = sys.float_info.max


@pytest.mark.parametrize("make, message", [
    (lambda: ms.ModeGrid(k_max=math.nan, n_half=4),
     "k_max must be positive and finite, got nan"),
    (lambda: ms.ModeGrid(k_max=math.inf, n_half=4),
     "k_max must be positive and finite, got inf"),
    (lambda: ms.ModeGrid(k_max=10.0, n_half=4, area=math.nan),
     "area must be positive and finite, got nan"),
    (lambda: ms.ModeGrid(k_max=10.0, n_half=4, area=math.inf),
     "area must be positive and finite, got inf"),
    # The ids below name where the non-finite value would land in k or dk.
    (lambda: ms.ModeGrid(k_max=10.0, n_half=math.nan),
     "n_half must be an integer of at least 1, got nan"),
    (lambda: ms.ModeGrid(k_max=10.0, n_half=np.int64(0)),
     f"n_half must be an integer of at least 1, got {np.int64(0)!r}"),
    (lambda: ms.ModeGrid(k_max=np.float64(math.nan), n_half=4),
     "k_max must be positive and finite, got nan"),
    # dk * n_half rounds past the largest float.
    (lambda: ms.ModeGrid(k_max=_FLOAT_MAX, n_half=3),
     f"k_max = {_FLOAT_MAX} with n_half = 3 puts a mode at 0 or infinity"),
    (lambda: ms.ModeGrid(k_max=_FLOAT_MAX, n_half=np.int64(7)),
     f"k_max = {_FLOAT_MAX} with n_half = 7 puts a mode at 0 or infinity"),
], ids=["k_max-nan", "k_max-inf", "area-nan", "area-inf", "nan-dk", "inf-dk", "nan-k",
        "inf-end", "minus-inf-start"])
def test_grid_rejects_non_finite_values(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: ms.ModeGrid(k_max=-1.0, n_half=4),
     "k_max must be positive and finite, got -1.0"),
    (lambda: ms.ModeGrid(k_max=10.0, n_half=4, area=0.0),
     "area must be positive and finite, got 0.0"),
    (lambda: ms.ModeGrid(k_max=10.0, n_half=4, area=-1.0),
     "area must be positive and finite, got -1.0"),
    (lambda: ms.ModeGrid(k_max=10.0, n_half=0),
     "n_half must be an integer of at least 1, got 0"),
    (lambda: ms.ModeGrid(k_max=10.0, n_half=4.0),
     "n_half must be an integer of at least 1, got 4.0"),
    (lambda: ms.ModeGrid(k_max=5e-324, n_half=2),
     "k_max = 5e-324 with n_half = 2 puts a mode at 0 or infinity"),
    (lambda: ms.ModeGrid(k_max=10.0, n_half=True),
     "n_half must be an integer of at least 1, got True"),
], ids=["k_max-negative", "area-zero", "area-negative", "n_half-zero", "n_half-float",
        "dk-underflow", "n_half-bool"])
def test_grid_rejects_out_of_range_values(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


# ------------------------------------------------------------- amplitudes

def test_amplitudes_gaussian_around_carrier(packet, grid, amps):
    mags = np.abs(amps.alpha_a)
    k_at_peak = grid.k[int(np.argmax(mags))]
    assert k_at_peak == pytest.approx(packet.k0_carrier, abs=2.0 * grid.dk)
    # After removing the 1/sqrt(omega) mode normalisation the magnitude is an
    # exact Gaussian of width 1/sigma around the carrier.
    shape = mags * np.sqrt(np.abs(grid.k))
    j_peak = int(np.argmin(np.abs(grid.k - packet.k0_carrier)))
    j_off = int(np.argmin(np.abs(grid.k - (packet.k0_carrier + 1.0 / packet.sigma))))
    assert shape[j_off] / shape[j_peak] == pytest.approx(math.exp(-0.5), rel=5e-3)


def test_left_mover_supported_at_negative_k(packet, grid, amps):
    positive_part = np.abs(amps.alpha_a[grid.n_half:]).max()
    assert positive_part < 1e-30 * np.abs(amps.alpha_a).max()
    assert np.all(amps.alpha_b == 0.0)


def test_round_trip_field_reproduces_packet(packet, grid, amps):
    x = np.linspace(5.0, 55.0, 1001)
    reconstructed = ms.expect_E_free(amps, grid, MED, x)
    reference, _ = free_field_1d(packet, x, 0.0, MED)
    assert np.abs(reconstructed - reference).max() < 1e-6 * packet.e0


def test_bandwidth_not_covered(packet):
    narrow = ms.ModeGrid(k_max=11.0, n_half=256)  # carrier+6/sigma = 12
    with pytest.raises(BandwidthNotCovered):
        ms.packet_to_amplitudes(packet, narrow, MED)


def test_side_b_packet_fills_side_b(grid):
    q = GaussianPacket.moving(e0=1.0, x0=-30.0, sigma=3.0, k0_carrier=10.0, side="b")
    amps = ms.packet_to_amplitudes(q, grid, MED)
    assert np.all(amps.alpha_a == 0.0)
    assert np.abs(amps.alpha_b).max() > 0.0


@pytest.mark.parametrize("alpha", [np.complex128(1.0), np.ones((2, 4), dtype=complex)],
                         ids=["0-d", "2-D"])
def test_amplitudes_must_be_one_dimensional(alpha):
    with pytest.raises(ValueError, match="^amplitudes must be one-dimensional, got shape "):
        ms.ModeAmplitudes(alpha_a=alpha, alpha_b=np.zeros_like(alpha))


def test_amplitudes_keep_read_only_copies_of_the_arrays_given():
    grid = ms.ModeGrid(k_max=10.0, n_half=4)
    raw = np.ones(8, dtype=complex)
    amps = ms.ModeAmplitudes(alpha_a=raw, alpha_b=np.zeros(8))
    before = ms.expect_H_sys(amps, grid, MED)
    raw[1] = np.inf
    assert ms.expect_H_sys(amps, grid, MED) == before
    for alpha in (amps.alpha_a, amps.alpha_b):
        with pytest.raises(ValueError, match="read-only"):
            alpha[0] = 2.0


def test_amplitudes_compare_and_hash_by_identity():
    first = ms.ModeAmplitudes(alpha_a=np.ones(8), alpha_b=np.zeros(8))
    second = ms.ModeAmplitudes(alpha_a=np.ones(8), alpha_b=np.zeros(8))
    assert first == first
    assert first != second
    assert len({first, second}) == 2


@pytest.mark.parametrize("call", [
    lambda packet, grid, amps, hbar: ms.packet_to_amplitudes(packet, grid, MED, hbar=hbar),
    lambda packet, grid, amps, hbar: ms.expect_E_free(amps, grid, MED, 0.5, hbar=hbar),
    lambda packet, grid, amps, hbar: ms.expect_B_free(amps, grid, MED, 0.5, hbar=hbar),
    lambda packet, grid, amps, hbar: ms.expect_H_sys(amps, grid, MED, hbar=hbar),
    lambda packet, grid, amps, hbar: ms.expect_H_field_one_sided(amps, grid, MED, hbar=hbar),
    lambda packet, grid, amps, hbar: ms.expect_H_mirr_one_sided(amps, grid, MED, hbar=hbar),
    lambda packet, grid, amps, hbar: ms.expect_E_mirr_one_sided(amps, grid, MED, 0.5,
                                                                hbar=hbar),
    lambda packet, grid, amps, hbar: ms.expect_E_mirr_via_xi(amps, grid, MED, 0.5, hbar=hbar),
    lambda packet, grid, amps, hbar: oracle.hfield_mode_sum_check(amps, grid, 56.0, 8193,
                                                                  medium=MED, hbar=hbar),
], ids=["to-amplitudes", "E", "B", "H-sys", "H-field", "H-mirror", "E-mirror", "E-xi",
        "hfield-check"])
@pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
def test_mode_layer_refuses_hbar_that_is_not_positive_and_finite(packet, grid, amps, call,
                                                                 hbar):
    message = f"hbar must be positive and finite, got {hbar}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(packet, grid, amps, hbar)


@pytest.mark.parametrize("call", [
    lambda amps, grid: ms.expect_E_free(amps, grid, MED, np.linspace(-1.0, 1.0, 5)),
    lambda amps, grid: ms.expect_B_free(amps, grid, MED, 0.5),
    ms.xi_transform,
    ms.symmetric_transform,
    lambda amps, grid: ms.expect_H_sys(amps, grid, MED),
    lambda amps, grid: ms.expect_H_field_one_sided(amps, grid, MED),
    lambda amps, grid: ms.expect_H_mirr_one_sided(amps, grid, MED),
    lambda amps, grid: ms.expect_E_mirr_one_sided(amps, grid, MED, 0.5),
    lambda amps, grid: ms.expect_E_mirr_via_xi(amps, grid, MED, 0.5),
    lambda amps, grid: ms.evolve_amplitudes(amps, grid, MED, 1.0),
], ids=["E", "B", "xi", "symmetric", "H-sys", "H-field", "H-mirror", "E-mirror", "E-xi",
        "evolve"])
@pytest.mark.parametrize("n_modes", [1, 6])
def test_amplitudes_that_do_not_fit_the_grid_are_refused(call, n_modes):
    # One amplitude would otherwise be broadcast over all 8 modes.
    grid = ms.ModeGrid(k_max=10.0, n_half=4)
    alpha = np.ones(n_modes, dtype=complex)
    amps = ms.ModeAmplitudes(alpha_a=alpha, alpha_b=np.zeros_like(alpha))
    with pytest.raises(ValueError, match=f"^amplitudes have {n_modes} modes, the grid has 8$"):
        call(amps, grid)


@pytest.mark.parametrize("call", [
    lambda amps, grid: ms.expect_E_free(amps, grid, MED, 0.5, side="a"),
    lambda amps, grid: ms.expect_B_free(amps, grid, MED, 0.5, side="a"),
    lambda amps, grid: ms.xi_transform(amps, grid, side="a"),
    lambda amps, grid: ms.symmetric_transform(amps, grid, side="a"),
    lambda amps, grid: ms.expect_H_field_one_sided(amps, grid, MED, side="a"),
    lambda amps, grid: ms.expect_H_mirr_one_sided(amps, grid, MED, side="a"),
    lambda amps, grid: ms.expect_E_mirr_one_sided(amps, grid, MED, 0.5, side="a"),
    lambda amps, grid: ms.expect_E_mirr_via_xi(amps, grid, MED, 0.5, side="a"),
    lambda amps, grid: oracle.hfield_mode_sum_check(amps, grid, 56.0, 8193, side="a"),
    lambda amps, grid: ms.ModeGrid.for_packet(
        GaussianPacket.moving(e0=1.0, x0=30.0, sigma=3.0, k0_carrier=-10.0), n_modes=4096),
], ids=["E", "B", "xi", "symmetric", "H-field", "H-mirror", "E-mirror", "E-xi",
        "hfield-check", "for-packet"])
def test_observables_read_copy_a_and_take_no_side_or_mode_count(grid, amps, call):
    with pytest.raises(TypeError):
        call(amps, grid)
    assert not hasattr(amps, "side")


# ------------------------------------------------------------- expectation values

def test_expect_e_free_vacuum_is_zero(grid):
    vac = ms.ModeAmplitudes.vacuum(grid)
    assert ms.expect_E_free(vac, grid, MED, 0.7) == 0.0


def test_expect_e_free_single_mode_periodicity(grid):
    alpha = np.zeros(grid.k.size, dtype=complex)
    j = grid.n_half + 100
    alpha[j] = 1.5 + 0.5j
    amps = ms.ModeAmplitudes(alpha_a=alpha, alpha_b=np.zeros_like(alpha))
    k_mode = grid.k[j]
    x0 = 0.3
    v1 = ms.expect_E_free(amps, grid, MED, x0)
    v2 = ms.expect_E_free(amps, grid, MED, x0 + 2.0 * math.pi / k_mode)
    assert v1 == pytest.approx(v2, rel=1e-9)


def test_xi_transform_cases(grid):
    f = 0.8 - 0.2j
    alpha = np.zeros(grid.k.size, dtype=complex)
    j_pos = grid.n_half + 50
    j_neg = grid.n_half - 51  # the mirror index of j_pos
    assert grid.k[j_neg] == pytest.approx(-grid.k[j_pos])
    alpha[j_pos] = f
    alpha[j_neg] = -f
    amps = ms.ModeAmplitudes(alpha_a=alpha, alpha_b=np.zeros_like(alpha))
    xi = ms.xi_transform(amps, grid)
    assert xi[50] == pytest.approx(math.sqrt(2.0) * f, rel=1e-12)

    alpha[j_neg] = +f  # symmetric input
    amps = ms.ModeAmplitudes(alpha_a=alpha, alpha_b=np.zeros_like(alpha))
    assert np.abs(ms.xi_transform(amps, grid)).max() == 0.0


def test_xi_parseval_for_one_sided_packet(grid, amps):
    xi = ms.xi_transform(amps, grid)
    total = np.sum(np.abs(amps.alpha_a) ** 2)
    assert np.sum(np.abs(xi) ** 2) == pytest.approx(0.5 * total, rel=1e-10)


def test_split_unitarity_for_random_amplitudes(rng, grid):
    alpha = rng.normal(size=grid.k.size) + 1j * rng.normal(size=grid.k.size)
    amps = ms.ModeAmplitudes(alpha_a=alpha, alpha_b=np.zeros_like(alpha))
    xi = ms.xi_transform(amps, grid)
    sym = ms.symmetric_transform(amps, grid)
    assert np.sum(np.abs(xi) ** 2) + np.sum(np.abs(sym) ** 2) == pytest.approx(
        np.sum(np.abs(alpha) ** 2), rel=1e-12)


# ------------------------------------------------------------- energies

def test_h_sys_vacuum_and_quadratic_scaling(grid, amps):
    assert ms.expect_H_sys(ms.ModeAmplitudes.vacuum(grid), grid, MED) == 0.0
    base = ms.expect_H_sys(amps, grid, MED)
    scaled = ms.ModeAmplitudes(alpha_a=3.0 * amps.alpha_a, alpha_b=amps.alpha_b)
    assert ms.expect_H_sys(scaled, grid, MED) == pytest.approx(9.0 * base, rel=1e-12)


def test_h_sys_narrowband_energy(packet, grid, amps):
    energy = ms.expect_H_sys(amps, grid, MED)
    omega_carrier = abs(packet.k0_carrier) * MED.c
    norm = np.sum(np.abs(amps.alpha_a) ** 2) * grid.dk
    bandwidth_over_carrier = (1.0 / packet.sigma) / abs(packet.k0_carrier)
    assert abs(energy - omega_carrier * norm) / energy < bandwidth_over_carrier


def test_energy_split_half_for_one_sided_packet(grid, amps):
    ratio = ms.expect_H_field_one_sided(amps, grid, MED) / ms.expect_H_sys(amps, grid, MED)
    assert ratio == pytest.approx(0.5, abs=1e-3)


def test_energy_split_pure_parity_cases(grid):
    anti = bump_amplitudes(grid, antisymmetric=True)
    ratio = ms.expect_H_field_one_sided(anti, grid, MED) / ms.expect_H_sys(anti, grid, MED)
    assert ratio == pytest.approx(1.0, abs=1e-12)
    sym = bump_amplitudes(grid, antisymmetric=False)
    assert ms.expect_H_field_one_sided(sym, grid, MED) == 0.0


def test_field_energy_never_exceeds_system_energy(rng, grid):
    for _ in range(10):
        alpha = rng.normal(size=grid.k.size) + 1j * rng.normal(size=grid.k.size)
        amps = ms.ModeAmplitudes(alpha_a=alpha, alpha_b=np.zeros_like(alpha))
        h_field = ms.expect_H_field_one_sided(amps, grid, MED)
        h_sys = ms.expect_H_sys(amps, grid, MED)
        assert h_field <= h_sys * (1.0 + 1e-12)


def test_mirror_energy_is_difference(grid, amps):
    h_sys = ms.expect_H_sys(amps, grid, MED)
    h_field = ms.expect_H_field_one_sided(amps, grid, MED)
    assert ms.expect_H_mirr_one_sided(amps, grid, MED) == pytest.approx(
        h_sys - h_field, rel=1e-12)


def test_one_sided_energy_rejects_two_sided_input(grid, amps):
    both = ms.ModeAmplitudes(alpha_a=amps.alpha_a, alpha_b=amps.alpha_a)
    with pytest.raises(ValueError, match="^one-sided energy requires empty side b$"):
        ms.expect_H_field_one_sided(both, grid, MED)


def test_grid_refinement_convergence(packet):
    energies = []
    k_max = ms.ModeGrid.for_packet(packet).k_max
    for n_half in (2048, 4096):
        grid = ms.ModeGrid(k_max=k_max, n_half=n_half)
        amps = ms.packet_to_amplitudes(packet, grid, MED)
        energies.append(ms.expect_H_sys(amps, grid, MED))
    assert abs(energies[1] - energies[0]) / abs(energies[1]) < 1e-6


def test_free_evolution_preserves_energies(grid, amps):
    h_sys_0 = ms.expect_H_sys(amps, grid, MED)
    h_field_0 = ms.expect_H_field_one_sided(amps, grid, MED)
    evolved = ms.evolve_amplitudes(amps, grid, MED, t=4.2)
    assert ms.expect_H_sys(evolved, grid, MED) == pytest.approx(h_sys_0, rel=1e-12)
    assert ms.expect_H_field_one_sided(evolved, grid, MED) == pytest.approx(
        h_field_0, rel=1e-12)


def test_evolved_amplitudes_match_classical_propagation(packet, grid, amps):
    t = 1.9
    x = np.linspace(10.0, 50.0, 801)
    evolved = ms.evolve_amplitudes(amps, grid, MED, t)
    reference, _ = free_field_1d(packet, x, t, MED)
    assert np.abs(ms.expect_E_free(evolved, grid, MED, x) - reference).max() \
        < 1e-6 * packet.e0


# ------------------------------------------------------------- boundary field

def test_e_mirr_vanishes_at_surface_and_behind(grid, amps):
    assert ms.expect_E_mirr_one_sided(amps, grid, MED, 0.0) == 0.0
    behind = ms.expect_E_mirr_one_sided(amps, grid, MED, np.array([-3.0, -0.5]))
    assert np.all(behind == 0.0)


def test_e_mirr_dual_route_identity(grid, amps):
    x = np.linspace(0.0, 50.0, 501)
    difference_form = ms.expect_E_mirr_one_sided(amps, grid, MED, x)
    xi_form = ms.expect_E_mirr_via_xi(amps, grid, MED, x)
    scale = np.abs(difference_form).max()
    assert np.abs(difference_form - xi_form).max() <= 1e-12 * scale


def test_e_mirr_matches_classical_image_construction(packet, grid, amps):
    x = np.linspace(0.0, 50.0, 501)
    mode_route = ms.expect_E_mirr_one_sided(amps, grid, MED, x)
    classical_route, _ = mirror_field_1d_perfect([packet], x, 0.0, MED)
    assert np.abs(mode_route - classical_route / math.sqrt(2.0)).max() \
        < 1e-6 * packet.e0


# ------------------------------------------------------------- chirp-z field sum

def _random_weights(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def _linspace_x(rng, n, descending, with_zero):
    """n samples from np.linspace at a random step, across x = 0 or off-centre."""
    dx = rng.uniform(0.005, 0.05)
    first = -dx * rng.integers(1, n - 1) if with_zero else rng.uniform(2.0, 40.0)
    x = np.linspace(first, first + dx * (n - 1), n)
    return -x if descending else x  # -x is np.linspace(-first, -last, n) too


@pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
@pytest.mark.parametrize("n", [4097, 3000], ids=["odd", "even"])
@pytest.mark.parametrize("with_zero", [True, False], ids=["with-zero", "off-centre"])
def test_chirp_field_sum_matches_dense(monkeypatch, descending, n, with_zero):
    rng = np.random.default_rng([n, descending, with_zero])
    grid = ms.ModeGrid(k_max=rng.uniform(5.0, 15.0), n_half=512)
    weights = _random_weights(rng, grid.k.size)
    x = _linspace_x(rng, n, descending, with_zero)
    assert (x.min() < 0.0 < x.max()) == with_zero
    ref = ms._dense_field_sum(weights, grid.k, x)
    monkeypatch.setattr(ms, "_dense_field_sum", None)  # the chirp path must serve
    got = ms._field_sum(weights, grid, x)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _chirp_out_of_place(scale, m):
    """The chirp with both factors made as new arrays."""
    mantissa, exponent = math.frexp(scale)
    head = math.ldexp(round(math.ldexp(mantissa, 20)), exponent - 20)
    m2 = m * m
    return np.exp(1j * (head * m2)) * np.exp(1j * ((scale - head) * m2))


def _chirp_field_sum_out_of_place(weights, grid, x_first, x_last, nx):
    """The chirp-z field sum with u padded by np.fft.fft(u, size) and every
    transform and product made as a new array."""
    n, dk = grid.n_half, grid.dk
    nk = 2 * n + 1
    dx = (x_last - x_first) / (nx - 1)
    x_c = 0.5 * x_first + 0.5 * x_last
    a = dk * dx
    p = np.arange(nk) - 0.5 * (nk - 1)
    q = np.arange(nx) - 0.5 * (nx - 1)
    u = np.concatenate([weights[:n], [0.0], weights[n:]])
    u *= np.exp(1j * (dk * x_c) * p) * _chirp_out_of_place(0.5 * a, p)
    lags = np.arange(1 - nk, nx)
    size = 1 << (nx + nk - 2).bit_length()
    kernel = np.zeros(size, dtype=complex)
    kernel[lags % size] = _chirp_out_of_place(-0.5 * a, lags + 0.5 * (nk - nx))
    conv = np.fft.ifft(np.fft.fft(u, size) * np.fft.fft(kernel))[:nx]
    return 2.0 * (_chirp_out_of_place(0.5 * a, q) * conv).real


@pytest.mark.parametrize("grid_args, x", [
    (None, np.linspace(-56.0, 56.0, 8193)),
    (None, -np.linspace(-56.0, 56.0, 8193)),
    (None, np.linspace(7.5, 7.5 + 0.02 * 2999, 3000)),
    ((9.0, 150), np.linspace(-4.0, 4.0, 33)),
], ids=["suite", "suite-mirrored", "even-off-centre-x", "short"])
def test_chirp_field_sum_equals_the_out_of_place_form(monkeypatch, rng, grid, grid_args, x):
    # Through _field_sum, so a descending x is read back from its ascending lattice.
    grid = grid if grid_args is None else ms.ModeGrid(*grid_args)
    weights = _random_weights(rng, grid.k.size)
    lo, hi = sorted((x[0], x[-1]))
    ref = _chirp_field_sum_out_of_place(weights, grid, lo, hi, x.size)
    monkeypatch.setattr(ms, "_dense_field_sum", None)
    np.testing.assert_array_equal(ms._field_sum(weights, grid, x),
                                  ref if x[0] < x[-1] else ref[::-1])


def test_cached_chirp_kernel_gives_the_inline_field_sum(rng, grid):
    # Like the energy check's E and B sums: two weight sets on one pair of
    # lattices, the second served by the cached kernel.
    x_first, x_last, nx = -56.0, 56.0, 8193
    ms._chirp_kernel.cache_clear()
    for _ in range(2):
        weights = _random_weights(rng, grid.k.size)
        np.testing.assert_array_equal(
            ms._chirp_field_sum(weights, grid, x_first, x_last, nx),
            _chirp_field_sum_out_of_place(weights, grid, x_first, x_last, nx))
    info = ms._chirp_kernel.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    kernel = ms._chirp_kernel(grid.dk * (x_last - x_first) / (nx - 1), grid.k.size + 1, nx)
    with pytest.raises(ValueError):
        kernel[0] = 0.0


@pytest.mark.parametrize("x", [
    0.7,
    np.linspace(-5.0, 5.0, 200).reshape(10, 20),
    np.geomspace(0.1, 50.0, 500),
    np.linspace(-5.0, 5.0, 500) + 1e-6 * np.sin(np.arange(500)),
    np.linspace(-5.0, 5.0, 20),
    0.02 * np.arange(100) + 7.5,
    np.full(64, 3.0),
], ids=["scalar", "2-D", "non-uniform", "jittered", "short", "uniform-not-linspace",
        "constant"])
def test_field_sum_dense_fallback(monkeypatch, rng, grid, x):
    weights = _random_weights(rng, grid.k.size)
    ref = ms._dense_field_sum(weights, grid.k, x)
    monkeypatch.setattr(ms, "_chirp_field_sum", None)  # the dense path must serve
    got = ms._field_sum(weights, grid, x)
    assert np.shape(got) == np.shape(x)
    np.testing.assert_array_equal(got, ref)


def test_field_sum_near_the_largest_float_is_finite(rng):
    # The centre of these ends is taken as half of each: their sum overflows.
    # The phases k x keep no digits below 2 pi here, so the chirp-z and dense
    # sums share only the bound 2 sum |w|.
    grid = ms.ModeGrid(k_max=0.5, n_half=16)
    weights = _random_weights(rng, grid.k.size)
    x = np.linspace(1e308, 1.7e308, 64)
    bound = 2.0 * np.abs(weights).sum()
    for got in (ms._field_sum(weights, grid, x), ms._dense_field_sum(weights, grid.k, x)):
        assert np.all(np.abs(got) <= bound)


@pytest.mark.parametrize("call", [
    lambda amps, grid: ms.expect_E_free(amps, grid, MED, np.array([0.5, np.nan])),
    lambda amps, grid: ms.expect_B_free(amps, grid, MED, np.inf),
    lambda amps, grid: ms.expect_E_mirr_one_sided(amps, grid, MED, [np.nan, 1.0]),
    lambda amps, grid: ms.expect_E_mirr_via_xi(amps, grid, MED, np.array([-np.inf, 0.0])),
], ids=["E-nan", "B-inf", "E-mirror-nan", "E-xi-minus-inf"])
def test_field_sums_reject_x_that_is_not_finite(grid, amps, call):
    with pytest.raises(ValueError, match="^x must be finite$"):
        call(amps, grid)
