import math
import re

import numpy as np
import pytest

from mirrorfield import modespace as ms
from mirrorfield.classical import free_field_1d, mirror_field_1d_perfect
from mirrorfield.core import GaussianPacket, Medium
from mirrorfield.errors import BandwidthNotCovered

MED = Medium()


@pytest.fixture(scope="module")
def packet():
    return GaussianPacket.moving(e0=1.0, x0=30.0, sigma=3.0, k0_carrier=-10.0)


@pytest.fixture(scope="module")
def grid(packet):
    return ms.ModeGrid.for_packet(packet, n_modes=4096)


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


def test_grid_rejects_zero_mode():
    with pytest.raises(ValueError):
        ms.ModeGrid(k=np.array([-1.0, 0.0, 1.0]), dk=1.0)


def test_grid_rejects_asymmetric():
    with pytest.raises(ValueError):
        ms.ModeGrid(k=np.array([-2.0, 1.0]), dk=1.0)


def _with(values, at, value):
    out = np.array(values, dtype=float)
    out[at] = value
    return out


_K = np.array([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0])
_SYMMETRY, _SPACING = "grid must be symmetric under k -> -k", "grid spacing is not uniform"


@pytest.mark.parametrize("make, message", [
    (lambda: ms.ModeGrid.symmetric(k_max=math.nan, n_half=4), _SYMMETRY),
    (lambda: ms.ModeGrid(k=_with(_K, 5, math.nan), dk=1.0), _SYMMETRY),
    (lambda: ms.ModeGrid(k=_with(_K, 1, math.nan), dk=1.0), _SYMMETRY),
    (lambda: ms.ModeGrid(k=_K, dk=math.nan), _SPACING),
    (lambda: ms.ModeGrid.symmetric(k_max=math.inf, n_half=4), _SPACING),
    (lambda: ms.ModeGrid(k=_with(_K, 7, math.inf), dk=1.0), _SYMMETRY),
    (lambda: ms.ModeGrid(k=_with(_K, 0, -math.inf), dk=1.0), _SYMMETRY),
    (lambda: ms.ModeGrid(k=_with(_with(_K, 0, -math.inf), 7, math.inf), dk=1.0), _SPACING),
    (lambda: ms.ModeGrid(k=_K, dk=math.inf), _SPACING),
], ids=["k_max-nan", "nan-k", "nan-negative-k", "nan-dk", "k_max-inf", "inf-end",
        "minus-inf-start", "plus-minus-inf-ends", "inf-dk"])
def test_grid_rejects_non_finite_values(make, message):
    # The check that fails is the one np.allclose's rule picks (an infinite
    # entry is close only to itself), with no RuntimeWarning from inf - inf.
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
    narrow = ms.ModeGrid.symmetric(k_max=11.0, n_half=256)  # carrier+6/sigma = 12
    with pytest.raises(BandwidthNotCovered):
        ms.packet_to_amplitudes(packet, narrow, MED)


def test_side_b_packet_fills_side_b(grid):
    q = GaussianPacket.moving(e0=1.0, x0=-30.0, sigma=3.0, k0_carrier=10.0, side="b")
    amps = ms.packet_to_amplitudes(q, grid, MED)
    assert np.all(amps.alpha_a == 0.0)
    assert np.abs(amps.alpha_b).max() > 0.0


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
    with pytest.raises(ValueError):
        ms.expect_H_field_one_sided(both, grid, MED)


def test_grid_refinement_convergence(packet):
    energies = []
    for n_modes in (4096, 8192):
        grid = ms.ModeGrid.for_packet(packet, n_modes=n_modes)
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


def _uniform_x(rng, n, descending, with_zero):
    """n samples at a random step; off-centre when they avoid x = 0."""
    dx = rng.uniform(0.005, 0.05)
    if with_zero:
        x = dx * (np.arange(n) - rng.integers(1, n - 1))
    else:
        x = rng.uniform(2.0, 40.0) + dx * np.arange(n)
    return -x if descending else x


@pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
@pytest.mark.parametrize("n", [4097, 3000], ids=["odd", "even"])
@pytest.mark.parametrize("with_zero", [True, False], ids=["with-zero", "off-centre"])
def test_chirp_field_sum_matches_dense(monkeypatch, descending, n, with_zero):
    rng = np.random.default_rng([n, descending, with_zero])
    grid = ms.ModeGrid.symmetric(k_max=rng.uniform(5.0, 15.0), n_half=512)
    weights = _random_weights(rng, grid.k.size)
    x = _uniform_x(rng, n, descending, with_zero)
    assert (0.0 in x) == with_zero
    ref = ms._dense_field_sum(weights, grid.k, x)
    monkeypatch.setattr(ms, "_dense_field_sum", None)  # the chirp path must serve
    got = ms._field_sum(weights, grid.k, x)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_chirp_field_sum_matches_dense_off_centre_k(monkeypatch, rng):
    # A full lattice away from k = 0, so the k centre does not vanish.
    k = 3.0 + 0.01 * np.arange(700)
    weights = _random_weights(rng, k.size)
    x = np.linspace(-20.0, 92.0, 8193)
    ref = ms._dense_field_sum(weights, k, x)
    monkeypatch.setattr(ms, "_dense_field_sum", None)
    got = ms._field_sum(weights, k, x)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _chirp_out_of_place(scale, m):
    """The chirp with both factors made as new arrays."""
    mantissa, exponent = math.frexp(scale)
    head = math.ldexp(round(math.ldexp(mantissa, 20)), exponent - 20)
    m2 = m * m
    return np.exp(1j * (head * m2)) * np.exp(1j * ((scale - head) * m2))


def _chirp_field_sum_out_of_place(weights, k_lattice, x_lattice):
    """The chirp-z field sum with u padded by np.fft.fft(u, size) and every
    transform and product made as a new array."""
    k_c, dk, k_index, nk = k_lattice
    x_c, dx, x_index, nx = x_lattice
    a = dk * dx
    p = np.arange(nk) - 0.5 * (nk - 1)
    q = np.arange(nx) - 0.5 * (nx - 1)
    u = np.zeros(nk, dtype=complex)
    np.add.at(u, k_index, weights)
    u *= np.exp(1j * (dk * x_c) * p) * _chirp_out_of_place(0.5 * a, p)
    lags = np.arange(1 - nk, nx)
    size = 1 << (nx + nk - 2).bit_length()
    kernel = np.zeros(size, dtype=complex)
    kernel[lags % size] = _chirp_out_of_place(-0.5 * a, lags + 0.5 * (nk - nx))
    conv = np.fft.ifft(np.fft.fft(u, size) * np.fft.fft(kernel))[:nx]
    out = np.exp(1j * k_c * (x_c + dx * q)) * _chirp_out_of_place(0.5 * a, q) * conv
    return 2.0 * out.real[x_index]


@pytest.mark.parametrize("k, x", [
    ("suite", np.linspace(-56.0, 56.0, 8193)),
    ("suite", -np.linspace(-56.0, 56.0, 8193)),
    (3.0 + 0.01 * np.arange(700), np.linspace(-20.0, 92.0, 8193)),
    ("suite", 0.02 * np.arange(3000) + 7.5),
    (np.linspace(-9.0, 9.0, 301), np.linspace(-4.0, 4.0, 33)),
], ids=["suite", "suite-mirrored", "off-centre-k", "even-off-centre-x", "short"])
def test_chirp_field_sum_equals_the_out_of_place_form(rng, grid, k, x):
    k = grid.k if isinstance(k, str) else k
    weights = _random_weights(rng, k.size)
    k_lattice, x_lattice = ms._lattice(k), ms._lattice(x)
    assert k_lattice is not None and x_lattice is not None
    np.testing.assert_array_equal(ms._chirp_field_sum(weights, k_lattice, x_lattice),
                                  _chirp_field_sum_out_of_place(weights, k_lattice, x_lattice))


def test_cached_chirp_kernel_gives_the_inline_field_sum(rng, grid):
    # Like the energy check's E and B sums: two weight sets on one pair of
    # lattices, the second served by the cached kernel.
    x = np.linspace(-56.0, 56.0, 8193)
    k_lattice, x_lattice = ms._lattice(grid.k), ms._lattice(x)
    ms._chirp_kernel.cache_clear()
    for _ in range(2):
        weights = _random_weights(rng, grid.k.size)
        np.testing.assert_array_equal(ms._chirp_field_sum(weights, k_lattice, x_lattice),
                                      _chirp_field_sum_out_of_place(weights, k_lattice, x_lattice))
    info = ms._chirp_kernel.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    kernel = ms._chirp_kernel(k_lattice[1] * x_lattice[1], k_lattice[3], x_lattice[3])
    with pytest.raises(ValueError):
        kernel[0] = 0.0


@pytest.mark.parametrize("x", [
    0.7,
    np.linspace(-5.0, 5.0, 200).reshape(10, 20),
    np.geomspace(0.1, 50.0, 500),
    np.linspace(-5.0, 5.0, 500) + 1e-6 * np.sin(np.arange(500)),
    np.linspace(-5.0, 5.0, 20),
], ids=["scalar", "2-D", "non-uniform", "jittered", "short"])
def test_field_sum_dense_fallback(monkeypatch, rng, grid, x):
    weights = _random_weights(rng, grid.k.size)
    ref = ms._dense_field_sum(weights, grid.k, x)
    monkeypatch.setattr(ms, "_chirp_field_sum", None)  # the dense path must serve
    got = ms._field_sum(weights, grid.k, x)
    assert np.shape(got) == np.shape(x)
    np.testing.assert_array_equal(got, ref)
