"""Independent numerical re-derivations of the closed-form rates.

Three cross-checks live here: a Gauss-Legendre quadrature of the angular
integral behind the decay rate, a complex-arithmetic evaluation of the
level shift, and a second, emission-route quadrature built from the vector
dipole amplitudes. A fourth check compares the standing-wave mode energy
against a spatial quadrature of the field energy density.

Per Gauss-Legendre order, a route's table (cos(z s) for the angular route,
exp(-i z s) for the emission route) depends on neither the mirror nor the
dipole orientation mu, so the suite builds it once per route, order and
chunk of z. The decay rate is linear in mu, mu Gamma_perp + (1 - mu)
Gamma_par (Wylie & Sipe 1984), so each mirror's reflection terms are
formed and integrated once per z, two integrals for the angular route and
three for the emission route, and each mu only weighs those integrals.
The routes run one after the other, over fixed chunks of z, one order at
a time, each in a few buffers it reuses, so only one chunk's table is
alive at a time and memory does not grow with the z grid. Each route forms
its own terms from its own table, so the routes stay independent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import modespace, rates
from .core import GaussianPacket, Medium, MirrorSpec
from .errors import QuadratureNotConverged, ZeroDistance

# Azimuths of the emission route's periodic trapezoid.
_N_PHI = 32
# z values per quadrature chunk. A multiple of 4: numpy's OpenBLAS dgemv
# sums rows in groups of four and takes tail rows with another kernel, so
# only chunks of 4k rows give every z the same sum as one whole-grid call.
_Z_CHUNK = 128
# Newton steps allowed for the Gauss-Legendre nodes; each order tried from
# 16 to 8192 needs at most 4.
_NEWTON_STEPS = 10


def _legendre(n: int, x: np.ndarray):
    """P_{n-1}(x) and P_n(x), by j P_j = (2j - 1) x P_{j-1} - (j - 1) P_{j-2}."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p_prev, p


@functools.cache
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes, ascending, and weights on [-1, 1].

    Newton's method on P_n from x_k = cos(pi (k + 3/4) / (n + 1/2)), for
    all the non-negative nodes at once, with P_n' = n (x P_n - P_{n-1}) /
    (x**2 - 1), until the largest step is at the rounding level; the weights
    are 2 / ((1 - x**2) P_n'**2) at the converged nodes (Hale & Townsend
    2013). The negative half is the mirror image, so the nodes are exactly
    antisymmetric and the weights exactly symmetric; an odd order's middle
    node is 0. This takes O(n) memory, where the companion-matrix
    eigenproblem (Golub & Welsch 1969) takes O(n**2).
    """
    n = order
    x = np.cos(math.pi * (np.arange((n + 1) // 2) + 0.75) / (n + 0.5))
    if n % 2:
        x[-1] = 0.0  # P_n(0) = 0 exactly, so Newton keeps it
    for _ in range(_NEWTON_STEPS):
        p_prev, p = _legendre(n, x)
        step = p * (x * x - 1.0) / (n * (x * p - p_prev))
        x = x - step
        if np.abs(step).max() <= 4.0 * np.finfo(float).eps:
            break
    else:
        raise QuadratureNotConverged(
            f"Gauss-Legendre nodes of order {n} not converged in {_NEWTON_STEPS} Newton steps")
    p_prev, p = _legendre(n, x)
    w = 2.0 * (1.0 - x * x) / (n * (x * p - p_prev)) ** 2
    half = n // 2
    return np.concatenate((-x[:half], x[::-1])), np.concatenate((w[:half], w[::-1]))


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre rule on [-1, 1] with a convergence tolerance."""

    order: int = 64
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.order < 16:
            raise ValueError("quadrature order must be at least 16")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")


def _angular_route(column: np.ndarray, order: int, cases, mu_values):
    """The angular integral at one order: the decay-rate ratio per z for
    every case and then every mu.

    ``s`` is the cosine of the angle between the wave vector and the mirror
    normal. The perpendicular dipole component weighs (1 - s**2) and picks
    up the interference cosine with a plus sign, the parallel component
    weighs (1 + s**2)/2 with a minus sign. A case's ``other_ratio`` is
    t_other**2 / eta_other**2, the weight of light from the far side. The
    rate is linear in mu, so each case integrates its two components once
    and each mu weighs the two integrals.
    """
    s, w = _gl_nodes(order)
    s_minus, s_plus = 1.0 - s**2, 1.0 + s**2
    trans_perp, trans_par = s_minus @ w, 0.5 * (s_plus @ w)
    cos_zs = np.multiply(column, s)
    np.cos(cos_zs, out=cos_zs)
    perp, par = np.empty_like(cos_zs), np.empty_like(cos_zs)
    values = []
    for r, eta_sq, other_ratio in cases:
        np.multiply(2.0 * r, cos_zs, out=par)  # the interference term
        np.add(1.0 + r**2, par, out=perp)
        np.multiply(perp, s_minus, out=perp)
        np.subtract(1.0 + r**2, par, out=par)
        np.multiply(0.5, par, out=par)
        np.multiply(par, s_plus, out=par)
        perp_w, par_w = perp @ w, par @ w
        for mu in mu_values:
            values.append(0.75 * ((mu * perp_w + (1.0 - mu) * par_w) / eta_sq
                                  + other_ratio * (mu * trans_perp + (1.0 - mu) * trans_par)))
    return values


def _emission_route(column: np.ndarray, order: int, cases, mu_values):
    """The emission route at one order: the decay-rate ratio per z for
    every case and then every mu.

    Built from the explicit dipole vectors of atom and image, sqrt(mu)
    (1 + r P) and sqrt(1 - mu) (1 - r P) with P = exp(-i z s): the squared
    projection orthogonal to the propagation direction, summed over the two
    polarisations, equals |u|**2 - |u . k_hat|**2. The dipole has no
    y-component, so only the x and z parts of k_hat enter, and the phi sum
    needs only the sums of kx**2, kz**2 and kx kz over the _N_PHI azimuths.
    Summed over phi, the atom-image term is mu |1 + r P|**2 (N - sum kx**2)
    + (1 - mu) |1 - r P|**2 (N - sum kz**2) - sqrt(mu (1 - mu)) Re((1 + r P)
    conj(1 - r P)) 2 sum kx kz, so each case integrates its three planes
    once, against weights that hold the azimuth sums, and each mu weighs
    the three integrals. Light from the far side meets the atom alone.
    """
    s, w = _gl_nodes(order)
    phi = np.arange(_N_PHI) * (2.0 * math.pi / _N_PHI)
    kx = np.broadcast_to(s[:, None], (s.size, _N_PHI))
    kz = np.sqrt(np.clip(1.0 - s**2, 0.0, None))[:, None] * np.sin(phi)[None, :]
    w_perp = w * (_N_PHI - (kx * kx).sum(axis=1))
    w_par = w * (_N_PHI - (kz * kz).sum(axis=1))
    w_cross = w * (2.0 * (kx * kz).sum(axis=1))
    alone_perp, alone_par, alone_cross = w_perp.sum(), w_par.sum(), w_cross.sum()
    phase = np.multiply(-1j * column, s)
    np.exp(phase, out=phase)
    # Five real planes: the complex 1 + r P and 1 - r P, then one plane for
    # each squared modulus and the cross term in turn.
    scratch = np.empty((5,) + phase.shape)
    plus, minus = scratch[:4].reshape(2, -1).view(complex).reshape((2,) + phase.shape)
    plane = scratch[4]
    values = []
    for r, eta_sq, other_ratio in cases:
        np.multiply(r, phase, out=minus)
        np.add(1.0, minus, out=plus)
        np.subtract(1.0, minus, out=minus)
        np.square(np.abs(plus, out=plane), out=plane)
        image_perp = plane @ w_perp
        np.square(np.abs(minus, out=plane), out=plane)
        image_par = plane @ w_par
        np.multiply(plus, np.conjugate(minus, out=minus), out=minus)
        np.copyto(plane, minus.real)
        image_cross = plane @ w_cross
        for mu in mu_values:
            d_cross = math.sqrt(mu * (1.0 - mu))
            f_image = mu * image_perp + (1.0 - mu) * image_par - d_cross * image_cross
            f_alone = mu * alone_perp + (1.0 - mu) * alone_par - d_cross * alone_cross
            values.append(3.0 / (8.0 * math.pi) * ((f_image / eta_sq + other_ratio * f_alone)
                                                   * (2.0 * math.pi / _N_PHI)))
    return values


_ROUTES = {  # the route at one order, and its message when it has not converged
    "angular": (_angular_route,
                "order {coarse} -> {fine} moved the result by {moved:.3e} at z={z}"),
    "emission": (_emission_route, "emission-route quadrature not converged at z={z}"),
}


def _per_z(z: np.ndarray, values: np.ndarray):
    """Flat per-z values in the shape of z; a float for scalar z."""
    return float(values[0]) if z.ndim == 0 else values.reshape(z.shape)


def _quadratures(z, cases, mu_values, quad: QuadratureSpec,
                 routes) -> dict[str, list[np.ndarray]]:
    """Each route's decay-rate ratio per z, for every case and then every mu.

    A case is (r, eta**2, t_other**2 / eta_other**2) of the atom's side.
    Route by route, the order-n and order-2n rules run over chunks of
    _Z_CHUNK z values, each chunk with its own tables and buffers, and fill
    one (values, z) array per order; then the first value that doubling the
    order moved by more than the tolerance raises QuadratureNotConverged,
    naming its first such z, before the next route runs.
    """
    z = rates._finite_z(z)
    if np.any(z < 0.0):
        raise ValueError("z must be non-negative")
    flat = z.reshape(-1)
    n_values = len(cases) * len(mu_values)
    found = {}
    for route in routes:
        build, message = _ROUTES[route]
        coarse_values, fine_values = np.empty((2, n_values, flat.size))
        for lo in range(0, flat.size, _Z_CHUNK):
            column = flat[lo:lo + _Z_CHUNK, None]
            coarse_values[:, lo:lo + _Z_CHUNK] = build(column, quad.order, cases, mu_values)
            fine_values[:, lo:lo + _Z_CHUNK] = build(column, 2 * quad.order, cases, mu_values)
        found[route] = []
        for coarse, fine in zip(coarse_values, fine_values):
            moved = np.abs(fine - coarse)
            bad = np.flatnonzero(moved > quad.tolerance * np.maximum(1.0, np.abs(fine)))
            if bad.size:
                raise QuadratureNotConverged(message.format(
                    coarse=quad.order, fine=2 * quad.order, moved=float(moved[bad[0]]),
                    z=float(flat[bad[0]])))
            found[route].append(_per_z(z, fine))
    return found


def angular_bracket_quadrature(z, r_a: float, eta_a_sq: float,
                               tb2_over_etab2: float, mu_orient: float,
                               quad: QuadratureSpec = QuadratureSpec()):
    """Decay-rate ratio by direct quadrature of the angular integral.

    ``z`` is a scalar (float result) or an array (result of its shape).
    Doubles the quadrature order and raises QuadratureNotConverged, naming
    the first such z in grid order, when the two results differ by more
    than the requested tolerance.
    """
    return _quadratures(z, [(r_a, eta_a_sq, tb2_over_etab2)], [mu_orient], quad,
                        ["angular"])["angular"][0]


def levelshift_contour_eval(z, mu_orient: float, r_a: float, eta_a_sq: float):
    """Level-shift ratio from the contour-integration form.

    Evaluates the imaginary part of the complex expression directly, which
    is an algebraically independent route to the same analytic function as
    the trigonometric closed form. ``z`` is a scalar or an array.
    """
    z = rates._finite_z(z)
    if np.any(z <= 0.0):
        raise ZeroDistance("level shift requires z > 0")
    w = np.exp(1j * z)
    expr = (1j / z) * w * (1.0 - mu_orient) - w * (1.0 / z**2 + 1j / z**3) * (
        1.0 + mu_orient
    )
    return _per_z(z, np.ravel(3.0 * r_a / (2.0 * eta_a_sq) * expr.imag))


def reset_rate_quadrature(z, mirror: MirrorSpec, mu_orient: float,
                          quad: QuadratureSpec = QuadratureSpec(),
                          side: str = "a"):
    """Decay-rate ratio assembled from the photon-emission route.

    Integrates the polarisation-summed emission amplitudes over the full
    solid angle (azimuth by periodic trapezoid, polar cosine by
    Gauss-Legendre). ``z`` is a scalar or an array. Must agree with
    angular_bracket_quadrature.
    """
    return _quadratures(z, [rates._side_case(mirror, side)], [mu_orient], quad,
                        ["emission"])["emission"][0]


def hfield_mode_sum_check(amps: modespace.ModeAmplitudes, grid: modespace.ModeGrid,
                          x_grid: np.ndarray, medium=None, hbar: float = 1.0,
                          side: str = "a") -> dict:
    """Compare the standing-wave mode energy against a spatial quadrature.

    The spatial route integrates the energy density of the boundary-matched
    field over the symmetric doubled domain (the squared field is even, so
    half the full-line integral equals the half-space energy). Requires a
    uniform, ascending x_grid with 4m+1 points, symmetric about 0; any
    other grid raises ValueError. In front of a perfect mirror the field is
    the free field minus its mirror image, so the free E and B fields are
    summed once each, on x_grid, and read at -x_grid as those sums reversed.
    """
    medium = medium if medium is not None else Medium()
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.ndim != 1 or x_grid.size < 5 or x_grid.size % 4 != 1:
        raise ValueError("x_grid needs 4m+1 points")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the test
        dx = x_grid[1] - x_grid[0]
        suitable = (dx > 0.0 and np.abs(np.diff(x_grid) - dx).max() <= 1e-9 * dx
                    and np.abs(x_grid + x_grid[::-1]).max() <= 1e-12 * np.abs(x_grid).max())
    if not suitable:
        raise ValueError("x_grid must be uniform, ascending and symmetric about 0")
    mode_sum = modespace.expect_H_field_one_sided(amps, grid, medium,
                                                  hbar=hbar, side=side)
    e_free = modespace.expect_E_free(amps, grid, medium, x_grid, side=side, hbar=hbar)
    b_free = modespace.expect_B_free(amps, grid, medium, x_grid, side=side, hbar=hbar)
    e_odd = (e_free - e_free[::-1]) / math.sqrt(2.0)
    b_even = (b_free + b_free[::-1]) / math.sqrt(2.0)
    density = medium.epsilon * e_odd**2 + b_even**2 / medium.mu_p
    # A/2 times the half-line integral, written as A/4 times the full line.
    spatial = 0.25 * grid.area * modespace.simpson_with_check(density, dx)
    scale = max(abs(mode_sum), abs(spatial))
    rel_gap = abs(mode_sum - spatial) / scale if scale > 0.0 else 0.0
    return {"mode_sum": mode_sum, "spatial": spatial, "rel_gap": rel_gap}


# The checked z grid, mirrors (on side a) and dipole orientations.
_Z = 0.1 * np.arange(1, 501)
_MIRRORS = (
    MirrorSpec.perfect(),
    MirrorSpec.symmetric(r=math.sqrt(0.5), t=math.sqrt(0.5)),
    MirrorSpec.symmetric(r=0.3, t=0.5),
)
_MU = (0.0, 0.5, 1.0)


def _worst_deviation(pairs, scale_by_both: bool = False) -> float:
    """Worst deviation of two routes over every pair and z.

    ``pairs`` yields the (oracle, reference) arrays of each mirror and mu.
    The deviation is |oracle - reference| over |reference| (over the
    larger of the two when ``scale_by_both``); NaN if any deviation is NaN.
    """
    worst = []
    for got, reference in pairs:
        scale = np.abs(reference)
        if scale_by_both:
            scale = np.maximum(scale, np.abs(got))
        worst.append(np.max(np.abs(got - reference) / np.maximum(scale, 1e-12)))
    return float(np.max(worst))


def _report(name: str, grid: dict, max_rel_dev: float, tolerance: float) -> dict:
    return {"name": name, "grid": dict(grid), "max_rel_dev": float(max_rel_dev),
            "tolerance": float(tolerance), "pass": bool(max_rel_dev < tolerance)}


def run_default_checks(quad: QuadratureSpec = QuadratureSpec(),
                       tol_gamma: float = 1e-8, tol_delta: float = 1e-8,
                       tol_route: float = 1e-10,
                       tol_energy: float = 1e-3) -> list[dict]:
    """Full verification suite, one report dict per check.

    In order: the angular quadrature against the closed-form decay rate,
    the contour form against the closed-form level shift, the emission
    route against the angular one, and the mode-sum field energy of a test
    packet against its spatial quadrature. The two decay-rate checks share
    one run of each quadrature route.
    """
    cases = [rates._side_case(m, "a") for m in _MIRRORS]
    pairs = [(m, mu) for m in _MIRRORS for mu in _MU]
    found = _quadratures(_Z, cases, _MU, quad, ["angular", "emission"])
    gamma = _worst_deviation((got, rates.gamma_mirr(m, mu, _Z))
                             for (m, mu), got in zip(pairs, found["angular"]))
    delta = _worst_deviation(((levelshift_contour_eval(_Z, mu, r, eta_sq),
                               rates.delta_mirr(m, mu, _Z))
                              for m, (r, eta_sq, _) in zip(_MIRRORS, cases) for mu in _MU),
                             scale_by_both=True)
    route = _worst_deviation(zip(found["emission"], found["angular"]))

    medium = Medium()
    packet = GaussianPacket.moving(e0=1.0, x0=30.0, sigma=3.0, k0_carrier=-10.0)
    grid = modespace.ModeGrid.for_packet(packet, n_modes=4096)
    x_grid = np.linspace(-56.0, 56.0, 8193)
    energy = hfield_mode_sum_check(modespace.packet_to_amplitudes(packet, grid, medium),
                                   grid, x_grid, medium=medium)

    z_grid = {"n_points": _Z.size, "z_min": float(_Z[0]), "z_max": float(_Z[-1])}
    return [
        _report("gamma_angular_quadrature", z_grid, gamma, tol_gamma),
        _report("delta_contour_form", z_grid, delta, tol_delta),
        _report("decay_route_consistency", z_grid, route, tol_route),
        _report("field_energy_mode_sum", {"n_modes": grid.k.size, "n_x": x_grid.size},
                energy["rel_gap"], tol_energy),
    ]
