"""Independent numerical re-derivations of the closed-form rates.

Three cross-checks live here: a Gauss-Legendre quadrature of the angular
integral behind the decay rate, a complex-arithmetic evaluation of the
level shift, and a second, emission-route quadrature built from the vector
dipole amplitudes. A fourth check compares the standing-wave mode energy
against a spatial quadrature of the field energy density.

Per Gauss-Legendre order, a route's table (cos(z s) for the angular route;
exp(-i z s) and the azimuth sums for the emission route) depends on neither
the mirror nor the dipole orientation mu, so the suite builds it once per
route and order; each mirror's reflection products are then formed once for
all mu. The routes run one after the other, one order at a time, each in a
few buffers it reuses, so only one table is alive at a time. Each route
combines its own terms point by point, so the routes stay independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import modespace, rates
from .core import MirrorSpec
from .errors import QuadratureNotConverged, ZeroDistance

_leggauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _leggauss_cache:
        _leggauss_cache[order] = np.polynomial.legendre.leggauss(order)
    return _leggauss_cache[order]


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


@dataclass(frozen=True)
class OracleReport:
    """Per-point comparison of an oracle route against a closed form."""

    name: str
    z: np.ndarray
    oracle: np.ndarray
    closed_form: np.ndarray
    rel_dev: np.ndarray
    max_rel_dev: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_dev < self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "grid": {"n_points": int(self.z.size),
                     "z_min": float(self.z.min()),
                     "z_max": float(self.z.max())},
            "max_rel_dev": float(self.max_rel_dev),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
        }


def _angular_route(column: np.ndarray, order: int, cases, mu_values, n_phi: int):
    """The angular integral at one order: the decay-rate ratio per z for
    every case and then every mu (``n_phi`` belongs to the emission route).

    ``s`` is the cosine of the angle between the wave vector and the mirror
    normal. The perpendicular dipole component weighs (1 - s**2) and picks
    up the interference cosine with a plus sign, the parallel component
    weighs (1 + s**2)/2 with a minus sign. A case's ``other_ratio`` is
    t_other**2 / eta_other**2, the weight of light from the far side.
    """
    s, w = _gl_nodes(order)
    s_minus, s_plus = 1.0 - s**2, 1.0 + s**2
    cos_zs = np.multiply(column, s)
    np.cos(cos_zs, out=cos_zs)
    perp, par, rate, par_mu = (np.empty_like(cos_zs) for _ in range(4))
    values = []
    for r, eta_sq, other_ratio in cases:
        np.multiply(2.0 * r, cos_zs, out=par)  # the interference term
        np.add(1.0 + r**2, par, out=perp)
        np.multiply(perp, s_minus, out=perp)
        np.subtract(1.0 + r**2, par, out=par)
        np.multiply(0.5, par, out=par)
        np.multiply(par, s_plus, out=par)
        for mu in mu_values:
            trans = other_ratio * (s_minus * mu + 0.5 * s_plus * (1.0 - mu))
            np.multiply(perp, mu, out=rate)
            np.multiply(par, 1.0 - mu, out=par_mu)
            np.add(rate, par_mu, out=rate)
            np.divide(rate, eta_sq, out=rate)
            np.add(rate, trans, out=rate)
            np.multiply(0.75, rate, out=rate)
            values.append(rate @ w)
    return values


def _emission_route(column: np.ndarray, order: int, cases, mu_values, n_phi: int):
    """The emission route at one order: the decay-rate ratio per z for
    every case and then every mu.

    Built from the explicit dipole vectors of atom and image, sqrt(mu)
    (1 + r P) and sqrt(1 - mu) (1 - r P) with P = exp(-i z s): the squared
    projection orthogonal to the propagation direction, summed over the two
    polarisations, equals |u|**2 - |u . k_hat|**2. The dipole has no
    y-component, so only the x and z parts of k_hat enter, and the phi sum
    needs only the sums of kx**2, kz**2 and kx kz over the n_phi azimuths.
    Light from the far side meets the atom alone.
    """
    s, w = _gl_nodes(order)
    phi = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    kx = np.broadcast_to(s[:, None], (s.size, n_phi))
    kz = np.sqrt(np.clip(1.0 - s**2, 0.0, None))[:, None] * np.sin(phi)[None, :]
    kxx, kzz, kxz = (kx * kx).sum(axis=1), (kz * kz).sum(axis=1), (kx * kz).sum(axis=1)
    phase = np.multiply(-1j * column, s)
    np.exp(phase, out=phase)
    # Six real planes. The first four hold the complex 1 + r P and 1 - r P
    # until a case's products are formed, then the cross term and the mu
    # loop's work buffers.
    scratch = np.empty((6,) + phase.shape)
    plus, minus = scratch[:4].reshape(2, -1).view(complex).reshape((2,) + phase.shape)
    f_atom_image, cross, ux_sq, uz_sq, plus_sq, minus_sq = scratch
    values = []
    for r, eta_sq, other_ratio in cases:
        np.multiply(r, phase, out=minus)
        np.add(1.0, minus, out=plus)
        np.subtract(1.0, minus, out=minus)
        np.square(np.abs(plus, out=plus_sq), out=plus_sq)
        np.square(np.abs(minus, out=minus_sq), out=minus_sq)
        np.multiply(plus, np.conjugate(minus, out=minus), out=minus)
        np.copyto(cross, minus.real)
        for mu in mu_values:
            d_perp, d_par = math.sqrt(mu), math.sqrt(1.0 - mu)
            f_atom_only = n_phi - (mu * kxx + (1.0 - mu) * kzz + 2.0 * d_perp * d_par * kxz)
            np.multiply(mu, plus_sq, out=ux_sq)
            np.multiply(1.0 - mu, minus_sq, out=uz_sq)
            np.add(ux_sq, uz_sq, out=f_atom_image)
            np.multiply(n_phi, f_atom_image, out=f_atom_image)
            np.multiply(ux_sq, kxx, out=ux_sq)
            np.multiply(uz_sq, kzz, out=uz_sq)
            np.add(ux_sq, uz_sq, out=ux_sq)
            np.multiply(2.0 * d_perp * d_par, cross, out=uz_sq)
            np.multiply(uz_sq, kxz, out=uz_sq)
            np.add(ux_sq, uz_sq, out=ux_sq)
            np.subtract(f_atom_image, ux_sq, out=f_atom_image)
            np.divide(f_atom_image, eta_sq, out=f_atom_image)  # now over_phi
            np.add(f_atom_image, other_ratio * f_atom_only, out=f_atom_image)
            values.append(3.0 / (8.0 * math.pi)
                          * ((f_atom_image @ w) * (2.0 * math.pi / n_phi)))
    return values


_ROUTES = {  # the route at one order, and its message when it has not converged
    "angular": (_angular_route,
                "order {coarse} -> {fine} moved the result by {moved:.3e} at z={z}"),
    "emission": (_emission_route, "emission-route quadrature not converged at z={z}"),
}


def _per_z(z: np.ndarray, values: np.ndarray):
    """Flat per-z values in the shape of z; a float for scalar z."""
    return float(values[0]) if z.ndim == 0 else values.reshape(z.shape)


def _quadratures(z, cases, mu_values, quad: QuadratureSpec, routes,
                 n_phi: int = 32) -> dict[str, list[np.ndarray]]:
    """Each route's decay-rate ratio per z, for every case and then every mu.

    A case is (r, eta**2, t_other**2 / eta_other**2) of the atom's side.
    Route by route, the order-n rule and then the order-2n rule run, each
    with its own tables and buffers, freed before the next starts; the
    first value that doubling the order moved by more than the tolerance
    raises QuadratureNotConverged, naming its first such z, before the
    next route runs.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise ValueError("z must be non-negative")
    column = z.reshape(-1, 1)
    found = {}
    for route in routes:
        build, message = _ROUTES[route]
        coarse_values = build(column, quad.order, cases, mu_values, n_phi)
        found[route] = []
        for coarse, fine in zip(coarse_values,
                                build(column, 2 * quad.order, cases, mu_values, n_phi)):
            moved = np.abs(fine - coarse)
            bad = np.flatnonzero(moved > quad.tolerance * np.maximum(1.0, np.abs(fine)))
            if bad.size:
                raise QuadratureNotConverged(message.format(
                    coarse=quad.order, fine=2 * quad.order, moved=float(moved[bad[0]]),
                    z=float(z.reshape(-1)[bad[0]])))
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
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise ZeroDistance("level shift requires z > 0")
    w = np.exp(1j * z)
    expr = (1j / z) * w * (1.0 - mu_orient) - w * (1.0 / z**2 + 1j / z**3) * (
        1.0 + mu_orient
    )
    return _per_z(z, np.ravel(3.0 * r_a / (2.0 * eta_a_sq) * expr.imag))


def reset_rate_quadrature(z, mirror: MirrorSpec, mu_orient: float,
                          quad: QuadratureSpec = QuadratureSpec(),
                          side: str = "a", n_phi: int = 32):
    """Decay-rate ratio assembled from the photon-emission route.

    Integrates the polarisation-summed emission amplitudes over the full
    solid angle (azimuth by periodic trapezoid, polar cosine by
    Gauss-Legendre). ``z`` is a scalar or an array. Must agree with
    angular_bracket_quadrature.
    """
    eta = rates.eta_factors(mirror)
    if side == "a":
        case = (mirror.r_a, eta.eta_a_sq, mirror.t_b**2 / eta.eta_b_sq)
    else:
        case = (mirror.r_b, eta.eta_b_sq, mirror.t_a**2 / eta.eta_a_sq)
    return _quadratures(z, [case], [mu_orient], quad, ["emission"], n_phi)["emission"][0]


def hfield_mode_sum_check(amps: modespace.ModeAmplitudes, grid: modespace.ModeGrid,
                          x_grid: np.ndarray, medium=None, hbar: float = 1.0,
                          side: str = "a") -> dict:
    """Compare the standing-wave mode energy against a spatial quadrature.

    The spatial route integrates the energy density of the boundary-matched
    field over the symmetric doubled domain (the squared field is even, so
    half the full-line integral equals the half-space energy). Requires a
    uniform, ascending x_grid with 4m+1 points, symmetric about 0; any
    other grid raises ValueError.
    """
    from .classical import simpson_with_check
    from .core import Medium

    medium = medium if medium is not None else Medium()
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.ndim != 1 or x_grid.size < 5 or x_grid.size % 4 != 1:
        raise ValueError("x_grid needs 4m+1 points")
    dx = x_grid[1] - x_grid[0]
    slack = 1e-12 * np.abs(x_grid).max()
    if not (dx > 0.0 and np.allclose(np.diff(x_grid), dx, rtol=1e-9, atol=0.0)
            and np.allclose(x_grid, -x_grid[::-1], rtol=0.0, atol=slack)):
        raise ValueError("x_grid must be uniform, ascending and symmetric about 0")
    mode_sum = modespace.expect_H_field_one_sided(amps, grid, medium,
                                                  hbar=hbar, side=side)
    e_plus = modespace.expect_E_free(amps, grid, medium, x_grid, side=side, hbar=hbar)
    e_minus = modespace.expect_E_free(amps, grid, medium, -x_grid, side=side, hbar=hbar)
    b_plus = modespace.expect_B_free(amps, grid, medium, x_grid, side=side, hbar=hbar)
    b_minus = modespace.expect_B_free(amps, grid, medium, -x_grid, side=side, hbar=hbar)
    e_odd = (e_plus - e_minus) / math.sqrt(2.0)
    b_even = (b_plus + b_minus) / math.sqrt(2.0)
    density = medium.epsilon * e_odd**2 + b_even**2 / medium.mu_p
    # A/2 times the half-line integral, written as A/4 times the full line.
    spatial = 0.25 * grid.area * simpson_with_check(density, dx)
    scale = max(abs(mode_sum), abs(spatial))
    rel_gap = abs(mode_sum - spatial) / scale if scale > 0.0 else 0.0
    return {"mode_sum": mode_sum, "spatial": spatial, "rel_gap": rel_gap}


def _z_grid(z_grid) -> np.ndarray:
    return 0.1 * np.arange(1, 501) if z_grid is None else np.asarray(z_grid, float)


def _check_mirrors() -> list[tuple[str, MirrorSpec]]:
    half = math.sqrt(0.5)
    return [
        ("perfect", MirrorSpec.perfect()),
        ("symmetric_50_50", MirrorSpec.symmetric(r=half, t=half)),
        ("asymmetric_admissible", MirrorSpec.symmetric(r=0.3, t=0.5)),
    ]


def _worst_point_report(name: str, z_grid, tolerance: float, pairs,
                        scale_by_both: bool = False) -> OracleReport:
    """Compare two routes over the z grid for every checked mirror and mu.

    ``pairs`` yields the (oracle, reference) arrays of each mirror and mu.
    The deviation is |oracle - reference| over |reference| (over the
    larger of the two when ``scale_by_both``); the report keeps, per z,
    the worst deviation and the values behind it.
    """
    worst = np.zeros_like(z_grid)
    oracle_vals = np.zeros_like(z_grid)
    reference_vals = np.zeros_like(z_grid)
    for got, reference in pairs:
        scale = np.abs(reference)
        if scale_by_both:
            scale = np.maximum(scale, np.abs(got))
        dev = np.abs(got - reference) / np.maximum(scale, 1e-12)
        better = dev > worst
        worst = np.where(better, dev, worst)
        oracle_vals = np.where(better, got, oracle_vals)
        reference_vals = np.where(better, reference, reference_vals)
    return OracleReport(name=name, z=z_grid, oracle=oracle_vals,
                        closed_form=reference_vals, rel_dev=worst,
                        max_rel_dev=float(worst.max()), tolerance=tolerance)


def _decay_routes(z_grid, mu_values, quad: QuadratureSpec, routes):
    """(z grid, (mirror, mu) pairs, each route's values per pair), side a."""
    z_grid = _z_grid(z_grid)
    mirrors = [(m, rates.eta_factors(m)) for _, m in _check_mirrors()]
    cases = [(m.r_a, eta.eta_a_sq, m.t_b**2 / eta.eta_b_sq) for m, eta in mirrors]
    pairs = [(m, mu) for m, _ in mirrors for mu in mu_values]
    return z_grid, pairs, _quadratures(z_grid, cases, mu_values, quad, routes)


def _gamma_report(z_grid, pairs, found, tolerance: float) -> OracleReport:
    return _worst_point_report("gamma_angular_quadrature", z_grid, tolerance, (
        (got, rates.gamma_mirr(m, mu, z_grid)) for (m, mu), got in zip(pairs, found["angular"])))


def _route_report(z_grid, pairs, found, tolerance: float) -> OracleReport:
    return _worst_point_report("decay_route_consistency", z_grid, tolerance,
                               zip(found["emission"], found["angular"]))


def gamma_quadrature_report(z_grid=None, mu_values=(0.0, 0.5, 1.0),
                            quad: QuadratureSpec = QuadratureSpec(),
                            tolerance: float = 1e-8) -> OracleReport:
    """Angular quadrature vs closed-form decay rate over the default grid."""
    return _gamma_report(*_decay_routes(z_grid, mu_values, quad, ["angular"]), tolerance)


def delta_contour_report(z_grid=None, mu_values=(0.0, 0.5, 1.0),
                         tolerance: float = 1e-8) -> OracleReport:
    """Contour-form level shift vs the trigonometric closed form."""
    z_grid = _z_grid(z_grid)
    mirrors = [(m, rates.eta_factors(m)) for _, m in _check_mirrors()]
    return _worst_point_report("delta_contour_form", z_grid, tolerance, (
        (levelshift_contour_eval(z_grid, mu, m.r_a, eta.eta_a_sq),
         rates.delta_mirr(m, mu, z_grid)) for m, eta in mirrors for mu in mu_values),
        scale_by_both=True)


def route_consistency_report(z_grid=None, mu_values=(0.0, 0.5, 1.0),
                             quad: QuadratureSpec = QuadratureSpec(),
                             tolerance: float = 1e-10) -> OracleReport:
    """No-emission route vs emission route for the decay rate."""
    return _route_report(*_decay_routes(z_grid, mu_values, quad, ["angular", "emission"]),
                         tolerance)


def field_energy_report(tolerance: float = 1e-3) -> dict:
    """Standing-wave mode energy vs spatial quadrature for a test packet."""
    from .core import GaussianPacket, Medium

    medium = Medium()
    packet = GaussianPacket.moving(e0=1.0, x0=30.0, sigma=3.0, k0_carrier=-10.0)
    grid = modespace.ModeGrid.for_packet(packet, n_modes=4096)
    amps = modespace.packet_to_amplitudes(packet, grid, medium)
    x_grid = np.linspace(-56.0, 56.0, 8193)
    result = hfield_mode_sum_check(amps, grid, x_grid, medium=medium)
    return {
        "name": "field_energy_mode_sum",
        "grid": {"n_modes": int(grid.k.size), "n_x": int(x_grid.size)},
        "max_rel_dev": float(result["rel_gap"]),
        "tolerance": float(tolerance),
        "pass": bool(result["rel_gap"] < tolerance),
    }


def run_default_checks(quad: QuadratureSpec = QuadratureSpec(),
                       tol_gamma: float = 1e-8, tol_delta: float = 1e-8,
                       tol_route: float = 1e-10,
                       tol_energy: float = 1e-3) -> list[dict]:
    """Full verification suite, one report dict per check; the two decay-rate
    checks share one run of each quadrature route."""
    decay = _decay_routes(None, (0.0, 0.5, 1.0), quad, ["angular", "emission"])
    return [
        _gamma_report(*decay, tol_gamma).to_dict(),
        delta_contour_report(tolerance=tol_delta).to_dict(),
        _route_report(*decay, tol_route).to_dict(),
        field_energy_report(tolerance=tol_energy),
    ]
