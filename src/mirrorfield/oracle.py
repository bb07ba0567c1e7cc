"""Independent numerical re-derivations of the closed-form rates.

Three cross-checks live here: a Gauss-Legendre quadrature of the angular
integral behind the decay rate, a complex-arithmetic evaluation of the
level shift, and a second, emission-route quadrature built from the vector
dipole amplitudes. A fourth check compares the standing-wave mode energy
against a spatial quadrature of the field energy density.

The two quadratures share their tables. Per Gauss-Legendre order, cos(z s),
exp(-i z s) and the azimuth sums depend on neither the mirror nor the
dipole orientation mu, so the suite builds them once per order; each
mirror's reflection products are then formed once for all mu. Each route
still combines its own terms point by point, so the routes stay independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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


class _OrderTables:
    """Mirror- and mu-independent tables of one Gauss-Legendre order against
    the z ``column``; each is built when a route first reads it."""

    def __init__(self, column: np.ndarray, order: int, n_phi: int = 32):
        self.s, self.w = _gl_nodes(order)
        self.column, self.n_phi = column, n_phi
        self.s_minus, self.s_plus = 1.0 - self.s**2, 1.0 + self.s**2

    @cached_property
    def cos_zs(self) -> np.ndarray:
        return np.cos(self.column * self.s)

    @cached_property
    def phase(self) -> np.ndarray:
        return np.exp(-1j * self.column * self.s)

    @cached_property
    def k_sums(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sums of kx**2, kz**2 and kx kz over the n_phi azimuths, per s."""
        phi = np.arange(self.n_phi) * (2.0 * math.pi / self.n_phi)
        kx = np.broadcast_to(self.s[:, None], (self.s.size, self.n_phi))
        kz = np.sqrt(np.clip(self.s_minus, 0.0, None))[:, None] * np.sin(phi)[None, :]
        return (kx * kx).sum(axis=1), (kz * kz).sum(axis=1), (kx * kz).sum(axis=1)


def _angular_route(tables: _OrderTables, r: float, eta_sq: float, other_ratio: float):
    """The angular integral at one order, as mu -> decay-rate ratio per z.

    ``s`` is the cosine of the angle between the wave vector and the mirror
    normal. The perpendicular dipole component weighs (1 - s**2) and picks
    up the interference cosine with a plus sign, the parallel component
    weighs (1 + s**2)/2 with a minus sign. ``other_ratio`` is
    t_other**2 / eta_other**2, the weight of light from the far side.
    """
    cos_term = 2.0 * r * tables.cos_zs
    perp = (1.0 + r**2 + cos_term) * tables.s_minus
    par = 0.5 * (1.0 + r**2 - cos_term) * tables.s_plus

    def at(mu):
        trans = other_ratio * (tables.s_minus * mu + 0.5 * tables.s_plus * (1.0 - mu))
        return (0.75 * ((perp * mu + par * (1.0 - mu)) / eta_sq + trans)) @ tables.w
    return at


def _emission_route(tables: _OrderTables, r: float, eta_sq: float, other_ratio: float):
    """The emission route at one order, as mu -> decay-rate ratio per z.

    Built from the explicit dipole vectors of atom and image, sqrt(mu)
    (1 + r P) and sqrt(1 - mu) (1 - r P) with P = exp(-i z s): the squared
    projection orthogonal to the propagation direction, summed over the two
    polarisations, equals |u|**2 - |u . k_hat|**2. The dipole has no
    y-component, so only the x and z parts of k_hat enter, and the phi sum
    needs only the sums of kx**2, kz**2 and kx kz over the n_phi azimuths.
    Light from the far side meets the atom alone.
    """
    plus, minus = 1.0 + r * tables.phase, 1.0 - r * tables.phase
    plus_sq, minus_sq = np.abs(plus) ** 2, np.abs(minus) ** 2
    cross = (plus * minus.conj()).real
    (kxx, kzz, kxz), n_phi = tables.k_sums, tables.n_phi

    def at(mu):
        d_perp, d_par = math.sqrt(mu), math.sqrt(1.0 - mu)
        ux_sq, uz_sq = mu * plus_sq, (1.0 - mu) * minus_sq
        f_atom_image = n_phi * (ux_sq + uz_sq) - (
            ux_sq * kxx + uz_sq * kzz + 2.0 * d_perp * d_par * cross * kxz)
        f_atom_only = n_phi - (mu * kxx + (1.0 - mu) * kzz + 2.0 * d_perp * d_par * kxz)
        over_phi = f_atom_image / eta_sq + other_ratio * f_atom_only
        return 3.0 / (8.0 * math.pi) * ((over_phi @ tables.w) * (2.0 * math.pi / n_phi))
    return at


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
    Each order's tables are built once and each route's mu-independent
    products once per case and order, one of each held at a time. Route by
    route, the first value that doubling the order moved by more than the
    tolerance raises QuadratureNotConverged, naming its first such z.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise ValueError("z must be non-negative")
    column = z.reshape(-1, 1)
    by_order = []
    for order in (quad.order, 2 * quad.order):
        tables = _OrderTables(column, order, n_phi)
        by_order.append({route: [value for case in cases for value in
                                 map(_ROUTES[route][0](tables, *case), mu_values)]
                         for route in routes})
        del tables  # before the next order's are built
    found = {}
    for route in routes:
        found[route] = []
        for coarse, fine in zip(by_order[0][route], by_order[1][route]):
            moved = np.abs(fine - coarse)
            bad = np.flatnonzero(moved > quad.tolerance * np.maximum(1.0, np.abs(fine)))
            if bad.size:
                raise QuadratureNotConverged(_ROUTES[route][1].format(
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
