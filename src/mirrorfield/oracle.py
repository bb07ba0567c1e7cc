"""Independent numerical re-derivations of the closed-form rates.

Three cross-checks live here: a Gauss-Legendre quadrature of the angular
integral behind the decay rate, a complex-arithmetic evaluation of the
level shift, and a second, emission-route quadrature built from the vector
dipole amplitudes. A fourth check compares the standing-wave mode energy
against a spatial quadrature of the field energy density.
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


def _cos_weight_integrand(s, z, r_a, eta_a_sq, tb2_over_etab2, mu_orient):
    """Angular integrand of the decay rate at the transition frequency.

    ``s`` is the cosine of the angle between the wave vector and the mirror
    normal. The perpendicular dipole component weighs (1 - s**2) and picks
    up the interference cosine with a plus sign, the parallel component
    weighs (1 + s**2)/2 with a minus sign.
    """
    cos_zs = np.cos(z * s)
    perp = (1.0 + r_a**2 + 2.0 * r_a * cos_zs) * (1.0 - s**2) * mu_orient
    par = 0.5 * (1.0 + r_a**2 - 2.0 * r_a * cos_zs) * (1.0 + s**2) * (1.0 - mu_orient)
    trans = tb2_over_etab2 * (
        (1.0 - s**2) * mu_orient + 0.5 * (1.0 + s**2) * (1.0 - mu_orient)
    )
    return 0.75 * ((perp + par) / eta_a_sq + trans)


def _z_column(z) -> tuple[np.ndarray, np.ndarray]:
    """z as an array and as a column to broadcast against the s nodes."""
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise ValueError("z must be non-negative")
    return z, z.reshape(-1, 1)


def _per_z(z: np.ndarray, values: np.ndarray):
    """Flat per-z values in the shape of z; a float for scalar z."""
    return float(values[0]) if z.ndim == 0 else values.reshape(z.shape)


def _first_unconverged(z: np.ndarray, coarse: np.ndarray, fine: np.ndarray,
                       quad: QuadratureSpec):
    """(z, |fine - coarse|) at the first z in grid order where doubling the
    order moved the result by more than the tolerance, else None."""
    moved = np.abs(fine - coarse)
    bad = np.flatnonzero(moved > quad.tolerance * np.maximum(1.0, np.abs(fine)))
    if bad.size == 0:
        return None
    return float(z.reshape(-1)[bad[0]]), float(moved[bad[0]])


def angular_bracket_quadrature(z, r_a: float, eta_a_sq: float,
                               tb2_over_etab2: float, mu_orient: float,
                               quad: QuadratureSpec = QuadratureSpec()):
    """Decay-rate ratio by direct quadrature of the angular integral.

    ``z`` is a scalar (float result) or an array (result of its shape).
    Doubles the quadrature order and raises QuadratureNotConverged, naming
    the first such z in grid order, when the two results differ by more
    than the requested tolerance.
    """
    z, column = _z_column(z)
    results = []
    for order in (quad.order, 2 * quad.order):
        s, w = _gl_nodes(order)
        results.append(_cos_weight_integrand(
            s, column, r_a, eta_a_sq, tb2_over_etab2, mu_orient) @ w)
    failed = _first_unconverged(z, *results, quad)
    if failed is not None:
        raise QuadratureNotConverged(
            f"order {quad.order} -> {2 * quad.order} moved the result by "
            f"{failed[1]:.3e} at z={failed[0]}"
        )
    return _per_z(z, results[1])


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


def _emission_integrand(s, z, r_use, mu_orient, n_phi):
    """Polarisation-summed emission amplitudes, summed over the phi mesh.

    Built from the explicit dipole vectors of atom and image: the squared
    projection orthogonal to the propagation direction, summed over the two
    polarisations, equals |u|**2 - |u . k_hat|**2. The dipole has no
    y-component, so only the x and z parts of k_hat enter, and the phi sum
    needs only the sums of kx**2, kz**2 and kx kz over the n_phi azimuths.
    Returns the atom-and-image sum, shape (z, s), and the atom-only sum,
    shape (s,).
    """
    d_perp = math.sqrt(mu_orient)
    d_par = math.sqrt(1.0 - mu_orient)
    phase = np.exp(-1j * z * s)
    ux = d_perp * (1.0 + r_use * phase)
    uz = d_par * (1.0 - r_use * phase)
    phi = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    sin_t = np.sqrt(np.clip(1.0 - s**2, 0.0, None))
    kx = np.broadcast_to(s[:, None], (s.size, n_phi))
    kz = sin_t[:, None] * np.sin(phi)[None, :]
    kxx, kzz, kxz = (kx * kx).sum(axis=1), (kz * kz).sum(axis=1), (kx * kz).sum(axis=1)
    ux_sq, uz_sq = np.abs(ux) ** 2, np.abs(uz) ** 2
    f_atom_image = n_phi * (ux_sq + uz_sq) - (
        ux_sq * kxx + uz_sq * kzz + 2.0 * (ux * uz.conj()).real * kxz)
    f_atom_only = n_phi - (mu_orient * kxx + (1.0 - mu_orient) * kzz
                           + 2.0 * d_perp * d_par * kxz)
    return f_atom_image, f_atom_only


def reset_rate_quadrature(z, mirror: MirrorSpec, mu_orient: float,
                          quad: QuadratureSpec = QuadratureSpec(),
                          side: str = "a", n_phi: int = 32):
    """Decay-rate ratio assembled from the photon-emission route.

    Integrates the polarisation-summed emission amplitudes over the full
    solid angle (azimuth by periodic trapezoid, polar cosine by
    Gauss-Legendre). ``z`` is a scalar or an array. Must agree with
    angular_bracket_quadrature.
    """
    z, column = _z_column(z)
    eta = rates.eta_factors(mirror)
    if side == "a":
        r_use, eta_use_sq = mirror.r_a, eta.eta_a_sq
        t_other_sq, eta_other_sq = mirror.t_b**2, eta.eta_b_sq
    else:
        r_use, eta_use_sq = mirror.r_b, eta.eta_b_sq
        t_other_sq, eta_other_sq = mirror.t_a**2, eta.eta_a_sq
    results = []
    for order in (quad.order, 2 * quad.order):
        s, w = _gl_nodes(order)
        f_ai, f_a = _emission_integrand(s, column, r_use, mu_orient, n_phi)
        over_phi = f_ai / eta_use_sq + (t_other_sq / eta_other_sq) * f_a
        total = (over_phi @ w) * (2.0 * math.pi / n_phi)
        results.append(3.0 / (8.0 * math.pi) * total)
    failed = _first_unconverged(z, *results, quad)
    if failed is not None:
        raise QuadratureNotConverged(
            f"emission-route quadrature not converged at z={failed[0]}"
        )
    return _per_z(z, results[1])


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


def _default_z_grid() -> np.ndarray:
    return 0.1 * np.arange(1, 501)


def _check_mirrors() -> list[tuple[str, MirrorSpec]]:
    half = math.sqrt(0.5)
    return [
        ("perfect", MirrorSpec.perfect()),
        ("symmetric_50_50", MirrorSpec.symmetric(r=half, t=half)),
        ("asymmetric_admissible", MirrorSpec.symmetric(r=0.3, t=0.5)),
    ]


def _worst_point_report(name: str, z_grid, mu_values, tolerance: float, routes,
                        scale_by_both: bool = False) -> OracleReport:
    """Compare two routes over the z grid for every checked mirror and mu.

    ``routes(mirror, mu, z_grid)`` returns (oracle, reference) arrays. The
    deviation is |oracle - reference| over |reference| (over the larger of
    the two when ``scale_by_both``); the report keeps, per z, the worst
    deviation and the values behind it.
    """
    z_grid = _default_z_grid() if z_grid is None else np.asarray(z_grid, float)
    worst = np.zeros_like(z_grid)
    oracle_vals = np.zeros_like(z_grid)
    reference_vals = np.zeros_like(z_grid)
    for _, mirror in _check_mirrors():
        for mu in mu_values:
            got, reference = routes(mirror, mu, z_grid)
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


def _angular(mirror: MirrorSpec, mu: float, z_grid, quad: QuadratureSpec):
    eta = rates.eta_factors(mirror)
    return angular_bracket_quadrature(z_grid, mirror.r_a, eta.eta_a_sq,
                                      mirror.t_b**2 / eta.eta_b_sq, mu, quad)


def gamma_quadrature_report(z_grid=None, mu_values=(0.0, 0.5, 1.0),
                            quad: QuadratureSpec = QuadratureSpec(),
                            tolerance: float = 1e-8) -> OracleReport:
    """Angular quadrature vs closed-form decay rate over the default grid."""
    def routes(mirror, mu, z):
        return _angular(mirror, mu, z, quad), rates.gamma_mirr(mirror, mu, z)

    return _worst_point_report("gamma_angular_quadrature", z_grid, mu_values,
                               tolerance, routes)


def delta_contour_report(z_grid=None, mu_values=(0.0, 0.5, 1.0),
                         tolerance: float = 1e-8) -> OracleReport:
    """Contour-form level shift vs the trigonometric closed form."""
    def routes(mirror, mu, z):
        eta = rates.eta_factors(mirror)
        return (levelshift_contour_eval(z, mu, mirror.r_a, eta.eta_a_sq),
                rates.delta_mirr(mirror, mu, z))

    return _worst_point_report("delta_contour_form", z_grid, mu_values,
                               tolerance, routes, scale_by_both=True)


def route_consistency_report(z_grid=None, mu_values=(0.0, 0.5, 1.0),
                             quad: QuadratureSpec = QuadratureSpec(),
                             tolerance: float = 1e-10) -> OracleReport:
    """No-emission route vs emission route for the decay rate."""
    def routes(mirror, mu, z):
        conditional = _angular(mirror, mu, z, quad)
        return reset_rate_quadrature(z, mirror, mu, quad), conditional

    return _worst_point_report("decay_route_consistency", z_grid, mu_values,
                               tolerance, routes)


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
    """Full verification suite, one report dict per check."""
    reports = [
        gamma_quadrature_report(quad=quad, tolerance=tol_gamma).to_dict(),
        delta_contour_report(tolerance=tol_delta).to_dict(),
        route_consistency_report(quad=quad, tolerance=tol_route).to_dict(),
        field_energy_report(tolerance=tol_energy),
    ]
    return reports
