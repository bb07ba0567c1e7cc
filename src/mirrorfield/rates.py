"""Closed-form spontaneous decay rate and level shift near the mirror.

Everything is expressed through the dimensionless distance z = 2 k0 x and
returned in units of the free-space decay rate. All functions accept scalar
or array z and are pure, so parameter sweeps parallelise freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AtomSpec, Medium, MirrorSpec
from .errors import DegenerateNormalisation, ZeroDistance

# Below this z the oscillatory brackets are evaluated by Taylor series: the
# pair cos(z)/z**2 - sin(z)/z**3 cancels catastrophically as z -> 0. The
# threshold is where both branches overlap to better than 1e-10.
SMALL_Z = 1e-2


@dataclass(frozen=True)
class EtaFactors:
    """Normalisation factors of the two field-observable copies.

    The squares are what the rates use, so they are kept as computed; the
    factors themselves are their roots.
    """

    eta_a_sq: float
    eta_b_sq: float

    def __post_init__(self):
        if self.eta_a_sq <= 0.0 or self.eta_b_sq <= 0.0:
            raise ValueError("eta factors must be positive")

    @property
    def eta_a(self) -> float:
        return math.sqrt(self.eta_a_sq)

    @property
    def eta_b(self) -> float:
        return math.sqrt(self.eta_b_sq)


@dataclass(frozen=True)
class RateResult:
    """Decay-rate and level-shift ratios at scaled distance z = 2 k0 x."""

    gamma_ratio: float | np.ndarray
    delta_ratio: float | np.ndarray
    z: float | np.ndarray


def gamma_free(atom: AtomSpec, medium: Medium) -> float:
    """Free-space spontaneous decay rate of the two-level transition."""
    c = medium.c
    return (
        atom.e**2
        * atom.omega_0**3
        * atom.dipole_norm**2
        / (3.0 * math.pi * atom.hbar * medium.epsilon * c**3)
    )


def eta_factors(mirror: MirrorSpec) -> EtaFactors:
    """Normalisation factors fixed by free-space decay far from the mirror.

    The 0/0 case of a lossless fully transparent mirror on both sides
    resolves to eta_a**2 = eta_b**2 = 2, the unique value consistent with
    the free-space sum rule 1/eta_a**2 + 1/eta_b**2 = 1 under a <-> b
    symmetry. If only one denominator vanishes there is no admissible
    normalisation and DegenerateNormalisation is raised.
    """
    ra2, rb2 = mirror.r_a**2, mirror.r_b**2
    ta2, tb2 = mirror.t_a**2, mirror.t_b**2
    num = (1.0 + ra2) * (1.0 + rb2) - ta2 * tb2
    den_a = 1.0 + rb2 - tb2
    den_b = 1.0 + ra2 - ta2
    if den_a == 0.0 and den_b == 0.0:
        return EtaFactors(eta_a_sq=2.0, eta_b_sq=2.0)
    if den_a == 0.0 or den_b == 0.0:
        which = "a" if den_a == 0.0 else "b"
        raise DegenerateNormalisation(
            f"normalisation denominator for side {which} vanishes "
            "(fully transparent lossless on one side only)"
        )
    return EtaFactors(eta_a_sq=num / den_a, eta_b_sq=num / den_b)


def _sinc_factor(z: np.ndarray) -> np.ndarray:
    """sin(z)/z, continued through z = 0 by series."""
    out = np.empty_like(z)
    small = np.abs(z) < SMALL_Z
    zs = z[small]
    z2 = zs * zs
    out[small] = 1.0 + z2 * (-1.0 / 6.0 + z2 * (1.0 / 120.0 - z2 / 5040.0))
    zl = z[~small]
    out[~small] = np.sin(zl) / zl
    return out


def _pair_factor(z: np.ndarray) -> np.ndarray:
    """cos(z)/z**2 - sin(z)/z**3, continued through z = 0 by series."""
    out = np.empty_like(z)
    small = np.abs(z) < SMALL_Z
    zs = z[small]
    z2 = zs * zs
    out[small] = -1.0 / 3.0 + z2 * (1.0 / 30.0 + z2 * (-1.0 / 840.0 + z2 / 45360.0))
    zl = z[~small]
    out[~small] = np.cos(zl) / zl**2 - np.sin(zl) / zl**3
    return out


def _finite_z(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("z must be finite")
    return z


def gamma_bracket(z, mu_orient: float):
    """Distance-dependent bracket of the decay rate.

    Weighs the travelling-wave term with (1 - mu) and the near-field pair
    with (1 + mu); finite for all z >= 0.
    """
    z = _finite_z(z)
    out = _sinc_factor(z) * (1.0 - mu_orient) + _pair_factor(z) * (1.0 + mu_orient)
    return out if out.shape else float(out)


def delta_bracket(z, mu_orient: float):
    """Distance-dependent bracket of the level shift; diverges as z -> 0."""
    z = _finite_z(z)
    if np.any(z <= 0.0):
        raise ZeroDistance("level shift requires z > 0")
    with np.errstate(divide="ignore", over="ignore"):
        out = np.cos(z) / z * (1.0 - mu_orient) - (
            np.sin(z) / z**2 + np.cos(z) / z**3
        ) * (1.0 + mu_orient)
    # 1 / z**3 overflows below z of about 1e-103.
    if not np.all(np.isfinite(out)):
        raise ZeroDistance(f"level shift overflows at z = {np.min(z)}")
    return out if out.shape else float(out)


def _check_orientation(mu_orient: float) -> None:
    if not 0.0 <= mu_orient <= 1.0:  # also false for NaN
        raise ValueError(f"mu_orient must lie in [0, 1], got {mu_orient}")


def _side_case(mirror: MirrorSpec, side: str):
    """(r, eta**2, t_other**2 / eta_other**2) of the atom's side: its
    reflection rate, its normalisation and the weight of light from the
    far side."""
    eta = eta_factors(mirror)
    if side == "a":
        return mirror.r_a, eta.eta_a_sq, mirror.t_b**2 / eta.eta_b_sq
    if side == "b":
        return mirror.r_b, eta.eta_b_sq, mirror.t_a**2 / eta.eta_a_sq
    raise ValueError(f"side must be 'a' or 'b', got {side!r}")


def gamma_mirr(mirror: MirrorSpec, mu_orient: float, z, side: str = "a"):
    """Decay rate over its free-space value at scaled distance z = 2 k0 |x|.

    z >= 0 is allowed; the z -> 0 limit is taken through the series branch.
    """
    _check_orientation(mu_orient)
    z = _finite_z(z)
    if np.any(z < 0.0):
        raise ValueError("z must be non-negative")
    r, eta_sq, other = _side_case(mirror, side)
    out = (1.0 + r**2) / eta_sq + other - (3.0 * r / eta_sq) * np.asarray(
        gamma_bracket(z, mu_orient))
    return out if z.shape else float(out)


def delta_mirr(mirror: MirrorSpec, mu_orient: float, z, side: str = "a"):
    """Mirror-induced shift of the excited level, in units of the free rate.

    Only the mirror-dependent part is reported; the distance-independent
    self-interaction piece is absorbed into the transition frequency.
    """
    _check_orientation(mu_orient)
    z = _finite_z(z)
    r, eta_sq, _ = _side_case(mirror, side)
    out = (3.0 * r / (2.0 * eta_sq)) * np.asarray(delta_bracket(z, mu_orient))
    return out if z.shape else float(out)


def symmetric_prefactor(r: float, t: float) -> float:
    """Oscillation prefactor of the equal-rate mirror, in its printed form.

    Algebraically equal to 3 r / (1 + r**2 + t**2); the printed numerator
    and denominator both vanish only at (r, t) = (0, 1), where the factor
    is zero by the r -> 0 limit.
    """
    den = (1.0 + r * r) ** 2 - t**4
    if den == 0.0:
        return 0.0
    return 3.0 * r * (1.0 + r * r - t * t) / den


def preset_rates(kind: str, mu_orient: float, z, r: float | None = None,
                 t: float | None = None) -> RateResult:
    """Specialised closed forms for the perfect, symmetric and absorbing cases.

    These evaluate the reduced expressions directly and must agree with the
    general gamma_mirr/delta_mirr route. Requires z > 0 because the shift is
    part of the result.
    """
    _check_orientation(mu_orient)
    z = _finite_z(z)
    if kind == "perfect":
        gamma = 1.0 - 1.5 * gamma_bracket(z, mu_orient)
        delta = 0.75 * delta_bracket(z, mu_orient)
    elif kind == "absorbing":
        if np.any(z <= 0.0):
            raise ZeroDistance("level shift requires z > 0")
        gamma = np.ones_like(z)
        delta = np.zeros_like(z)
    elif kind == "symmetric":
        if r is None or t is None:
            raise ValueError("symmetric preset needs r and t")
        pref = symmetric_prefactor(r, t)
        gamma = 1.0 - pref * gamma_bracket(z, mu_orient)
        delta = 0.5 * pref * delta_bracket(z, mu_orient)
    else:
        raise ValueError(f"unknown preset kind {kind!r}")
    if z.shape:
        return RateResult(gamma_ratio=gamma, delta_ratio=delta, z=z)
    return RateResult(gamma_ratio=float(gamma), delta_ratio=float(delta), z=float(z))


def far_field_gamma(mirror: MirrorSpec, side: str = "a") -> float:
    """Limit of the decay-rate ratio far from the mirror (equals 1)."""
    r, eta_sq, other = _side_case(mirror, side)
    return (1.0 + r**2) / eta_sq + other
