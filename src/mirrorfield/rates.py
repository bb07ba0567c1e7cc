"""Closed-form spontaneous decay rate and level shift near the mirror.

Everything is expressed through the dimensionless distance z = 2 k0 x and
returned in units of the free-space decay rate. All functions are pure, so
parameter sweeps parallelise freely.

Each closed form is written once, with arithmetic operators only, and runs
on a float or on a numpy array alike. The type of z picks the path: a
Python number, or a list of them, is evaluated point by point on floats
with math.sin and math.cos and gives a float or a list, without importing
numpy; any other z is read as an array and evaluated by numpy, giving a
float for a 0-d array and an array of its shape otherwise. Both paths
apply the same operations in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import AtomSpec, Medium, MirrorSpec
from .errors import DegenerateNormalisation, ZeroDistance

if TYPE_CHECKING:
    import numpy as np

# Below this z the oscillatory brackets are evaluated by Taylor series: the
# pair cos(z)/z**2 - sin(z)/z**3 cancels catastrophically as z -> 0. The
# threshold is where both branches overlap to better than 1e-10.
SMALL_Z = 1e-2

# Veltkamp's splitter for doubles, 2**27 + 1: it cuts a double into two
# halves of at most 26 bits, whose products are exact.
_SPLITTER = 134217729.0
# |z| range in which both two-products of the cube are exact, with room to
# spare: no split overflows, z**3 is finite and every rounding error is a
# normal double. Outside it z**3 is not a normal double, or nearly so, and
# the plain product z * z * z is taken.
_CUBE_MIN = 2.0**-320
_CUBE_MAX = 2.0**340


@dataclass(frozen=True)
class EtaFactors:
    """Squared normalisation factors of the two field-observable copies,
    kept as computed since the rates use the squares."""

    eta_a_sq: float
    eta_b_sq: float

    def __post_init__(self):
        if self.eta_a_sq <= 0.0 or self.eta_b_sq <= 0.0:
            raise ValueError("eta factors must be positive")


@dataclass(frozen=True)
class RateResult:
    """Decay-rate and level-shift ratios at scaled distance z = 2 k0 x."""

    gamma_ratio: float | list | np.ndarray
    delta_ratio: float | list | np.ndarray


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


def _cube(z):
    """z**3 rounded once, for _CUBE_MIN <= |z| <= _CUBE_MAX.

    Dekker's two-products, with z split once for both: z * z = z2 + e2 and
    z2 * z = z3 + e3 exactly, so z**3 = z3 + e3 + e2 * z. The last product
    and the sum of the two small terms round at about 2**-105 of z**3, so
    the final addition rounds z**3 correctly unless it lies that close to a
    midpoint between doubles. numpy's power and libm's pow are not
    correctly rounded, and differ between CPU dispatch paths.
    """
    t = _SPLITTER * z
    z_hi = t - (t - z)
    z_lo = z - z_hi
    z2 = z * z
    e2 = ((z_hi * z_hi - z2) + 2.0 * z_hi * z_lo) + z_lo * z_lo
    t = _SPLITTER * z2
    z2_hi = t - (t - z2)
    z2_lo = z2 - z2_hi
    z3 = z2 * z
    e3 = ((z2_hi * z_hi - z3) + z2_hi * z_lo + z2_lo * z_hi) + z2_lo * z_lo
    return z3 + (e3 + e2 * z)


def _gamma_series(z2, mu):
    """Decay-rate bracket from the Taylor series in z**2 of its factors,
    sin(z)/z weighed with (1 - mu) and cos(z)/z**2 - sin(z)/z**3 with
    (1 + mu)."""
    return ((1.0 + z2 * (-1.0 / 6.0 + z2 * (1.0 / 120.0 - z2 / 5040.0))) * (1.0 - mu)
            + (-1.0 / 3.0 + z2 * (1.0 / 30.0 + z2 * (-1.0 / 840.0 + z2 / 45360.0)))
            * (1.0 + mu))


def _gamma_direct(z, s, c, z2, z3, mu):
    """Decay-rate bracket from s = sin(z), c = cos(z), z2 = z**2 and z3 = z**3."""
    return s / z * (1.0 - mu) + (c / z2 - s / z3) * (1.0 + mu)


def _delta_direct(z, s, c, z2, z3, mu):
    """Level-shift bracket from s = sin(z), c = cos(z), z2 and z3."""
    return c / z * (1.0 - mu) - (s / z2 + c / z3) * (1.0 + mu)


# ------------------------------------------------------------ float path

def _brackets_at(z: float, mu: float):
    """(decay-rate bracket, level-shift bracket) at one float z != 0."""
    s, c, z2 = math.sin(z), math.cos(z), z * z
    z3 = _cube(z) if _CUBE_MIN <= abs(z) <= _CUBE_MAX else z2 * z
    gamma = _gamma_series(z2, mu) if abs(z) < SMALL_Z else _gamma_direct(z, s, c, z2, z3, mu)
    return gamma, _delta_direct(z, s, c, z2, z3, mu)


def _gamma_at(z: float, mu: float) -> float:
    """Decay-rate bracket at one float z, z = 0 included."""
    if abs(z) < SMALL_Z:
        return _gamma_series(z * z, mu)
    return _brackets_at(z, mu)[0]


# ------------------------------------------------------------ array path

def _brackets_array(z: np.ndarray, mu: float):
    """(decay-rate bracket, level-shift bracket) on an array of z, 1-d or
    more; the shift is not finite where z = 0 or where it overflows."""
    import numpy as np

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s, c, z2 = np.sin(z), np.cos(z), z * z
        z3 = z2 * z
        exact = (np.abs(z) >= _CUBE_MIN) & (np.abs(z) <= _CUBE_MAX)
        z3[exact] = _cube(z[exact])
        gamma = _gamma_direct(z, s, c, z2, z3, mu)
        small = np.abs(z) < SMALL_Z
        gamma[small] = _gamma_series(z2[small], mu)
        return gamma, _delta_direct(z, s, c, z2, z3, mu)


def _finite_z(z) -> np.ndarray:
    import numpy as np

    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("z must be finite")
    return z


# ------------------------------------------------------------ dispatch

def _points(z):
    """z as a float for a Python number, as a list of floats for a list of
    numbers, else as a float array of one dimension or more; every value
    must be finite."""
    if isinstance(z, (int, float)):
        z = float(z)
        if not math.isfinite(z):
            raise ValueError("z must be finite")
        return z
    if isinstance(z, list):
        z = [float(v) for v in z]
        if not all(map(math.isfinite, z)):
            raise ValueError("z must be finite")
        return z
    z = _finite_z(z)
    return float(z) if z.ndim == 0 else z


def _lowest(z) -> float:
    """The smallest of the z from _points, inf if there are none."""
    if isinstance(z, float):
        return z
    if isinstance(z, list):
        return min(z, default=math.inf)
    return float(z.min()) if z.size else math.inf


def _gamma(z, mu: float):
    """Decay-rate bracket at the z from _points, in their form."""
    if isinstance(z, float):
        return _gamma_at(z, mu)
    if isinstance(z, list):
        return [_gamma_at(v, mu) for v in z]
    return _brackets_array(z, mu)[0]


def _rates(z, mu: float, far: float, scale: float, shift: float):
    """far - scale * (decay-rate bracket) and shift * (level-shift bracket)
    at the z from _points, in their form. The level shift needs z > 0 and
    must not overflow."""
    if _lowest(z) <= 0.0:
        raise ZeroDistance("level shift requires z > 0")
    # 1 / z**3 overflows below z of about 1e-103; on floats z**2 or z**3
    # may round to zero first, and Python raises where numpy gives inf.
    try:
        if isinstance(z, float):
            gamma, delta = _brackets_at(z, mu)
            finite = math.isfinite(delta)
            gamma, delta = far - scale * gamma, shift * delta
        elif isinstance(z, list):
            gamma, delta = [], []
            for v in z:
                g, d = _brackets_at(v, mu)
                gamma.append(far - scale * g)
                delta.append(shift * d)
            finite = all(map(math.isfinite, delta))
        else:
            import numpy as np

            gamma, delta = _brackets_array(z, mu)
            finite = bool(np.isfinite(delta).all())
            gamma, delta = far - scale * gamma, shift * delta
    except ZeroDivisionError:
        finite = False
    if not finite:
        raise ZeroDistance(f"level shift overflows at z = {_lowest(z)}")
    return gamma, delta


def gamma_bracket(z, mu_orient: float):
    """Distance-dependent bracket of the decay rate.

    Weighs the travelling-wave term with (1 - mu) and the near-field pair
    with (1 + mu); finite for all z >= 0.
    """
    return _gamma(_points(z), mu_orient)


def delta_bracket(z, mu_orient: float):
    """Distance-dependent bracket of the level shift; diverges as z -> 0."""
    return _rates(_points(z), mu_orient, 0.0, 0.0, 1.0)[1]


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
    z = _points(z)
    if _lowest(z) < 0.0:
        raise ValueError("z must be non-negative")
    r, eta_sq, other = _side_case(mirror, side)
    far, scale = (1.0 + r**2) / eta_sq + other, 3.0 * r / eta_sq
    gamma = _gamma(z, mu_orient)
    return [far - scale * g for g in gamma] if isinstance(z, list) else far - scale * gamma


def delta_mirr(mirror: MirrorSpec, mu_orient: float, z, side: str = "a"):
    """Mirror-induced shift of the excited level, in units of the free rate.

    Only the mirror-dependent part is reported; the distance-independent
    self-interaction piece is absorbed into the transition frequency.
    """
    _check_orientation(mu_orient)
    z = _points(z)
    r, eta_sq, _ = _side_case(mirror, side)
    return _rates(z, mu_orient, 0.0, 0.0, 3.0 * r / (2.0 * eta_sq))[1]


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
    part of the result. ``r`` and ``t`` are checked as
    ``MirrorSpec.from_preset(kind, r=r, t=t)`` checks them: ``symmetric``
    needs both and a mirror that has them, the other kinds take neither.
    """
    _check_orientation(mu_orient)
    z = _points(z)
    if kind not in ("perfect", "symmetric", "absorbing"):
        raise ValueError(f"unknown preset kind {kind!r}")
    MirrorSpec.from_preset(kind, r=r, t=t)
    if kind == "absorbing":
        if _lowest(z) <= 0.0:
            raise ZeroDistance("level shift requires z > 0")
        if isinstance(z, list):
            return RateResult(gamma_ratio=[1.0] * len(z), delta_ratio=[0.0] * len(z))
        return RateResult(gamma_ratio=1.0 + 0.0 * z, delta_ratio=0.0 * z)
    pref = 1.5 if kind == "perfect" else symmetric_prefactor(r, t)
    gamma, delta = _rates(z, mu_orient, 1.0, pref, 0.5 * pref)
    return RateResult(gamma_ratio=gamma, delta_ratio=delta)


def far_field_gamma(mirror: MirrorSpec, side: str = "a") -> float:
    """Limit of the decay-rate ratio far from the mirror (equals 1)."""
    r, eta_sq, other = _side_case(mirror, side)
    return (1.0 + r**2) / eta_sq + other
