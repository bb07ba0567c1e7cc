"""Classical wave packets, mirror-image superpositions and field energy.

Propagation is analytic (closed-form Gaussians translated at the speed of
light), so no PDE discretisation error enters downstream checks. Scattered
fields are assembled as weighted superpositions of free-space solutions:
each reflected copy is evaluated at the mirrored position, each transmitted
copy keeps its argument, and both pick up a mirror surface phase on the
carrier only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GaussianPacket, Medium, MirrorSpec
from .errors import GridTooCoarse, NegativeTime


def heaviside(x):
    """Step function with the surface convention theta(0) = 1."""
    return np.where(np.asarray(x, dtype=float) >= 0.0, 1.0, 0.0)


def packet_complex_field(packet: GaussianPacket, x, t: float, medium: Medium,
                         extra_phase: float = 0.0) -> np.ndarray:
    """Analytic-signal electric field of one freely propagating packet.

    The physical field is twice the real part. ``extra_phase`` shifts the
    carrier only, leaving the envelope untouched.
    """
    x = np.asarray(x, dtype=float)
    c = medium.c
    omega = abs(packet.k0_carrier) * c
    env = np.exp(-((x - packet.x0 - packet.sign * c * t) ** 2) / (2.0 * packet.sigma**2))
    carrier = np.exp(
        1j * (packet.k0_carrier * x - omega * t + packet.xi_init + extra_phase)
    )
    return packet.e0 * env * carrier


def free_field_1d(packet: GaussianPacket, x, t: float,
                  medium: Medium = Medium()):
    """(E, B) of a single packet in free space.

    B = +E/c for right-movers and -E/c for left-movers, the sign demanded
    by the one-dimensional Maxwell pair.
    """
    e_field = 2.0 * packet_complex_field(packet, x, t, medium).real
    b_field = packet.sign * e_field / medium.c
    return e_field, b_field


def mirror_field_1d_perfect(packets, x, t: float, medium: Medium = Medium()):
    """(E, B) in front of a one-sided perfectly reflecting mirror at x = 0.

    The electric field is the incoming free field minus its image at -x;
    the magnetic image enters with a plus sign. Both vanish identically for
    x < 0.
    """
    x = np.asarray(x, dtype=float)
    mask = heaviside(x)
    e_field = np.zeros_like(x)
    b_field = np.zeros_like(x)
    for p in packets:
        e_here, b_here = free_field_1d(p, x, t, medium)
        e_image, b_image = free_field_1d(p, -x, t, medium)
        e_field += e_here - e_image
        b_field += b_here + b_image
    return e_field * mask, b_field * mask


@dataclass(frozen=True)
class ScatterScene:
    """Mirror, media and the packets approaching it from both sides.

    The packets are GaussianPacket records; each carries the side it
    starts on.
    """

    mirror: MirrorSpec
    packets_a: tuple = ()
    packets_b: tuple = ()
    medium: Medium = Medium()

    def __post_init__(self):
        object.__setattr__(self, "packets_a", tuple(self.packets_a))
        object.__setattr__(self, "packets_b", tuple(self.packets_b))
        for p in self.packets_a:
            if p.side != "a":
                raise ValueError("packets_a contains a packet tagged side b")
        for p in self.packets_b:
            if p.side != "b":
                raise ValueError("packets_b contains a packet tagged side a")


def _side_fields_1d(scene: ScatterScene, x, t: float):
    """Complex (E, B) of the light from each side, as ((E_a, B_a), (E_b, B_b)).

    A reflected copy is the free field at -x with the reflection phase; its
    B enters with a minus sign. A transmitted copy is the free field at x
    with the transmission phase on the carrier. Each side's light starts in
    its own half-space; the surface x = 0 belongs to side a.
    """
    if t < 0.0:
        raise NegativeTime(
            "scattered superpositions are invalid for t < 0: amplitudes would "
            "need to grow when crossing the mirror backwards"
        )
    x = np.asarray(x, dtype=float)
    c = scene.medium.c
    m = scene.mirror
    plus = heaviside(x)
    out = []
    for packets, r, tr, phase_refl, phase_trans, own in (
            (scene.packets_a, m.r_a, m.t_a, m.phi_1, m.phi_4, plus),
            (scene.packets_b, m.r_b, m.t_b, m.phi_3, m.phi_2, 1.0 - plus)):
        other = 1.0 - own
        trans = tr * np.exp(1j * phase_trans)
        e_side = np.zeros(x.shape, dtype=complex)
        b_side = np.zeros(x.shape, dtype=complex)
        for p in packets:
            here = packet_complex_field(p, x, t, scene.medium)
            refl = r * packet_complex_field(p, -x, t, scene.medium, phase_refl)
            through = trans * here * other
            e_side += (here + refl) * own + through
            b_side += (p.sign / c) * ((here - refl) * own + through)
        out.append((e_side, b_side))
    return out


def mirror_fields_1d(scene: ScatterScene, x, t: float):
    """(E, B) of the two-sided scattered field; defined for t >= 0 only."""
    (e_a, b_a), (e_b, b_b) = _side_fields_1d(scene, x, t)
    return 2.0 * (e_a + e_b).real, 2.0 * (b_a + b_b).real


def mirror_field_1d(scene: ScatterScene, x, t: float):
    """Electric field of the two-sided scattered solution."""
    return mirror_fields_1d(scene, x, t)[0]


def mirror_field_1d_by_side(scene: ScatterScene, x, t: float):
    """Electric field split by the side the light originated from."""
    (e_a, _), (e_b, _) = _side_fields_1d(scene, x, t)
    return 2.0 * e_a.real, 2.0 * e_b.real


def _energy_density(e_field, b_field, medium: Medium) -> np.ndarray:
    """Energy per unit length and unit area, (epsilon E**2 + B**2 / mu) / 2."""
    return 0.5 * (
        medium.epsilon * np.asarray(e_field) ** 2
        + np.asarray(b_field) ** 2 / medium.mu_p
    )


def field_energy_1d(e_field: np.ndarray, b_field: np.ndarray, dx: float,
                    medium: Medium = Medium()) -> float:
    """Electromagnetic energy on a uniform grid of (E, B) samples.

    The grid must cover the field support (envelope below 1e-8 of the peak
    outside) and carry 4m+1 points so the step-halving check can run.
    """
    from .modespace import simpson_with_check

    return simpson_with_check(_energy_density(e_field, b_field, medium), dx)


def energy_between(field_fn, x_min: float, x_max: float,
                   medium: Medium = Medium(), abs_tol: float = 0.0) -> float:
    """Field energy on [x_min, x_max], refining the grid until converged.

    ``field_fn(x_array) -> (E, B)``. The bounds and their span must be
    finite, with x_min < x_max, else ValueError. From 1025 samples, the
    sample count doubles until two successive Simpson results agree to a
    relative 1e-6; ten doublings without that raise GridTooCoarse. ``abs_tol`` ends
    refinement for integrals that are zero up to cancellation noise
    (complete destructive interference), where a relative criterion can
    never be met.
    """
    from .modespace import _REL_TOL, _simpson

    # A finite span rules out infinite bounds too.
    if not (x_min < x_max and math.isfinite(float(x_max) - float(x_min))):
        raise ValueError("energy_between needs finite x_min < x_max and x_max - x_min, "
                         f"got [{x_min}, {x_max}]")
    n = 1025
    previous = None
    for _ in range(11):
        x = np.linspace(x_min, x_max, n)
        current = _simpson(_energy_density(*field_fn(x), medium), x[1] - x[0])
        if previous is not None:
            scale = max(abs(current), abs(previous))
            if scale <= abs_tol or abs(current - previous) <= _REL_TOL * scale:
                return current
        previous = current
        n = 2 * n - 1
    raise GridTooCoarse(f"energy integral did not converge to {_REL_TOL} after 10 doublings")


def interference_intensities(mirror: MirrorSpec, e0_a: float, e0_b: float,
                             xi_1: float, xi_2: float):
    """Outgoing single-frequency intensities on the right and left.

    Two monochromatic waves of real amplitude e0_a (from the right) and
    e0_b (from the left) leave the mirror as superpositions of a reflected
    and a transmitted part; the intensities depend on the initial phases
    only through xi_2 - xi_1.
    """
    right = mirror.r_a * e0_a * np.exp(1j * (xi_1 + mirror.phi_1)) \
        + mirror.t_b * e0_b * np.exp(1j * (xi_2 + mirror.phi_2))
    left = mirror.t_a * e0_a * np.exp(1j * (xi_1 + mirror.phi_4)) \
        + mirror.r_b * e0_b * np.exp(1j * (xi_2 + mirror.phi_3))
    return float(np.abs(right) ** 2), float(np.abs(left) ** 2)
