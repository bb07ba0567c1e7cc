"""Parameter records and physical-constant plumbing.

All records are immutable dataclasses that validate themselves when built,
so a record that exists is admissible. They are safe to share across
threads and serialise to plain dicts with snake_case field names.
"""

from __future__ import annotations

import math
import operator
import sys
import warnings
from dataclasses import MISSING, asdict, dataclass, fields

from .errors import AbsorptionViolation, RateOutOfRange

TWO_PI = 2.0 * math.pi

# Roundoff slack for rate inequalities, e.g. r = t = 2**-0.5 squares to
# 1 + 2e-16 which must still count as lossless.
_RATE_TOL = 1e-9

# The two caps of mastereq live here because the CLI states them in its
# --help, which every command builds; mastereq would load for nothing.

# Largest step count round(t_final / dt) that mastereq.evolve and
# mastereq.jump_unravel take. On the way to a CSV file memory grows by about
# 0.34 kB per step (0.42 kB for an unraveling, 1.0 kB as JSON), so a million
# steps peak near 0.4 GB (1 GB); a larger count is rejected before any
# array is allocated.
MAX_STEPS = 1_000_000

# Largest trajectory count n_traj that mastereq.jump_unravel takes. Its
# trajectories are drawn and counted 32,768 at a time, so memory does not
# grow with their number, but run time does: evolve --unravel at the cap
# takes about 0.65 s over the default 5,000 steps on a 2-core x86 host,
# 11 s over MAX_STEPS steps; a larger count is rejected before any array
# is allocated.
MAX_TRAJECTORIES = 10_000_000


def _check_keys(what: str, given, allowed, required=()) -> None:
    """Raise ValueError naming any key outside ``allowed`` or missing from
    ``required``."""
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ValueError(f"{what}: unknown {', '.join(unknown)}")
    missing = [key for key in required if key not in given]
    if missing:
        raise ValueError(f"{what}: missing {', '.join(missing)}")


def _caller_stacklevel() -> int:
    """The ``warnings.warn`` stacklevel, for a warning raised by the function
    calling this one, that names the first caller outside this module: the
    code that built a record, not its dataclass ``__init__`` or a
    constructor such as ``GaussianPacket.moving``."""
    level, frame = 1, sys._getframe(1)
    while frame.f_back is not None and frame.f_globals is globals():
        level, frame = level + 1, frame.f_back
    return level


def _is_integer(value) -> bool:
    """True for an int or a numpy integer, False for a bool, a float or
    anything else: what an integer parameter takes."""
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def _check_finite(record) -> None:
    """Raise ValueError naming the first float field that is NaN or inf."""
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, (int, float)) and not math.isfinite(value):
            raise ValueError(f"{type(record).__name__}.{f.name} must be finite, got {value}")


class _Record:
    """Dict round trip shared by the parameter records."""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict):
        """Build from a dict keyed by field name; fields with a default may be
        left out, any other key missing or extra raises ValueError."""
        names = [f.name for f in fields(cls)]
        required = [f.name for f in fields(cls) if f.default is MISSING]
        _check_keys(f"{cls.__name__} keys", data, names, required)
        return cls(**data)


@dataclass(frozen=True)
class Medium(_Record):
    """Homogeneous, non-dispersive medium surrounding the mirror.

    The light speed is always derived from permittivity and permeability,
    never stored, so the three can not drift apart. Units are whatever the
    caller supplies (SI or normalised).
    """

    epsilon: float = 1.0
    mu_p: float = 1.0

    def __post_init__(self):
        _check_finite(self)
        if self.epsilon <= 0.0:
            raise ValueError(f"permittivity must be positive, got {self.epsilon}")
        if self.mu_p <= 0.0:
            raise ValueError(f"permeability must be positive, got {self.mu_p}")
        # c divides by the root of the product, which may overflow or underflow to 0.
        product = self.epsilon * self.mu_p
        if not 0.0 < product < math.inf:
            raise ValueError(f"epsilon * mu_p must be positive and finite, got {product}")

    @property
    def c(self) -> float:
        return 1.0 / math.sqrt(self.epsilon * self.mu_p)


# Each named preset: its constructor and the rate parameters it takes.
# Presets with rates also take optional phases.
_PRESETS = {"perfect": ("perfect", ()), "free": ("free_space", ()),
            "absorbing": ("absorbing", ()), "lossless": ("lossless", ("r",)),
            "symmetric": ("symmetric", ("r", "t"))}
_PHASES = ("phi_1", "phi_2", "phi_3", "phi_4")


@dataclass(frozen=True)
class MirrorSpec(_Record):
    """Transmission/reflection rates and the four surface phases.

    Rates are real and non-negative; all complex structure of the mirror
    response lives in the phases phi_1..phi_4. ``t_a``/``r_a`` act on light
    incident from the right half-space (side a), ``t_b``/``r_b`` on light
    from the left (side b). Construction raises RateOutOfRange for a rate
    outside [0, 1], AbsorptionViolation where t**2 + r**2 exceeds 1 on a
    side, and ValueError for a field that is not finite.
    """

    t_a: float
    t_b: float
    r_a: float
    r_b: float
    phi_1: float = 0.0
    phi_2: float = 0.0
    phi_3: float = 0.0
    phi_4: float = 0.0

    def __post_init__(self):
        for side in ("a", "b"):
            t = getattr(self, f"t_{side}")
            r = getattr(self, f"r_{side}")
            for name, value in ((f"t_{side}", t), (f"r_{side}", r)):
                if not (-_RATE_TOL <= value <= 1.0 + _RATE_TOL):
                    raise RateOutOfRange(f"{name} = {value} outside [0, 1]")
            if t * t + r * r > 1.0 + _RATE_TOL:
                raise AbsorptionViolation(
                    f"side {side}: t**2 + r**2 = {t * t + r * r} exceeds 1"
                )
        _check_finite(self)

    @classmethod
    def perfect(cls) -> "MirrorSpec":
        """Perfectly reflecting mirror on both sides."""
        return cls(t_a=0.0, t_b=0.0, r_a=1.0, r_b=1.0, phi_1=math.pi, phi_3=math.pi)

    @classmethod
    def free_space(cls) -> "MirrorSpec":
        """No mirror at all: full transmission, zero phase."""
        return cls(t_a=1.0, t_b=1.0, r_a=0.0, r_b=0.0)

    @classmethod
    def absorbing(cls) -> "MirrorSpec":
        """Surface that absorbs all incoming light."""
        return cls(t_a=0.0, t_b=0.0, r_a=0.0, r_b=0.0)

    @classmethod
    def symmetric(cls, r: float, t: float, **phases) -> "MirrorSpec":
        """Same rates on both sides."""
        return cls(t_a=t, t_b=t, r_a=r, r_b=r, **phases)

    @classmethod
    def lossless(cls, r: float, **phases) -> "MirrorSpec":
        """Symmetric non-absorbing mirror, t**2 = 1 - r**2.

        Default phases follow the symmetric beamsplitter convention
        (reflections shifted by pi, transmissions by pi/2), which satisfies
        the cross-side interference constraint and reduces to the perfect
        mirror at r = 1.
        """
        t = math.sqrt(max(0.0, 1.0 - r * r))
        phases.setdefault("phi_1", math.pi)
        phases.setdefault("phi_3", math.pi)
        phases.setdefault("phi_2", math.pi / 2.0)
        phases.setdefault("phi_4", math.pi / 2.0)
        return cls.symmetric(r=r, t=t, **phases)

    @classmethod
    def from_preset(cls, name: str, /, r: float | None = None,
                    t: float | None = None, **phases) -> "MirrorSpec":
        """Spec of a named preset.

        Each preset takes exactly the parameters it uses: ``perfect``,
        ``free`` and ``absorbing`` none, ``lossless`` ``r`` and optional
        phases, ``symmetric`` ``r``, ``t`` and optional phases. A missing or
        extra parameter, or an unknown name, raises ValueError.
        """
        if name not in _PRESETS:
            raise ValueError(f"unknown mirror preset {name!r}")
        builder, needed = _PRESETS[name]
        given = {key: value for key, value in (("r", r), ("t", t)) if value is not None}
        allowed = needed + (_PHASES if needed else ())
        _check_keys(f"mirror preset {name!r}", {**given, **phases}, allowed, needed)
        return getattr(cls, builder)(**given, **phases)


@dataclass(frozen=True)
class PhaseConstraintResult:
    """Outcome of the cross-side interference condition.

    ``status`` is one of ``satisfied``, ``violated`` or ``not_applicable``;
    ``residual`` is the circular distance of phi_1 - phi_2 + phi_3 - phi_4
    from an odd multiple of pi (None when not applicable).
    """

    status: str
    residual: float | None = None

    @property
    def satisfied(self) -> bool:
        return self.status == "satisfied"


def phase_constraint_check(spec: MirrorSpec) -> PhaseConstraintResult:
    """Check that maximal interference on one side forces minimal on the other.

    The condition requires phi_1 - phi_2 + phi_3 - phi_4 to be an odd
    multiple of pi, to within 1e-9. When either both transmissions or both reflections
    vanish there is no cross-side interference to constrain, and the check
    reports ``not_applicable``.
    """
    if spec.t_a * spec.t_b == 0.0 or spec.r_a * spec.r_b == 0.0:
        return PhaseConstraintResult(status="not_applicable")
    total = spec.phi_1 - spec.phi_2 + spec.phi_3 - spec.phi_4
    # Distance of `total` from the nearest odd multiple of pi, folded to
    # [0, pi]. Adding 2*pi to any single phase leaves this unchanged.
    residual = abs(math.remainder(total - math.pi, TWO_PI))
    status = "satisfied" if residual <= 1e-9 else "violated"
    return PhaseConstraintResult(status=status, residual=residual)


@dataclass(frozen=True)
class AtomSpec(_Record):
    """Two-level atom with its transition data and supplied constants.

    The electron charge and reduced Planck constant are inputs rather than
    baked-in SI values, which keeps the library unit-agnostic. ``x`` is the
    signed atom position relative to the mirror plane (x > 0 is side a) and
    ``mu_orient`` the squared projection of the unit dipole onto the mirror
    normal (0 parallel, 1 perpendicular).
    """

    omega_0: float
    dipole_norm: float
    mu_orient: float
    x: float
    e: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        _check_finite(self)
        if self.omega_0 <= 0.0:
            raise ValueError(f"omega_0 must be positive, got {self.omega_0}")
        if not 0.0 <= self.mu_orient <= 1.0:
            raise ValueError(f"mu_orient must lie in [0, 1], got {self.mu_orient}")
        if self.dipole_norm < 0.0:
            raise ValueError("dipole_norm must be non-negative")
        if self.e <= 0.0 or self.hbar <= 0.0:
            raise ValueError("e and hbar must be positive")

    def k0(self, medium: Medium) -> float:
        """Transition wavenumber omega_0 / c in the given medium."""
        return self.omega_0 / medium.c


@dataclass(frozen=True)
class GaussianPacket(_Record):
    """Classical Gaussian wave packet travelling along the x axis.

    The real field at t = 0 is

        E(x) = 2 e0 exp(-(x - x0)**2 / (2 sigma**2)) cos(k0_carrier x + xi_init)

    and propagates rigidly at the speed of light. The carrier wavenumber is
    signed: negative for left-movers, positive for right-movers.
    """

    e0: float
    x0: float
    sigma: float
    k0_carrier: float
    side: str = "a"
    xi_init: float = 0.0

    def __post_init__(self):
        _check_finite(self)
        # The envelope divides by sigma**2, which may overflow or underflow to 0.
        if not (self.sigma > 0.0 and 0.0 < self.sigma * self.sigma < math.inf):
            raise ValueError(f"sigma = {self.sigma}: need sigma > 0 and 0 < sigma**2 < inf")
        if self.side not in ("a", "b"):
            raise ValueError(f"side must be 'a' or 'b', got {self.side!r}")
        if self.k0_carrier == 0.0:
            raise ValueError("k0_carrier must be non-zero")
        # Soft localisation check: the packet should start well inside its
        # nominal half-space.
        on_a = self.x0 >= 3.0 * self.sigma
        on_b = self.x0 <= -3.0 * self.sigma
        if (self.side == "a" and not on_a) or (self.side == "b" and not on_b):
            warnings.warn(
                f"packet centred at x0={self.x0} is not well localised on side "
                f"{self.side} (|x0| < 3 sigma)",
                stacklevel=_caller_stacklevel(),
            )

    @classmethod
    def moving(cls, e0, x0, sigma, k0_carrier, side="a", xi_init=0.0) -> "GaussianPacket":
        """Same as the constructor: the carrier sign gives the direction."""
        return cls(e0=e0, x0=x0, sigma=sigma, k0_carrier=k0_carrier,
                   side=side, xi_init=xi_init)

    @property
    def sign(self) -> float:
        """Travel direction along x: +1.0 for a right-mover, -1.0 for a left-mover."""
        return 1.0 if self.k0_carrier > 0 else -1.0

    def center(self, t: float, medium: Medium) -> float:
        """Envelope centre after free propagation for a time t."""
        return self.x0 + self.sign * medium.c * t
