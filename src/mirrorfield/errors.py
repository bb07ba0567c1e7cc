"""Exception types shared across the package."""


class MirrorFieldError(Exception):
    """Base class for all mirrorfield errors."""


class RateOutOfRange(MirrorFieldError):
    """A transmission or reflection rate lies outside [0, 1]."""


class AbsorptionViolation(MirrorFieldError):
    """t**2 + r**2 exceeds 1 on one mirror side."""


class NegativeTime(MirrorFieldError):
    """Scattered-field superpositions are only defined for t >= 0."""


class GridTooCoarse(MirrorFieldError):
    """A spatial quadrature failed its step-halving convergence check."""


class BandwidthNotCovered(MirrorFieldError):
    """A wavenumber grid does not cover the bandwidth of a packet."""


class DegenerateNormalisation(MirrorFieldError):
    """Exactly one field-normalisation denominator vanished."""


class ZeroDistance(MirrorFieldError):
    """The level shift diverges at zero atom-mirror distance."""


class QuadratureNotConverged(MirrorFieldError):
    """Doubling the quadrature order moved the result beyond tolerance, or
    the Newton iteration for a rule's nodes did not converge."""


class StepTooLarge(MirrorFieldError):
    """Integrator time step too large for the requested rates."""


class IntegratorInvariantBroken(MirrorFieldError):
    """The integrated density matrix lost unit trace, hermiticity or
    positivity; names the invariant and the first step that broke it."""

    def __init__(self, invariant: str, step: int):
        super().__init__(f"{invariant} lost beyond tolerance at step {step}")
        self.invariant = invariant
        self.step = step
