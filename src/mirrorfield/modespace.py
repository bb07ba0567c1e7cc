"""Discretised wavenumber modes and coherent-amplitude observables.

The field is represented by complex coherent amplitudes on a symmetric
wavenumber grid, one sequence per Hilbert-space copy (side a and side b).
Expectation values of the field observables are then exact classical
functionals of the amplitudes, which makes the operator-level energy
bookkeeping testable without any Fock-space machinery. The composite
Simpson rule with its step-halving check, which integrates the spatial
side of those energy checks, lives here too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import GaussianPacket, Medium
from .errors import BandwidthNotCovered, GridTooCoarse

# Width, in units of 1/sigma, that a grid must cover around the carrier.
_COVERAGE = 6.0
# Field sums over fewer x samples than this stay dense. With 256 modes the
# dense sum is the faster one below about 25 samples (2-core x86, numpy 2.4).
_CHIRP_MIN_POINTS = 32
# Slack, in ulps of the largest |value|, for reading samples as lattice points.
_LATTICE_ULPS = 8


@dataclass(frozen=True)
class ModeGrid:
    """Uniform symmetric wavenumber grid excluding k = 0.

    ``k`` is ascending, {-K, ..., -dk, dk, ..., K}; ``area`` is the
    quantisation cross-section in the transverse plane.
    """

    k: np.ndarray
    dk: float
    area: float = 1.0

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        object.__setattr__(self, "k", k)
        if self.dk <= 0.0:
            raise ValueError("grid spacing must be positive")
        if k.size < 2 or k.size % 2 != 0:
            raise ValueError("grid needs an even number of modes")
        if np.any(k == 0.0):
            raise ValueError("k = 0 is excluded from the grid")
        # Max-abs comparisons with np.allclose's bounds. A finite bound and
        # the exact-equality fallback keep allclose's rule that an infinite
        # entry is close only to itself, so a grid holding inf or NaN fails
        # the same check as it would there, and inf - inf does not warn.
        tol = 1e-12 * abs(k[-1])
        with np.errstate(invalid="ignore"):
            symmetric = (np.abs(k + k[::-1]).max() <= tol < math.inf
                         or np.array_equal(k, -k[::-1]))
            steps = np.diff(k[k.size // 2:])
            uniform = (not steps.size
                       or np.abs(steps - self.dk).max() <= 1e-9 * self.dk < math.inf
                       or np.all(steps == self.dk))
        if not symmetric:
            raise ValueError("grid must be symmetric under k -> -k")
        if not uniform:
            raise ValueError("grid spacing is not uniform")

    @classmethod
    def symmetric(cls, k_max: float, n_half: int, area: float = 1.0) -> "ModeGrid":
        dk = k_max / n_half
        k_pos = dk * np.arange(1, n_half + 1)
        return cls(k=np.concatenate([-k_pos[::-1], k_pos]), dk=dk, area=area)

    @classmethod
    def for_packet(cls, packet: GaussianPacket, n_modes: int = 4096,
                   area: float = 1.0) -> "ModeGrid":
        """Default grid: n_modes modes out to 8 bandwidths 1/sigma past the carrier."""
        k_max = abs(packet.k0_carrier) + 8.0 / packet.sigma
        return cls.symmetric(k_max=k_max, n_half=n_modes // 2, area=area)

    @property
    def n_half(self) -> int:
        return self.k.size // 2

    @property
    def k_pos(self) -> np.ndarray:
        return self.k[self.n_half:]

    def omega(self, medium: Medium) -> np.ndarray:
        return np.abs(self.k) * medium.c


@dataclass(frozen=True)
class ModeAmplitudes:
    """Coherent amplitudes for the two Hilbert-space copies."""

    alpha_a: np.ndarray
    alpha_b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha_a, dtype=complex)
        b = np.asarray(self.alpha_b, dtype=complex)
        if a.shape != b.shape:
            raise ValueError("amplitude sequences must share the grid")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "alpha_a", a)
        object.__setattr__(self, "alpha_b", b)

    @classmethod
    def vacuum(cls, grid: ModeGrid) -> "ModeAmplitudes":
        zeros = np.zeros(grid.k.size, dtype=complex)
        return cls(alpha_a=zeros, alpha_b=zeros.copy())

    def side(self, side: str) -> np.ndarray:
        if side == "a":
            return self.alpha_a
        if side == "b":
            return self.alpha_b
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")


def packet_to_amplitudes(packet: GaussianPacket, grid: ModeGrid, medium: Medium,
                         hbar: float = 1.0) -> ModeAmplitudes:
    """Coherent amplitudes whose field expectation reproduces the packet.

    Inverts the mode expansion for a Gaussian: the amplitude magnitude is a
    Gaussian of width 1/sigma around the signed carrier. The grid must cover
    carrier +- 6/sigma strictly inside (dk, k_max].
    """
    k0 = abs(packet.k0_carrier)
    lo, hi = k0 - _COVERAGE / packet.sigma, k0 + _COVERAGE / packet.sigma
    if lo < grid.dk or hi > grid.k_pos[-1]:
        raise BandwidthNotCovered(
            f"packet bandwidth [{lo:.4g}, {hi:.4g}] not inside grid "
            f"({grid.dk:.4g}, {grid.k_pos[-1]:.4g}]"
        )
    k = grid.k
    spectrum = (
        packet.e0 * packet.sigma * math.sqrt(2.0 * math.pi)
        * np.exp(-0.5 * packet.sigma**2 * (k - packet.k0_carrier) ** 2)
        * np.exp(1j * (packet.k0_carrier - k) * packet.x0)
        * np.exp(1j * packet.xi_init)
    )
    omega = grid.omega(medium)
    alpha = -1j * np.sqrt(medium.epsilon * grid.area / (math.pi * hbar * omega)) * spectrum
    zeros = np.zeros_like(alpha)
    if packet.side == "a":
        return ModeAmplitudes(alpha_a=alpha, alpha_b=zeros)
    return ModeAmplitudes(alpha_a=zeros, alpha_b=alpha)


def _dense_field_sum(weights: np.ndarray, k: np.ndarray, x) -> np.ndarray:
    """2 Re sum_k w_k exp(i k x), chunked over x to bound memory."""
    x = np.asarray(x, dtype=float)
    flat = np.atleast_1d(x).ravel()
    out = np.empty(flat.size)
    step = 256
    for start in range(0, flat.size, step):
        block = flat[start:start + step]
        out[start:start + step] = 2.0 * (
            np.exp(1j * np.outer(block, k)) @ weights
        ).real
    return out.reshape(x.shape) if x.shape else float(out[0])


def _lattice(values: np.ndarray):
    """Read 1-D samples as lattice points ``centre + step * (i - (n - 1) / 2)``.

    Returns (centre, step, i, n), with one integer index i per sample, or
    None when a sample is off the lattice by more than _LATTICE_ULPS ulps
    of max|values| or the samples fill less than a quarter of it.
    """
    lo, hi = values.min(), values.max()
    tol = _LATTICE_ULPS * np.finfo(float).eps * max(abs(lo), abs(hi))
    gaps = np.diff(values)
    if not gaps.min() >= 0.0:  # sort only samples that are not ascending yet
        gaps = np.diff(np.sort(values))
    gaps = gaps[gaps > tol]
    if not (np.isfinite(hi - lo) and gaps.size):
        return None
    span = round((hi - lo) / gaps.min())
    if span + 1 > 4 * values.size:
        return None
    centre, step = 0.5 * (lo + hi), (hi - lo) / span
    index = np.rint((values - lo) / step).astype(np.int64)
    if np.abs(centre + step * (index - 0.5 * span) - values).max() > tol:
        return None
    return centre, step, index, span + 1


def _chirp(scale: float, m: np.ndarray) -> np.ndarray:
    """exp(i scale m**2) for integer or half-integer m.

    A 20-bit head of ``scale`` times m**2 is exact for |m| < 46000, so a
    phase of a thousand radians is not rounded to its own ulp; only the
    small tail product is.
    """
    mantissa, exponent = math.frexp(scale)
    head = math.ldexp(round(math.ldexp(mantissa, 20)), exponent - 20)
    m2 = m * m
    out = np.exp(1j * (head * m2))
    out *= np.exp(1j * ((scale - head) * m2))
    return out


@functools.lru_cache(maxsize=1)
def _chirp_kernel(a: float, nk: int, nx: int) -> np.ndarray:
    """The transformed convolution kernel exp(-i a (q - p)**2 / 2) of
    _chirp_field_sum, zero-padded to a power of two. Read-only: the E and
    B sums of one energy check share it."""
    # Lag j - i between the x and k lattice indices; q - p = lag + (nk - nx) / 2.
    lags = np.arange(1 - nk, nx)
    size = 1 << (nx + nk - 2).bit_length()
    kernel = np.zeros(size, dtype=complex)
    kernel[lags % size] = _chirp(-0.5 * a, lags + 0.5 * (nk - nx))
    np.fft.fft(kernel, out=kernel)
    kernel.flags.writeable = False
    return kernel


def _chirp_field_sum(weights: np.ndarray, k_lattice, x_lattice) -> np.ndarray:
    """2 Re sum_k w_k exp(i k x) for k and x on lattices, by chirp-z.

    With k = k_c + dk p and x = x_c + dx q, p and q centred on their
    lattices, k x = k_c x + dk x_c p + a p q with a = dk dx. Writing
    p q = (p**2 + q**2 - (q - p)**2) / 2 turns the sum over p into a
    convolution in q - p, done with the FFT (Bluestein 1970). Centring
    keeps the chirp phases a m**2 / 2, and so their rounding, small.
    """
    k_c, dk, k_index, nk = k_lattice
    x_c, dx, x_index, nx = x_lattice
    a = dk * dx
    p = np.arange(nk) - 0.5 * (nk - 1)
    q = np.arange(nx) - 0.5 * (nx - 1)
    kernel = _chirp_kernel(a, nk, nx)
    # u, zero-padded to the transform size, is transformed, convolved and
    # transformed back in this one buffer.
    conv = np.zeros(kernel.size, dtype=complex)
    u = conv[:nk]
    np.add.at(u, k_index, weights)
    u *= np.exp(1j * (dk * x_c) * p) * _chirp(0.5 * a, p)
    np.fft.fft(conv, out=conv)
    conv *= kernel
    np.fft.ifft(conv, out=conv)
    out = np.exp(1j * k_c * (x_c + dx * q))
    out *= _chirp(0.5 * a, q)
    out *= conv[:nx]
    return 2.0 * out.real[x_index]


def _field_sum(weights: np.ndarray, k: np.ndarray, x) -> np.ndarray:
    """2 Re sum_k w_k exp(i k x).

    A 1-D x of at least _CHIRP_MIN_POINTS lattice points, with k on a
    lattice too (a ModeGrid is one, with its k = 0 slot empty), goes
    through the chirp-z transform in O((Nx + Nk) log); a scalar, 2-D,
    irregular or short x through the dense O(Nx Nk) sum.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1 and x.size >= _CHIRP_MIN_POINTS:
        x_lattice = _lattice(x)
        k_lattice = _lattice(np.asarray(k, dtype=float))
        if x_lattice is not None and k_lattice is not None:
            return _chirp_field_sum(weights, k_lattice, x_lattice)
    return _dense_field_sum(weights, k, x)


def expect_E_free(amps: ModeAmplitudes, grid: ModeGrid, medium: Medium, x,
                  side: str = "a", hbar: float = 1.0):
    """Expectation of the free-space electric field for one copy."""
    omega = grid.omega(medium)
    prefac = 0.5j * np.sqrt(hbar * omega / (math.pi * medium.epsilon * grid.area))
    return _field_sum(prefac * amps.side(side) * grid.dk, grid.k, x)


def expect_B_free(amps: ModeAmplitudes, grid: ModeGrid, medium: Medium, x,
                  side: str = "a", hbar: float = 1.0):
    """Expectation of the free-space magnetic field for one copy.

    Sign convention matches the classical packets: a right-moving coherent
    packet has B = +E/c.
    """
    omega = grid.omega(medium)
    prefac = (0.5j / medium.c) * np.sign(grid.k) * np.sqrt(
        hbar * omega / (math.pi * medium.epsilon * grid.area))
    return _field_sum(prefac * amps.side(side) * grid.dk, grid.k, x)


def xi_transform(amps: ModeAmplitudes, grid: ModeGrid, side: str = "a") -> np.ndarray:
    """Standing-wave (antisymmetric) amplitudes for k > 0.

    xi_k = (alpha_k - alpha_{-k}) / sqrt(2); the negative-k half follows
    from xi_{-k} = -xi_k and is not stored.
    """
    alpha = amps.side(side)
    n = grid.n_half
    return (alpha[n:] - alpha[:n][::-1]) / math.sqrt(2.0)


def symmetric_transform(amps: ModeAmplitudes, grid: ModeGrid, side: str = "a") -> np.ndarray:
    """Orthogonal symmetric combination (alpha_k + alpha_{-k}) / sqrt(2)."""
    alpha = amps.side(side)
    n = grid.n_half
    return (alpha[n:] + alpha[:n][::-1]) / math.sqrt(2.0)


def expect_H_sys(amps: ModeAmplitudes, grid: ModeGrid, medium: Medium,
                 hbar: float = 1.0) -> float:
    """Total oscillator energy of both copies, zero-point constant dropped.

    Uses exact compensated summation so the result is independent of mode
    ordering.
    """
    omega = grid.omega(medium)
    terms = hbar * omega * (np.abs(amps.alpha_a) ** 2 + np.abs(amps.alpha_b) ** 2) * grid.dk
    return math.fsum(terms.tolist())


def expect_H_field_one_sided(amps: ModeAmplitudes, grid: ModeGrid, medium: Medium,
                             hbar: float = 1.0, side: str = "a") -> float:
    """Field energy in front of a one-sided perfect mirror.

    Only the standing-wave modes carry field energy; the remainder of
    the system energy belongs to the mirror surface. The opposite copy
    must be empty.
    """
    other = "b" if side == "a" else "a"
    if np.any(amps.side(other) != 0.0):
        raise ValueError(f"one-sided energy requires empty side {other}")
    xi = xi_transform(amps, grid, side=side)
    omega_pos = grid.k_pos * medium.c
    terms = hbar * omega_pos * np.abs(xi) ** 2 * grid.dk
    return math.fsum(terms.tolist())


def expect_H_mirr_one_sided(amps: ModeAmplitudes, grid: ModeGrid, medium: Medium,
                            hbar: float = 1.0, side: str = "a") -> float:
    """Mirror-surface energy, realised as system minus field energy."""
    return expect_H_sys(amps, grid, medium, hbar=hbar) - expect_H_field_one_sided(
        amps, grid, medium, hbar=hbar, side=side)


def expect_E_mirr_one_sided(amps: ModeAmplitudes, grid: ModeGrid, medium: Medium,
                            x, side: str = "a", hbar: float = 1.0):
    """Electric-field expectation in front of a one-sided perfect mirror.

    Difference of the free-field expectation at x and -x, normalised by
    sqrt(2); identically zero on the far side and at the surface.
    """
    x = np.asarray(x, dtype=float)
    here = expect_E_free(amps, grid, medium, x, side=side, hbar=hbar)
    image = expect_E_free(amps, grid, medium, -x, side=side, hbar=hbar)
    mask = np.where(x >= 0.0, 1.0, 0.0)
    out = (here - image) / math.sqrt(2.0) * mask
    return out if x.shape else float(out)


def expect_E_mirr_via_xi(amps: ModeAmplitudes, grid: ModeGrid, medium: Medium,
                         x, side: str = "a", hbar: float = 1.0):
    """Same observable as expect_E_mirr_one_sided, summed over xi modes.

    Second route for cross-checking: reconstructs the full antisymmetric
    amplitude set from the k > 0 half and feeds it through the plain
    free-field sum.
    """
    xi = xi_transform(amps, grid, side=side)
    full = np.concatenate([-xi[::-1], xi])
    omega = grid.omega(medium)
    prefac = 0.5j * np.sqrt(hbar * omega / (math.pi * medium.epsilon * grid.area))
    x = np.asarray(x, dtype=float)
    vals = _field_sum(prefac * full * grid.dk, grid.k, x)
    mask = np.where(x >= 0.0, 1.0, 0.0)
    out = vals * mask
    return out if x.shape else float(out)


def evolve_amplitudes(amps: ModeAmplitudes, grid: ModeGrid, medium: Medium,
                      t: float) -> ModeAmplitudes:
    """Free time evolution: every mode rotates at its own frequency."""
    phase = np.exp(-1j * grid.omega(medium) * t)
    return ModeAmplitudes(alpha_a=amps.alpha_a * phase,
                          alpha_b=amps.alpha_b * phase)


# Relative agreement the energy quadratures require of a grid and the one
# of half its step.
_REL_TOL = 1e-6


def _simpson(y: np.ndarray, dx: float) -> float:
    n = y.size
    if n < 3 or n % 2 == 0:
        raise ValueError("composite Simpson needs an odd number of samples >= 3")
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(np.dot(weights, y)) * dx / 3.0


def simpson_with_check(y: np.ndarray, dx: float) -> float:
    """Composite Simpson with a step-halving consistency check.

    Compares the full-resolution result against the one from every second
    sample and raises GridTooCoarse when they disagree beyond a relative
    1e-6. Needs 4m+1 samples.
    """
    y = np.asarray(y, dtype=float)
    if (y.size - 1) % 4 != 0:
        raise ValueError("need 4m+1 samples to compare steps h and 2h")
    fine = _simpson(y, dx)
    coarse = _simpson(y[::2], 2.0 * dx)
    scale = max(abs(fine), abs(coarse))
    if scale > 0.0 and abs(fine - coarse) > _REL_TOL * scale:
        raise GridTooCoarse(
            f"Simpson results for h and 2h differ by {abs(fine - coarse):.3e} "
            f"(relative {abs(fine - coarse) / scale:.3e})"
        )
    return fine
