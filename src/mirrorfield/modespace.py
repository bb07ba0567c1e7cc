"""Discretised wavenumber modes and coherent-amplitude observables.

The field is represented by complex coherent amplitudes on a symmetric
wavenumber grid, one sequence per Hilbert-space copy (side a and side b).
A ModeGrid is built from its largest wavenumber and its number of
positive modes, so it is uniform, symmetric and free of k = 0 by
construction.
Expectation values of the field observables are then exact classical
functionals of the amplitudes, which makes the operator-level energy
bookkeeping testable without any Fock-space machinery. The observables
read copy a, and the one-sided mirror is the perfect mirror with its
field on side a; copy b is copy a under x -> -x. A field sum over
an x that np.linspace made runs as a chirp-z transform on the grid's own
mode lattice, dk times the integers; any other x, a dense sum. The composite
Simpson rule with its step-halving check, which integrates the spatial
side of those energy checks, lives here too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import GaussianPacket, Medium, _is_integer
from .errors import BandwidthNotCovered, GridTooCoarse

# Width, in units of 1/sigma, that a grid must cover around the carrier.
_COVERAGE = 6.0
# Field sums over fewer x samples than this stay dense. With 256 modes the
# dense sum is the faster one below about 25 samples (2-core x86, numpy 2.4).
_CHIRP_MIN_POINTS = 32


@dataclass(frozen=True)
class ModeGrid:
    """Uniform symmetric wavenumber grid excluding k = 0.

    Built from ``k_max`` and ``n_half``: the spacing is dk = k_max / n_half
    and ``k`` is ascending, {-k_max, ..., -dk, dk, ..., k_max}, 2 n_half
    modes. ``area`` is the quantisation cross-section in the transverse
    plane. ``dk`` and ``k`` are derived, so they take no part in ``==``.
    """

    k_max: float
    n_half: int
    area: float = 1.0
    dk: float = field(init=False, repr=False, compare=False)
    k: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.k_max < math.inf:
            raise ValueError(f"k_max must be positive and finite, got {self.k_max}")
        if not _is_integer(self.n_half) or self.n_half < 1:
            raise ValueError(f"n_half must be an integer of at least 1, got {self.n_half!r}")
        if not 0.0 < self.area < math.inf:
            raise ValueError(f"area must be positive and finite, got {self.area}")
        dk = self.k_max / self.n_half
        # The top mode dk * n_half may round past the largest float, and dk
        # may underflow to 0 for a subnormal k_max.
        if not (dk > 0.0 and float(dk) * float(self.n_half) < math.inf):
            raise ValueError(f"k_max = {self.k_max} with n_half = {self.n_half} "
                             "puts a mode at 0 or infinity")
        k_pos = dk * np.arange(1, self.n_half + 1)
        object.__setattr__(self, "dk", dk)
        object.__setattr__(self, "k", np.concatenate([-k_pos[::-1], k_pos]))
        self.k.flags.writeable = False  # the chirp-z sum reads dk and n_half, not k

    @classmethod
    def for_packet(cls, packet: GaussianPacket, area: float = 1.0) -> "ModeGrid":
        """Default grid: 4096 modes out to 8 bandwidths 1/sigma past the carrier."""
        k_max = abs(packet.k0_carrier) + 8.0 / packet.sigma
        return cls(k_max=k_max, n_half=2048, area=area)

    @property
    def k_pos(self) -> np.ndarray:
        return self.k[self.n_half:]

    def omega(self, medium: Medium) -> np.ndarray:
        return np.abs(self.k) * medium.c


@dataclass(frozen=True, eq=False)
class ModeAmplitudes:
    """Coherent amplitudes for the two Hilbert-space copies.

    Both sequences are read-only copies of the arrays given, so a later
    write to those arrays leaves the checked amplitudes unchanged. Two
    records compare equal only if they are the same record.
    """

    alpha_a: np.ndarray
    alpha_b: np.ndarray

    def __post_init__(self):
        a = np.array(self.alpha_a, dtype=complex)
        b = np.array(self.alpha_b, dtype=complex)
        if a.ndim != 1:
            raise ValueError(f"amplitudes must be one-dimensional, got shape {a.shape}")
        if a.shape != b.shape:
            raise ValueError("amplitude sequences must share the grid")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("amplitudes must be finite")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "alpha_a", a)
        object.__setattr__(self, "alpha_b", b)

    @classmethod
    def vacuum(cls, grid: ModeGrid) -> "ModeAmplitudes":
        zeros = np.zeros(grid.k.size, dtype=complex)
        return cls(alpha_a=zeros, alpha_b=zeros)


def _check_hbar(hbar: float) -> None:
    """Raise ValueError unless hbar is positive and finite."""
    if not 0.0 < hbar < math.inf:
        raise ValueError(f"hbar must be positive and finite, got {hbar}")


def _alpha_a(amps: ModeAmplitudes, grid: ModeGrid) -> np.ndarray:
    """Copy a's amplitudes, one per mode of ``grid``, else ValueError."""
    if amps.alpha_a.shape != grid.k.shape:
        raise ValueError(f"amplitudes have {amps.alpha_a.size} modes, "
                         f"the grid has {grid.k.size}")
    return amps.alpha_a


def packet_to_amplitudes(packet: GaussianPacket, grid: ModeGrid, medium: Medium,
                         hbar: float = 1.0) -> ModeAmplitudes:
    """Coherent amplitudes whose field expectation reproduces the packet.

    Inverts the mode expansion for a Gaussian: the amplitude magnitude is a
    Gaussian of width 1/sigma around the signed carrier. The grid must cover
    carrier +- 6/sigma strictly inside (dk, k_max].
    """
    _check_hbar(hbar)
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


def _chirp_field_sum(weights: np.ndarray, grid: ModeGrid, x_first: float,
                     x_last: float, nx: int) -> np.ndarray:
    """2 Re sum_k w_k exp(i k x) by chirp-z, for the grid's modes k = dk p,
    0 < |p| <= n_half, and nx samples x = x_c + dx q from x_first up to x_last.

    With q centred on its lattice, k x = dk x_c p + a p q with a = dk dx.
    Writing p q = (p**2 + q**2 - (q - p)**2) / 2 turns the sum over p into
    a convolution in q - p, done with the FFT (Bluestein 1970). Centring
    keeps the chirp phases a m**2 / 2, and so their rounding, small.
    """
    n = grid.n_half
    nk = 2 * n + 1
    dx = (x_last - x_first) / (nx - 1)
    x_c = 0.5 * x_first + 0.5 * x_last  # no overflow for ends near the largest float
    a = grid.dk * dx
    p = np.arange(nk) - 0.5 * (nk - 1)
    q = np.arange(nx) - 0.5 * (nx - 1)
    kernel = _chirp_kernel(a, nk, nx)
    # u, zero-padded to the transform size, is transformed, convolved and
    # transformed back in this one buffer.
    conv = np.zeros(kernel.size, dtype=complex)
    u = conv[:nk]
    u[:n] = weights[:n]
    u[n + 1:] = weights[n:]
    u *= np.exp(1j * (grid.dk * x_c) * p) * _chirp(0.5 * a, p)
    np.fft.fft(conv, out=conv)
    conv *= kernel
    np.fft.ifft(conv, out=conv)
    out = _chirp(0.5 * a, q)
    out *= conv[:nx]
    return 2.0 * out.real


def _field_sum(weights: np.ndarray, grid: ModeGrid, x) -> np.ndarray:
    """2 Re sum_k w_k exp(i k x) over the grid's modes.

    A 1-D x of at least _CHIRP_MIN_POINTS samples that np.linspace made
    between two distinct ends goes through the chirp-z transform on the
    grid's own mode lattice, in O((Nx + Nk) log); any other x through the
    dense O(Nx Nk) sum. A non-finite x raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    if (x.ndim == 1 and x.size >= _CHIRP_MIN_POINTS and x[0] != x[-1]
            and np.array_equal(x, np.linspace(x[0], x[-1], x.size))):
        if x[0] < x[-1]:
            return _chirp_field_sum(weights, grid, x[0], x[-1], x.size)
        # A descending x is read backwards off its ascending lattice, so on an x
        # symmetric about 0 the sum at -x is the sum at x reversed, bit for bit.
        return _chirp_field_sum(weights, grid, x[-1], x[0], x.size)[::-1]
    return _dense_field_sum(weights, grid.k, x)


def expect_E_free(amps: ModeAmplitudes, grid: ModeGrid, medium: Medium, x, hbar: float = 1.0):
    """Expectation of the free-space electric field of copy a."""
    _check_hbar(hbar)
    omega = grid.omega(medium)
    prefac = 0.5j * np.sqrt(hbar * omega / (math.pi * medium.epsilon * grid.area))
    return _field_sum(prefac * _alpha_a(amps, grid) * grid.dk, grid, x)


def expect_B_free(amps: ModeAmplitudes, grid: ModeGrid, medium: Medium, x, hbar: float = 1.0):
    """Expectation of the free-space magnetic field of copy a.

    Sign convention matches the classical packets: a right-moving coherent
    packet has B = +E/c.
    """
    _check_hbar(hbar)
    omega = grid.omega(medium)
    prefac = (0.5j / medium.c) * np.sign(grid.k) * np.sqrt(
        hbar * omega / (math.pi * medium.epsilon * grid.area))
    return _field_sum(prefac * _alpha_a(amps, grid) * grid.dk, grid, x)


def xi_transform(amps: ModeAmplitudes, grid: ModeGrid) -> np.ndarray:
    """Standing-wave (antisymmetric) amplitudes of copy a for k > 0.

    xi_k = (alpha_k - alpha_{-k}) / sqrt(2); the negative-k half follows
    from xi_{-k} = -xi_k and is not stored.
    """
    alpha = _alpha_a(amps, grid)
    n = grid.n_half
    return (alpha[n:] - alpha[:n][::-1]) / math.sqrt(2.0)


def symmetric_transform(amps: ModeAmplitudes, grid: ModeGrid) -> np.ndarray:
    """Orthogonal symmetric combination (alpha_k + alpha_{-k}) / sqrt(2) of copy a."""
    alpha = _alpha_a(amps, grid)
    n = grid.n_half
    return (alpha[n:] + alpha[:n][::-1]) / math.sqrt(2.0)


def expect_H_sys(amps: ModeAmplitudes, grid: ModeGrid, medium: Medium,
                 hbar: float = 1.0) -> float:
    """Total oscillator energy of both copies, zero-point constant dropped.

    Uses exact compensated summation so the result is independent of mode
    ordering.
    """
    _check_hbar(hbar)
    omega = grid.omega(medium)
    terms = hbar * omega * (np.abs(_alpha_a(amps, grid)) ** 2
                            + np.abs(amps.alpha_b) ** 2) * grid.dk
    return math.fsum(terms.tolist())


def expect_H_field_one_sided(amps: ModeAmplitudes, grid: ModeGrid, medium: Medium,
                             hbar: float = 1.0) -> float:
    """Field energy in front of a one-sided perfect mirror, light on side a.

    Only the standing-wave modes carry field energy; the remainder of
    the system energy belongs to the mirror surface. Copy b must be empty.
    """
    _check_hbar(hbar)
    if np.any(amps.alpha_b != 0.0):
        raise ValueError("one-sided energy requires empty side b")
    xi = xi_transform(amps, grid)
    omega_pos = grid.k_pos * medium.c
    terms = hbar * omega_pos * np.abs(xi) ** 2 * grid.dk
    return math.fsum(terms.tolist())


def expect_H_mirr_one_sided(amps: ModeAmplitudes, grid: ModeGrid, medium: Medium,
                            hbar: float = 1.0) -> float:
    """Mirror-surface energy, realised as system minus field energy."""
    return expect_H_sys(amps, grid, medium, hbar=hbar) - expect_H_field_one_sided(
        amps, grid, medium, hbar=hbar)


def expect_E_mirr_one_sided(amps: ModeAmplitudes, grid: ModeGrid, medium: Medium,
                            x, hbar: float = 1.0):
    """Electric-field expectation in front of a one-sided perfect mirror.

    Difference of the free-field expectation at x and -x, normalised by
    sqrt(2); identically zero on the far side and at the surface.
    """
    x = np.asarray(x, dtype=float)
    here = expect_E_free(amps, grid, medium, x, hbar=hbar)
    image = expect_E_free(amps, grid, medium, -x, hbar=hbar)
    mask = np.where(x >= 0.0, 1.0, 0.0)
    out = (here - image) / math.sqrt(2.0) * mask
    return out if x.shape else float(out)


def expect_E_mirr_via_xi(amps: ModeAmplitudes, grid: ModeGrid, medium: Medium,
                         x, hbar: float = 1.0):
    """Same observable as expect_E_mirr_one_sided, summed over xi modes.

    Second route for cross-checking: reconstructs the full antisymmetric
    amplitude set from the k > 0 half and feeds it through the plain
    free-field sum.
    """
    _check_hbar(hbar)
    xi = xi_transform(amps, grid)
    full = np.concatenate([-xi[::-1], xi])
    omega = grid.omega(medium)
    prefac = 0.5j * np.sqrt(hbar * omega / (math.pi * medium.epsilon * grid.area))
    x = np.asarray(x, dtype=float)
    vals = _field_sum(prefac * full * grid.dk, grid, x)
    mask = np.where(x >= 0.0, 1.0, 0.0)
    out = vals * mask
    return out if x.shape else float(out)


def evolve_amplitudes(amps: ModeAmplitudes, grid: ModeGrid, medium: Medium,
                      t: float) -> ModeAmplitudes:
    """Free time evolution: every mode rotates at its own frequency."""
    phase = np.exp(-1j * grid.omega(medium) * t)
    return ModeAmplitudes(alpha_a=_alpha_a(amps, grid) * phase,
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
