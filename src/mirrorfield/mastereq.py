"""Master equation of a two-level atom with spontaneous emission.

The no-emission part of the dynamics is generated by a non-Hermitian
Hamiltonian proportional to the excited-state projector; the emission part
restores the trace through the reset term gamma * sm rho sp. Both the
deterministic integrator and the quantum-jump unraveling live here, along
with the composition that wires mirror-modified rates into a channel. The
integrator steps Python floats and complex numbers, and the unraveling
builds its tables on floats and, up to one Philox block of trajectories,
makes and counts its random words on Python integers. numpy is imported
only where arrays are made: by the unraveling's count above one block,
analytic_solution and the array views of a state, a trajectory or an
unraveling.

Sign convention, locked by a regression test: the coherence rho12 (ground
row, excited column) rotates as exp(+i delta t).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import TYPE_CHECKING

from . import rates
from .core import MAX_STEPS, MAX_TRAJECTORIES, AtomSpec, Medium, MirrorSpec, _is_integer
from .errors import IntegratorInvariantBroken, StepTooLarge, ZeroDistance

if TYPE_CHECKING:
    import numpy as np

# Tolerances of the invariants the integrator checks at every step.
_TRACE_TOL = 1e-10
_POS_TOL = 1e-10


@dataclass(frozen=True)
class AtomChannel:
    """Decay rate and level shift driving the atomic master equation."""

    gamma: float
    delta: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and math.isfinite(self.delta)):
            raise ValueError(f"gamma and delta must be finite, got {self.gamma}, {self.delta}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 atomic state: index 1 is the ground state, 2 the excited state.

    Construction checks that every entry is finite, that the state is
    Hermitian, has unit trace and no negative eigenvalue, each to 1e-10.
    """

    rho11: complex
    rho12: complex
    rho21: complex
    rho22: complex

    def __post_init__(self):
        entries = (self.rho11, self.rho12, self.rho21, self.rho22)
        if not all(math.isfinite(x.real) and math.isfinite(x.imag) for x in entries):
            raise ValueError("density matrix has a non-finite entry")
        if abs(self.rho21 - self.rho12.conjugate()) > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        trace = self.rho11 + self.rho22
        if abs(trace.real - 1.0) > 1e-10 or abs(trace.imag) > 1e-10:
            raise ValueError("trace deviates from 1 by more than 1e-10")
        if min_eigenvalue(((self.rho11, self.rho12), (self.rho21, self.rho22))) < -1e-10:
            raise ValueError("density matrix has a negative eigenvalue")

    @classmethod
    def from_matrix(cls, m) -> "DensityMatrix":
        """The state of a 2x2 matrix: an array or nested sequences of numbers."""
        try:
            rows = [[_entry(v) for v in row] for row in m]
        except TypeError:  # a scalar, a row that is a number, or an entry that is an array
            rows = []
        if len(rows) != 2 or any(len(row) != 2 for row in rows):
            raise ValueError("density matrix must be 2x2")
        (rho11, rho12), (rho21, rho22) = rows
        return cls(rho11=rho11, rho12=rho12, rho21=rho21, rho22=rho22)

    @classmethod
    def excited(cls) -> "DensityMatrix":
        return cls(rho11=0.0, rho12=0.0, rho21=0.0, rho22=1.0)

    @classmethod
    def ground(cls) -> "DensityMatrix":
        return cls(rho11=1.0, rho12=0.0, rho21=0.0, rho22=0.0)

    @property
    def matrix(self) -> np.ndarray:
        import numpy as np

        return np.array([[self.rho11, self.rho12],
                         [self.rho21, self.rho22]], dtype=complex)


def _entry(value) -> complex:
    """One entry of a density matrix. complex() parses text too, so text is refused."""
    if isinstance(value, str):
        raise ValueError(f"density matrix entries must be numbers, got {value!r}")
    return complex(value)


def min_eigenvalue(m) -> float:
    """Smaller eigenvalue of a Hermitian 2x2 matrix (an array or nested
    sequences of numbers), in closed form."""
    a, d = m[0][0].real, m[1][1].real
    return 0.5 * (a + d) - math.hypot(0.5 * (a - d), abs(m[0][1]))


def _state(rho0) -> DensityMatrix:
    return rho0 if isinstance(rho0, DensityMatrix) else DensityMatrix.from_matrix(rho0)


@dataclass(frozen=True)
class Trajectory:
    """Deterministic solution sampled on a uniform time grid.

    ``times`` and the ``entries`` rho11, rho12, rho21 and rho22 are lists,
    one number per time, as _rk4_columns gives them. The numpy arrays ``t``
    and ``rho`` are built on first read, and ``rho11``, ``rho22`` and
    ``rho12`` are views of ``rho``.
    """

    times: list
    entries: tuple

    @cached_property
    def t(self) -> np.ndarray:
        import numpy as np

        return np.array(self.times, dtype=float)

    @cached_property
    def rho(self) -> np.ndarray:
        """Shape (n_times, 2, 2)."""
        import numpy as np

        return np.array(self.entries, dtype=complex).T.reshape(-1, 2, 2)

    @property
    def rho11(self) -> np.ndarray:
        return self.rho[:, 0, 0].real

    @property
    def rho22(self) -> np.ndarray:
        return self.rho[:, 1, 1].real

    @property
    def rho12(self) -> np.ndarray:
        return self.rho[:, 0, 1]


def _step_count(t_final: float, dt: float) -> int:
    """Number of steps of size dt up to t_final, checked against MAX_STEPS."""
    if not (math.isfinite(dt) and math.isfinite(t_final)):
        raise ValueError(f"need finite dt and t_final, got {dt}, {t_final}")
    if dt <= 0.0 or t_final < 0.0:
        raise ValueError("need dt > 0 and t_final >= 0")
    ratio = t_final / dt  # inf when it overflows, as for 1 / 1e-310
    if not ratio <= MAX_STEPS + 0.5:
        raise ValueError(f"t_final / dt = {ratio:.0f} steps exceeds the cap of {MAX_STEPS}")
    return int(round(ratio))


def _taylor4(x):
    """sum_{k=1..4} x**k / k!, each term built from the last as term * x / k."""
    term, total = 1.0, 0.0
    for k in range(1, 5):
        term = term * x / k
        total = total + term
    return total


def _rk4_columns(state: DensityMatrix, gamma: float, delta: float, dt: float,
                 n_steps: int) -> tuple:
    """rho11, rho12, rho21 and rho22 after 0 .. n_steps classical RK4 steps,
    as four lists, each led by the state's own entry. The populations after
    it are floats if the state's diagonal is real, else complex numbers.

    Without a drive the generator is diagonal in rho22, rho12 and rho21, and
    the reset moves what rho22 loses into rho11. For a constant linear
    right-hand side the four stages add up to the Taylor polynomial of
    dt L, so a step adds a * rho22 to rho22 (and takes it from rho11),
    b * rho12 to rho12 and conj(b) * rho21 to rho21, where a and b are
    _taylor4 of -gamma dt and (i delta - gamma / 2) dt. Adding the increment,
    instead of multiplying by 1 + a, keeps its rounding relative to |dt L|.

    Each step is checked for unit trace, hermiticity and positivity (the
    closed form of min_eigenvalue), in that order; the first step that breaks
    one raises IntegratorInvariantBroken.
    """
    a = _taylor4(-gamma * dt)
    b = _taylor4(complex(-0.5 * gamma * dt, delta * dt))
    b_bar = b.conjugate()
    r11, r12, r21, r22 = state.rho11, state.rho12, state.rho21, state.rho22
    columns = ([r11], [r12], [r21], [r22])
    if r11.imag == 0.0 and r22.imag == 0.0:
        r11, r22 = float(r11.real), float(r22.real)
    else:
        r11, r22 = complex(r11), complex(r22)
    # A step of the 4x4 matrix form adds zero products into every entry, so
    # an entry of -0.0 stepped as 0.0 there; adding 0.0 keeps that.
    r11, r12, r21, r22 = r11 + 0.0, complex(r12) + 0.0, complex(r21) + 0.0, r22 + 0.0
    add11, add12, add21, add22 = (column.append for column in columns)
    trace_tol, eig_floor, hypot = _TRACE_TOL, -_POS_TOL, math.hypot
    for step in range(1, n_steps + 1):
        decay = a * r22
        r11 = r11 - decay
        r22 = r22 + decay
        r12 = r12 + b * r12
        r21 = r21 + b_bar * r21
        trace = r11 + r22
        if abs(trace.real - 1.0) > trace_tol or abs(trace.imag) > trace_tol:
            raise IntegratorInvariantBroken("trace", step)
        if abs(r21 - r12.conjugate()) > trace_tol:
            raise IntegratorInvariantBroken("hermiticity", step)
        if 0.5 * trace.real - hypot(0.5 * (r11 - r22).real, abs(r12)) < eig_floor:
            raise IntegratorInvariantBroken("positivity", step)
        add11(r11)
        add12(r12)
        add21(r21)
        add22(r22)
    return columns


def evolve(rho0, channel: AtomChannel, t_final: float, dt: float) -> Trajectory:
    """Fixed-step classical 4th-order integration of the master equation.

    The step must satisfy dt <= 1e-2 / max(gamma, |delta|). Hermiticity,
    unit trace and positivity are verified at every step; the first step
    that breaks one raises IntegratorInvariantBroken.
    """
    n_steps = _step_count(t_final, dt)
    scale = max(channel.gamma, abs(channel.delta), 1e-300)
    if dt > 1e-2 / scale:
        raise StepTooLarge(
            f"dt = {dt} exceeds 1e-2 / max(gamma, |delta|) = {1e-2 / scale}"
        )
    state = _state(rho0)
    columns = _rk4_columns(state, channel.gamma, channel.delta, dt, n_steps)
    return Trajectory(times=[dt * i for i in range(n_steps + 1)], entries=columns)


def analytic_solution(rho0, channel: AtomChannel, t) -> np.ndarray:
    """Exact solution of the channel; the oracle for the integrator.

    Populations relax exponentially at gamma, the coherence decays at
    gamma/2 while rho12 rotates as exp(+i delta t). For an array of times
    the result has shape (n_times, 2, 2).
    """
    import numpy as np

    rho = _state(rho0).matrix
    t = np.asarray(t, dtype=float)
    decay = np.exp(-channel.gamma * t)
    coh = np.exp((1j * channel.delta - 0.5 * channel.gamma) * t)
    out = np.empty(t.shape + (2, 2), dtype=complex)
    out[..., 1, 1] = rho[1, 1] * decay
    out[..., 0, 0] = rho[0, 0] + rho[1, 1] * (1.0 - decay)
    out[..., 0, 1] = rho[0, 1] * coh
    out[..., 1, 0] = np.conj(out[..., 0, 1])
    return out


@dataclass(frozen=True)
class UnravelResult:
    """Trajectory average over quantum-jump realisations.

    ``times`` and the ``columns`` rho11, rho22, Re rho12, Im rho12 and the
    Monte-Carlo standard error of rho22 are lists, one float per time. The
    numpy arrays ``t``, ``rho`` (n_times, 2, 2) and ``stderr_rho22`` are
    built on first read.
    """

    times: list
    columns: tuple
    n_traj: int

    @cached_property
    def t(self) -> np.ndarray:
        import numpy as np

        return np.array(self.times, dtype=float)

    @cached_property
    def rho(self) -> np.ndarray:
        import numpy as np

        rho11, rho22, re12, im12, _ = self.columns
        rho = np.empty((len(self.times), 2, 2), dtype=complex)
        rho[:, 0, 0] = rho11
        rho[:, 1, 1] = rho22
        rho[:, 0, 1].real = re12
        rho[:, 0, 1].imag = im12
        rho[:, 1, 0] = np.conj(rho[:, 0, 1])
        return rho

    @cached_property
    def stderr_rho22(self) -> np.ndarray:
        import numpy as np

        return np.array(self.columns[4], dtype=float)


def _no_jump_path(state: DensityMatrix, gamma: float, delta: float, dt: float,
                  n_steps: int):
    """The renormalised no-emission state after j = 0 .. n_steps steps, as
    its rho11, rho22, Re rho12 and Im rho12, and the probability p_jumped[j]
    that a trajectory has jumped within its first j steps: five lists of
    floats.

    Without a drive every trajectory follows this one path until it jumps,
    and stays in the ground state after. With e_j = exp(-gamma dt j), the
    unnormalised no-jump state of a pure state r after j steps has entries
    r11, r22 e_j and r12 sqrt(e_j) exp(+i delta dt j), and its trace is
    n2_j = r11 + r22 e_j; at j = 0 the entries are r's own. p_jumped[j] =
    r22 (1 - e_j) is computed with expm1, so it is exactly 0 for gamma = 0,
    keeps its relative precision for small gamma dt j and never decreases. From
    the excited state (r11 = 0) the renormalised state does not decay, so
    e_j is 1 in it; a step so large that the state underflows to 0 after
    one step raises ValueError.
    """
    r11, r22 = state.rho11.real, state.rho22.real
    a, b = state.rho12.real, state.rho12.imag
    rate, omega = gamma * dt, delta * dt
    exp, expm1, cos, sin, sqrt = math.exp, math.expm1, math.cos, math.sin, math.sqrt
    p_jumped = [r22 * -expm1(-(rate * j)) for j in range(n_steps + 1)]
    if r11 == 0.0:
        if n_steps and r22 * exp(-rate) == 0.0:
            raise ValueError(
                f"dt = {dt} is too large for the unraveling: the no-jump state "
                f"underflows to 0 after one step (gamma * dt = {gamma * dt})")
        decay = [1.0] * (n_steps + 1)
    else:
        decay = [exp(-(rate * j)) for j in range(n_steps + 1)]
    rho11, rho22, re12, im12 = [], [], [], []
    for j, e in enumerate(decay):
        n2 = r11 + r22 * e
        scale = sqrt(e) / n2
        c, s = cos(omega * j), sin(omega * j)
        rho11.append(r11 / n2)
        rho22.append(r22 * e / n2)
        re12.append((a * c - b * s) * scale)
        im12.append((a * s + b * c) * scale)
    return rho11, rho22, re12, im12, p_jumped


# Philox4x64-10 (Salmon et al., SC'11) with numpy's multipliers and key
# increments, made in blocks of _PHILOX_BLOCK counters of four words each. Of
# 4,096, 8,192, 16,384 and 32,768 counters, 8,192 was the fastest at 4e6 words
# on a 2-core Xeon host. Up to one block the words are made on Python
# integers and numpy is not imported.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_BLOCK = 8192
_MASK64 = 2 ** 64 - 1


def _philox_words(seed: int, n_words: int) -> array:
    """Words 0 .. n_words - 1 of the Philox4x64-10 stream keyed by (seed, 0),
    as _philox_blocks gives them, in an array of unsigned 64-bit integers.

    Every counter is computed at once: lane k of counter i sits in bits
    128 i .. 128 i + 63 of one Python integer c_k, so the product of a
    64-bit multiplier and c_k never carries into the next counter's slot,
    and one shift, mask and XOR act on every counter together.
    """
    n_counters = (n_words + 3) // 4
    slots = array("Q", bytes(16 * n_counters))
    slots[::2] = array("Q", range(1, n_counters + 1))
    c0, c1, c2, c3 = int.from_bytes(slots, "little"), 0, 0, 0
    ones = ((1 << 128 * n_counters) - 1) // ((1 << 128) - 1)
    low = ones * _MASK64
    k0, k1 = seed, 0
    for r in range(10):
        if r:
            k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
        p0, p1 = _PHILOX_M[0] * c0, _PHILOX_M[1] * c2
        c0, c1, c2, c3 = (((p1 >> 64) & low) ^ c1 ^ ones * k0, p1 & low,
                          ((p0 >> 64) & low) ^ c3 ^ ones * k1, p0 & low)
    words = array("Q", bytes(32 * n_counters))
    for lane, c in enumerate((c0, c1, c2, c3)):
        words[lane::4] = array("Q", c.to_bytes(16 * n_counters, "little"))[::2]
    del words[n_words:]
    return words


def _mulhilo(m: int, x: np.ndarray):
    """High and low words of the 128-bit products m * x, the high word built
    from 32-bit halves (Hacker's Delight, mulhu)."""
    import numpy as np

    mask32, shift32 = np.uint64(0xFFFFFFFF), np.uint64(32)
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & mask32, x >> shift32
    low_cross = m_hi * x_lo
    low_cross += (m_lo * x_lo) >> shift32
    high_cross = m_lo * x_hi
    high_cross += low_cross & mask32
    hi = m_hi * x_hi
    hi += low_cross >> shift32
    hi += high_cross >> shift32
    return hi, np.uint64(m) * x


def _philox_blocks(seed: int, n_words: int):
    """Words 0 .. n_words - 1 of the Philox4x64-10 stream keyed by (seed, 0),
    bit for bit those of numpy's Philox(key=[seed, 0]).random_raw(n_words),
    in blocks of 4 * _PHILOX_BLOCK words, the last one shorter.

    Word j is lane j % 4 of counter block (j // 4 + 1, 0, 0, 0). The key is
    bumped in Python integers, which wrap without numpy's overflow warning.
    """
    import numpy as np

    per_block = 4 * _PHILOX_BLOCK
    for lo in range(0, n_words, per_block):
        n = min(per_block, n_words - lo)
        c0 = np.arange(lo // 4 + 1, lo // 4 + 1 + (n + 3) // 4, dtype=np.uint64)
        c1 = c2 = c3 = np.zeros_like(c0)
        k0, k1 = seed, 0
        for r in range(10):
            if r:
                k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
            hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
            hi1 ^= c1
            hi1 ^= np.uint64(k0)
            hi0 ^= c3
            hi0 ^= np.uint64(k1)
            c0, c1, c2, c3 = hi1, lo1, hi0, lo0
        yield np.stack((c0, c1, c2, c3), axis=1).ravel()[:n]


def _counts_of_words(p_jumped, n_traj: int, seed: int) -> list:
    """_jumped_counts for at most one block of trajectories, on Python
    numbers: the uniforms of _philox_words, sorted, and a binary search per
    step that is still in play."""
    u = sorted([(word >> 11) * 2.0 ** -53 for word in _philox_words(seed, n_traj)])
    # A probability at or below the smallest uniform counts none of them, one
    # above the largest counts all of them.
    lo, hi = bisect_right(p_jumped, u[0]), bisect_right(p_jumped, u[-1])
    return ([0] * lo + [bisect_left(u, p) for p in p_jumped[lo:hi]]
            + [n_traj] * (len(p_jumped) - hi))


def _counts_of_blocks(p_jumped, n_traj: int, seed: int) -> list:
    """_jumped_counts in numpy, block by block of _philox_blocks' words, so
    numpy.random is never imported and no array is n_traj long. Each block
    searches only the steps whose probability lies between its smallest
    and largest uniform; the steps above its largest count it whole, in one
    cumulative sum at the end."""
    import numpy as np

    p_jumped = np.asarray(p_jumped, dtype=float)
    counts = np.zeros(p_jumped.size, dtype=np.intp)
    full = np.zeros(p_jumped.size + 1, dtype=np.intp)
    for words in _philox_blocks(seed, n_traj):
        u = (words >> np.uint64(11)) * 2.0 ** -53
        u.sort()
        lo, hi = np.searchsorted(p_jumped, (u[0], u[-1]), side="right")
        counts[lo:hi] += np.searchsorted(u, p_jumped[lo:hi], side="left")
        full[hi] += u.size
    return (counts + np.cumsum(full[:-1])).tolist()


def _jumped_counts(p_jumped, n_traj: int, seed: int) -> list:
    """How many of n_traj trajectories have jumped within j steps, for
    j = 0 .. len(p_jumped) - 1, given the probability p_jumped[j] of a jump
    within j steps, which never decreases.

    Trajectory i draws one uniform u_i = (w_i >> 11) * 2**-53, the double
    numpy's Generator.random makes of word w_i, from word i of the
    counter-based Philox stream keyed by (seed mod 2**64, 0). It jumps in the
    first step j with u_i < p_jumped[j + 1]: the waiting-time form of the
    quantum-jump method. So it has jumped within j steps exactly when
    u_i < p_jumped[j], and a search in the sorted uniforms counts those
    trajectories. Up to one block of 4 * _PHILOX_BLOCK trajectories this
    runs on Python numbers; above it, in numpy, block by block. Both give
    the same integers.
    """
    count = _counts_of_words if n_traj <= 4 * _PHILOX_BLOCK else _counts_of_blocks
    return count(p_jumped, n_traj, seed & _MASK64)


def jump_unravel(rho0, channel: AtomChannel, t_final: float, dt: float,
                 n_traj: int, seed: int) -> UnravelResult:
    """Quantum-jump unraveling of the channel, averaged over trajectories.

    Per step, a trajectory either emits and collapses to the ground state,
    or continues under the renormalised no-emission evolution. Without a
    drive it jumps at most once, and the probability that it has jumped
    within j steps is known in closed form, so one uniform per trajectory
    fixes its jump step; the first-jump distribution is exactly that of
    drawing per step with the per-step jump probability. The averages and
    the standard error of rho22 follow from how many trajectories have
    jumped by each step, and converge to the deterministic solution as
    n_traj grows.

    At most MAX_TRAJECTORIES trajectories, and a seed in [0, 2**64). A step
    so large that the no-jump state underflows to 0 raises ValueError. Fixed
    seeds give bit-identical results, and the first row is rho0's own.
    """
    for name, value in (("n_traj", n_traj), ("seed", seed)):
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 1 <= n_traj <= MAX_TRAJECTORIES:
        raise ValueError(f"n_traj must be between 1 and {MAX_TRAJECTORIES}, got {n_traj}")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    n_steps = _step_count(t_final, dt)
    state = _state(rho0)
    purity = (state.rho11 * state.rho11 + state.rho12 * state.rho21
              + (state.rho21 * state.rho12 + state.rho22 * state.rho22)).real
    if abs(purity - 1.0) > 1e-10:
        raise ValueError(f"unraveling needs a pure initial state, purity={purity}")
    rho11, rho22, re12, im12, p_jumped = _no_jump_path(state, channel.gamma, channel.delta,
                                                       dt, n_steps)
    n = float(n_traj)
    # q: fraction of trajectories still on the no-jump path after each step.
    q = [(n - count) / n for count in _jumped_counts(p_jumped, n_traj, seed)]
    del p_jumped
    # rho22 is the no-jump value on a fraction q of the trajectories and 0 on
    # the rest. Each table is replaced by its average as it is built.
    stderr = [p2 * math.sqrt(f * (1.0 - f) / n) for f, p2 in zip(q, rho22)]
    rho11 = [f * p1 + (1.0 - f) for f, p1 in zip(q, rho11)]
    rho22 = list(map(mul, q, rho22))
    re12 = list(map(mul, q, re12))
    im12 = list(map(mul, q, im12))
    return UnravelResult(times=[dt * j for j in range(n_steps + 1)],
                         columns=(rho11, rho22, re12, im12, stderr), n_traj=n_traj)


def channel_at(mirror: MirrorSpec, mu_orient: float, z, gamma_free: float,
               side: str = "a") -> AtomChannel:
    """Channel at scaled distance z = 2 k0 |x| on one side of the mirror.

    The mirror-modified rate ratios are scaled by the free-space decay rate
    ``gamma_free``.
    """
    gamma_ratio = rates.gamma_mirr(mirror, mu_orient, z, side=side)
    delta_ratio = rates.delta_mirr(mirror, mu_orient, z, side=side)
    return AtomChannel(gamma=gamma_ratio * gamma_free, delta=delta_ratio * gamma_free)


def channel_from_mirror(mirror: MirrorSpec, atom: AtomSpec, medium: Medium) -> AtomChannel:
    """Channel of an atom at its stored position near the given mirror.

    The side is picked from the sign of the atom position; the scaled
    distance must be positive because the shift diverges at contact.
    """
    z = 2.0 * atom.k0(medium) * abs(atom.x)
    if z <= 0.0:
        raise ZeroDistance("atom sits on the mirror surface")
    side = "a" if atom.x > 0 else "b"
    return channel_at(mirror, atom.mu_orient, z, rates.gamma_free(atom, medium), side)
