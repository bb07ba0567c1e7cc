"""Master equation of a two-level atom with spontaneous emission.

The no-emission part of the dynamics is generated by a non-Hermitian
Hamiltonian proportional to the excited-state projector; the emission part
restores the trace through the reset term gamma * sm rho sp. Both the
deterministic integrator and the quantum-jump unraveling live here, along
with the composition that wires mirror-modified rates into a channel. The
integrator steps Python floats and complex numbers; numpy is imported only
where arrays are made: by the unraveling, analytic_solution and the array
views of a state or a trajectory.

Sign convention, locked by a regression test: the coherence rho12 (ground
row, excited column) rotates as exp(+i delta t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from . import rates
from .core import MAX_STEPS, MAX_TRAJECTORIES, AtomSpec, Medium, MirrorSpec
from .errors import IntegratorInvariantBroken, StepTooLarge, ZeroDistance

if TYPE_CHECKING:
    import numpy as np

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
    """2x2 atomic state: index 1 is the ground state, 2 the excited state."""

    rho11: complex
    rho12: complex
    rho21: complex
    rho22: complex

    @classmethod
    def from_matrix(cls, m) -> "DensityMatrix":
        """The state of a 2x2 matrix: an array or nested sequences of numbers."""
        return cls(rho11=complex(m[0][0]), rho12=complex(m[0][1]),
                   rho21=complex(m[1][0]), rho22=complex(m[1][1]))

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

    def validate(self, trace_tol: float = _TRACE_TOL, pos_tol: float = _POS_TOL) -> "DensityMatrix":
        entries = (self.rho11, self.rho12, self.rho21, self.rho22)
        if not all(math.isfinite(x.real) and math.isfinite(x.imag) for x in entries):
            raise ValueError("density matrix has a non-finite entry")
        if abs(self.rho21 - self.rho12.conjugate()) > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        trace = self.rho11 + self.rho22
        if abs(trace.real - 1.0) > trace_tol or abs(trace.imag) > trace_tol:
            raise ValueError(f"trace deviates from 1 by more than {trace_tol}")
        if min_eigenvalue(((self.rho11, self.rho12), (self.rho21, self.rho22))) < -pos_tol:
            raise ValueError("density matrix has a negative eigenvalue")
        return self


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
    state = _state(rho0).validate()
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
    """Trajectory average over quantum-jump realisations."""

    t: np.ndarray
    rho: np.ndarray           # (n_times, 2, 2), averaged
    stderr_rho22: np.ndarray  # Monte-Carlo standard error of rho22
    n_traj: int
    seed: int


def _pure_state_from(rho0) -> np.ndarray:
    """Extract (c1, c2) from a pure density matrix, checked as evolve checks
    its initial state."""
    import numpy as np

    m = _state(rho0).validate().matrix
    purity = np.trace(m @ m).real
    if abs(purity - 1.0) > 1e-10:
        raise ValueError(f"unraveling needs a pure initial state, purity={purity}")
    vals, vecs = np.linalg.eigh(m)
    return vecs[:, int(np.argmax(vals))].astype(complex)


def _no_jump_path(psi0: np.ndarray, gamma: float, delta: float, dt: float,
                  n_steps: int):
    """Amplitudes (c1, c2) of the renormalised no-emission evolution after
    j = 0 .. n_steps steps, and the probability p_jumped[j] that a
    trajectory has jumped within its first j steps.

    Without a drive every trajectory follows this one path until it jumps,
    and stays in the ground state after. The unnormalised no-jump state
    after j steps is (c1(0), c2(0) exp(-(gamma/2 + i delta) dt j)), and its
    squared norm is 1 - p_jumped[j]. p_jumped = |c2(0)|^2 (1 - exp(-gamma
    dt j)) is computed with expm1, so it is exactly 0 for gamma = 0, keeps
    its relative precision for small gamma dt j and never decreases. From
    the excited state, where the path is c2 = c2(0) exp(-i delta dt j), a
    step so large that the state underflows to 0 after one step raises
    ValueError.
    """
    import numpy as np

    steps = np.arange(n_steps + 1)
    rate = gamma * dt * steps
    phase = np.exp(-1j * delta * dt * steps)
    c1_sq, c2_sq = abs(psi0[0]) ** 2, abs(psi0[1]) ** 2
    p_jumped = c2_sq * -np.expm1(-rate)
    if c1_sq == 0.0:
        if n_steps and c2_sq * math.exp(-gamma * dt) == 0.0:
            raise ValueError(
                f"dt = {dt} is too large for the unraveling: the no-jump state "
                f"underflows to 0 after one step (gamma * dt = {gamma * dt})")
        # Renormalising c2(0) exp(-gamma dt j / 2) would give 0 / 0 once the
        # decay underflows.
        return np.zeros(n_steps + 1, dtype=complex), psi0[1] * phase, p_jumped
    decay = np.exp(-rate)
    norm = np.sqrt(c1_sq + c2_sq * decay)
    return psi0[0] / norm, psi0[1] * np.sqrt(decay) * phase / norm, p_jumped


# Philox4x64-10 (Salmon et al., SC'11) with numpy's multipliers and key
# increments, made in blocks of _PHILOX_BLOCK counters of four words each. Of
# 4,096, 8,192, 16,384 and 32,768 counters, 8,192 was the fastest at 4e6 words
# on a 2-core Xeon host.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_BLOCK = 8192
_MASK64 = 2 ** 64 - 1


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
    as (offset, words) pairs of at most 4 * _PHILOX_BLOCK words.

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
        yield lo, np.stack((c0, c1, c2, c3), axis=1).ravel()[:n]


def _steps_for(u: np.ndarray, p_jumped: np.ndarray, c2_sq: float,
               gamma_dt: float) -> np.ndarray:
    """The step j of each uniform u with p_jumped[j] <= u < p_jumped[j + 1]
    (j = 0 below p_jumped[1], n = len(p_jumped) - 1 from p_jumped[n] up),
    where np.searchsorted(p_jumped[1:], u, side="right") would put it.

    j starts from the inverse of p_jumped[j] = c2_sq (1 - exp(-gamma_dt j)),
    floor(-log1p(-u / c2_sq) / gamma_dt) clipped to [0, n], or from n when
    c2_sq or gamma_dt is 0; then each j moves one step per pass against the
    table itself until it brackets u. So the steps hold for any
    non-decreasing table and do not hang on log1p's last bit. The estimate
    is off by a step or so, by hundreds only for u within a few ulps of
    c2_sq, where the table's top rounds to c2_sq. A j that steps down never
    steps up again and stops at 0 at the latest, one that steps up stops at
    n, so n + 2 passes settle any start; the cap raises all the same.
    After the first pass only the j still moving are read.
    """
    import numpy as np

    n = p_jumped.size - 1
    edges = np.concatenate(([-np.inf], p_jumped[1:], [np.inf]))
    if c2_sq > 0.0 and gamma_dt > 0.0:
        # u >= c2_sq never jumps: log1p gives -inf or NaN there, and fmin n.
        start = np.divide(u, -c2_sq)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log1p(start, out=start)
        np.divide(start, -gamma_dt, out=start)
        j = np.fmin(start, n, out=start).astype(np.intp)
    else:
        j = np.full(u.size, n, dtype=np.intp)
    at = None
    for _ in range(edges.size):
        j_at, u_at = (j, u) if at is None else (j[at], u[at])
        step = (edges[1:][j_at] <= u_at).view(np.int8) - (edges[j_at] > u_at).view(np.int8)
        moving = np.flatnonzero(step)
        if not moving.size:
            return j
        at = moving if at is None else at[moving]
        j[at] += step[moving]
    raise RuntimeError(f"jump steps not settled in {edges.size} passes")


def _jump_steps(p_jumped: np.ndarray, n_traj: int, seed: int,
                c2_sq: float = 0.0, gamma_dt: float = 0.0):
    """Step at which each trajectory jumps, or len(p_jumped) - 1 if it never
    does, given the probability p_jumped[j] of a jump within j steps, as
    (lo, steps) pairs: steps[i] is trajectory lo + i's.

    Trajectory i draws one uniform u_i = (w_i >> 11) * 2**-53, the double
    numpy's Generator.random makes of word w_i, from word i of the
    counter-based Philox stream keyed by (seed mod 2**64, 0). It jumps in the
    first step j with u_i < p_jumped[j + 1]: the waiting-time form of the
    quantum-jump method. The words come block by block from _philox_blocks,
    in plain numpy, so numpy.random is never imported and no array is
    n_traj long. _steps_for inverts p_jumped, starting from its closed form
    with c2_sq = |c2(0)|**2 and gamma_dt = gamma dt.
    """
    import numpy as np

    for lo, words in _philox_blocks(seed & _MASK64, n_traj):
        u = (words >> np.uint64(11)) * 2.0 ** -53
        yield lo, _steps_for(u, p_jumped, c2_sq, gamma_dt)


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
    seeds give bit-identical results.
    """
    import numpy as np

    if not 1 <= n_traj <= MAX_TRAJECTORIES:
        raise ValueError(f"n_traj must be between 1 and {MAX_TRAJECTORIES}, got {n_traj}")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    n_steps = _step_count(t_final, dt)
    psi0 = _pure_state_from(rho0)
    c1, c2, p_jumped = _no_jump_path(psi0, channel.gamma, channel.delta, dt, n_steps)
    per_step = np.zeros(n_steps + 1, dtype=np.intp)
    for _, steps in _jump_steps(p_jumped, n_traj, seed, abs(psi0[1]) ** 2,
                                channel.gamma * dt):
        per_step += np.bincount(steps, minlength=n_steps + 1)
    n = float(n_traj)
    jumped = np.zeros(n_steps + 1)
    jumped[1:] = np.cumsum(per_step[:n_steps])
    # q: fraction of trajectories still on the no-jump path after each step.
    q = (n - jumped) / n
    p2 = np.abs(c2) ** 2
    rho = np.empty((n_steps + 1, 2, 2), dtype=complex)
    rho[:, 0, 0] = q * np.abs(c1) ** 2 + (1.0 - q)
    rho[:, 1, 1] = q * p2
    rho[:, 0, 1] = q * c1 * np.conj(c2)
    rho[:, 1, 0] = np.conj(rho[:, 0, 1])
    # rho22 is p2 on a fraction q of the trajectories and 0 on the rest.
    stderr = p2 * np.sqrt(q * (1.0 - q) / n)
    return UnravelResult(t=dt * np.arange(n_steps + 1), rho=rho,
                         stderr_rho22=stderr, n_traj=n_traj, seed=seed)


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
