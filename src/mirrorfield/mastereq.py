"""Master equation of a two-level atom with spontaneous emission.

The no-emission part of the dynamics is generated by a non-Hermitian
Hamiltonian proportional to the excited-state projector; the emission part
restores the trace through the reset term gamma * sm rho sp. Both the
deterministic integrator and the quantum-jump unraveling live here, along
with the composition that wires mirror-modified rates into a channel.

Sign convention, locked by a regression test: the coherence rho12 (ground
row, excited column) rotates as exp(+i delta t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rates
from .core import AtomSpec, Medium, MirrorSpec
from .errors import IntegratorInvariantBroken, StepTooLarge, ZeroDistance

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |1><2|
SIGMA_PLUS = SIGMA_MINUS.conj().T
PROJ_EXCITED = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)

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
    def from_matrix(cls, m: np.ndarray) -> "DensityMatrix":
        m = np.asarray(m, dtype=complex)
        return cls(rho11=complex(m[0, 0]), rho12=complex(m[0, 1]),
                   rho21=complex(m[1, 0]), rho22=complex(m[1, 1]))

    @classmethod
    def excited(cls) -> "DensityMatrix":
        return cls(rho11=0.0, rho12=0.0, rho21=0.0, rho22=1.0)

    @classmethod
    def ground(cls) -> "DensityMatrix":
        return cls(rho11=1.0, rho12=0.0, rho21=0.0, rho22=0.0)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.rho11, self.rho12],
                         [self.rho21, self.rho22]], dtype=complex)

    def validate(self, trace_tol: float = _TRACE_TOL, pos_tol: float = _POS_TOL) -> "DensityMatrix":
        m = self.matrix
        if not np.isfinite(m).all():
            raise ValueError("density matrix has a non-finite entry")
        if abs(m[1, 0] - np.conj(m[0, 1])) > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > trace_tol or abs(np.trace(m).imag) > trace_tol:
            raise ValueError(f"trace deviates from 1 by more than {trace_tol}")
        if min_eigenvalue(m) < -pos_tol:
            raise ValueError("density matrix has a negative eigenvalue")
        return self


def min_eigenvalue(m: np.ndarray):
    """Smaller eigenvalue of a Hermitian 2x2 matrix, in closed form; for a
    stack of shape (..., 2, 2) one eigenvalue per matrix."""
    a = m[..., 0, 0].real
    d = m[..., 1, 1].real
    half_diff = 0.5 * (a - d)
    radius = np.hypot(half_diff, np.abs(m[..., 0, 1]))
    return 0.5 * (a + d) - radius


def _rhs(rho: np.ndarray, gamma: float, delta: float) -> np.ndarray:
    """Right-hand side of the master equation."""
    hc = delta - 0.5j * gamma  # coefficient of the excited projector
    cond = hc * (PROJ_EXCITED @ rho) - np.conj(hc) * (rho @ PROJ_EXCITED)
    reset = gamma * (SIGMA_MINUS @ rho @ SIGMA_PLUS)
    return -1j * cond + reset


@dataclass(frozen=True)
class Trajectory:
    """Deterministic solution sampled on a uniform time grid."""

    t: np.ndarray
    rho: np.ndarray  # shape (n_times, 2, 2)

    @property
    def rho11(self) -> np.ndarray:
        return self.rho[:, 0, 0].real

    @property
    def rho22(self) -> np.ndarray:
        return self.rho[:, 1, 1].real

    @property
    def rho12(self) -> np.ndarray:
        return self.rho[:, 0, 1]


def _as_matrix(rho0) -> np.ndarray:
    if isinstance(rho0, DensityMatrix):
        return rho0.matrix
    return np.asarray(rho0, dtype=complex)


# Largest step count round(t_final / dt) that evolve and jump_unravel take.
# On the way to a CSV file memory grows by about 0.57 kB per step (1.0 kB
# as JSON), so a million steps peak near 0.6 GB (1 GB); a larger count is
# rejected before any array is allocated.
MAX_STEPS = 1_000_000


def _step_count(t_final: float, dt: float) -> int:
    """Number of steps of size dt up to t_final, checked against MAX_STEPS."""
    if not (math.isfinite(dt) and math.isfinite(t_final)):
        raise ValueError(f"need finite dt and t_final, got {dt}, {t_final}")
    if dt <= 0.0 or t_final < 0.0:
        raise ValueError("need dt > 0 and t_final >= 0")
    n_steps = int(round(t_final / dt))
    if n_steps > MAX_STEPS:
        raise ValueError(f"t_final / dt = {n_steps} steps exceeds the cap of {MAX_STEPS}")
    return n_steps


def _rk4_increment(gamma: float, delta: float, dt: float) -> np.ndarray:
    """Increment of one classical RK4 step as a 4x4 matrix A acting on
    rho.ravel(), so that a step maps rho to rho + A rho.

    For the constant linear right-hand side L the four stages add up to
    the Taylor polynomial sum_{k<=4} (dt L)^k / k!; A is that sum without
    its k = 0 term. Adding A rho to rho, instead of multiplying by I + A,
    keeps the rounding of the matrix entries relative to |dt L|: over 5000
    steps the trajectory stays within about 1e-16 of the stage-wise step,
    where iterating I + A drifts by about 5e-14.
    """
    basis = np.eye(4, dtype=complex).reshape(4, 2, 2)
    step_l = dt * np.stack([_rhs(b, gamma, delta).ravel() for b in basis], axis=1)
    term = np.eye(4, dtype=complex)
    increment = np.zeros((4, 4), dtype=complex)
    for k in range(1, 5):
        term = term @ step_l / k
        increment = increment + term
    return increment


def _check_invariants(rho: np.ndarray) -> None:
    """Raise for the first step (then the first invariant in the order
    trace, hermiticity, positivity) where rho[step], step >= 1, breaks one."""
    rho = rho[1:]
    trace = rho[:, 0, 0] + rho[:, 1, 1]
    broken = (
        ("trace", (np.abs(trace.real - 1.0) > _TRACE_TOL) | (np.abs(trace.imag) > _TRACE_TOL)),
        ("hermiticity", np.abs(rho[:, 1, 0] - np.conj(rho[:, 0, 1])) > _TRACE_TOL),
        ("positivity", min_eigenvalue(rho) < -_POS_TOL),
    )
    first = None
    for invariant, bad in broken:
        hits = np.flatnonzero(bad)
        if hits.size and (first is None or hits[0] + 1 < first[1]):
            first = (invariant, int(hits[0]) + 1)
    if first is not None:
        raise IntegratorInvariantBroken(*first)


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
    rho = _as_matrix(rho0)
    DensityMatrix.from_matrix(rho).validate()
    increment = _rk4_increment(channel.gamma, channel.delta, dt)
    out = np.empty((n_steps + 1, 2, 2), dtype=complex)
    flat = out.reshape(n_steps + 1, 4)
    flat[0] = rho.ravel()
    for step in range(1, n_steps + 1):
        flat[step] = flat[step - 1] + increment @ flat[step - 1]
    _check_invariants(out)
    t = dt * np.arange(n_steps + 1)
    return Trajectory(t=t, rho=out)


def analytic_solution(rho0, channel: AtomChannel, t) -> np.ndarray:
    """Exact solution of the channel; the oracle for the integrator.

    Populations relax exponentially at gamma, the coherence decays at
    gamma/2 while rho12 rotates as exp(+i delta t). For an array of times
    the result has shape (n_times, 2, 2).
    """
    rho = _as_matrix(rho0)
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
    """Extract (c1, c2) from a pure density matrix."""
    m = _as_matrix(rho0)
    purity = np.trace(m @ m).real
    if abs(purity - 1.0) > 1e-10:
        raise ValueError(f"unraveling needs a pure initial state, purity={purity}")
    vals, vecs = np.linalg.eigh(m)
    return vecs[:, int(np.argmax(vals))].astype(complex)


def _no_jump_path(psi0: np.ndarray, gamma: float, delta: float, dt: float,
                  n_steps: int):
    """Amplitudes (c1, c2) after each of the n_steps steps of the renormalised
    no-emission evolution, with c1[0], c2[0] the initial state, and the
    jump probability p_jump[j] of step j from the state after j steps.

    Without a drive every trajectory follows this one path until it jumps,
    and stays in the ground state after. Length-1 arrays run the same numpy
    loops as the per-trajectory arrays of a step-by-step unraveling, so
    every p_jump is bit-equal to what such a loop compares its draws with.
    A step so large that the renormalisation would divide by 0 raises
    ValueError.
    """
    c1_path = np.empty(n_steps + 1, dtype=complex)
    c2_path = np.empty(n_steps + 1, dtype=complex)
    p_jump = np.empty(n_steps)
    c1 = psi0[:1].copy()
    c2 = psi0[1:].copy()
    c1_path[0], c2_path[0] = c1[0], c2[0]
    survive = math.exp(-gamma * dt)
    no_jump_phase = np.exp(complex(-0.5 * gamma * dt, -delta * dt))
    for j in range(n_steps):
        p_jump[j] = (np.abs(c2) ** 2 * (1.0 - survive))[0]
        c2 = c2 * no_jump_phase
        norm = np.sqrt(np.abs(c1) ** 2 + np.abs(c2) ** 2)
        if not norm[0] > 0.0:
            raise ValueError(
                f"dt = {dt} is too large for the unraveling: the no-jump state "
                f"underflows to 0 at step {j} (gamma * dt = {gamma * dt})")
        c1 = c1 / norm
        c2 = c2 / norm
        c1_path[j + 1], c2_path[j + 1] = c1[0], c2[0]
    return c1_path, c2_path, p_jump


# Words read from each stream in its first segment; each later segment is
# twice as long as the one before. Philox makes four words per counter
# value, so every segment bound is a multiple of 4 and a stream resumes at
# word lo by setting its counter to lo // 4.
_FIRST_SEGMENT = 512


def _segments(n_words: int):
    """Bounds (lo, hi) of the doubling segments that cover n_words words."""
    lo, length = 0, _FIRST_SEGMENT
    while lo < n_words:
        yield lo, min(lo + length, n_words)
        lo, length = lo + length, 2 * length


def _first_jump_steps(p_jump: np.ndarray, n_traj: int, seed: int,
                      block: int) -> np.ndarray:
    """Step at which each trajectory jumps, or len(p_jump) if it never does.

    Trajectory i jumps at the first step j whose draw is below p_jump[j].
    Its draws are the doubles (w >> 11) * 2**-53 of the raw words w of a
    counter-based Philox stream keyed by (seed, i), so the result does not
    depend on how trajectories are grouped. A draw is below p exactly when
    w < ceil(p * 2**53) << 11, which compares the raw words without making
    doubles. A step with p >= 1 catches every trajectory that reaches it.
    ``block`` streams are read together, in doubling segments; a stream is
    dropped once it has jumped, so it is read only up to its first jump.
    """
    sure = np.flatnonzero(p_jump >= 1.0)
    end = int(sure[0]) if sure.size else len(p_jump)
    first = np.full(n_traj, end)
    if end == 0:
        return first
    p = p_jump[:end]
    # Below 1 the threshold ceil(p * 2**53) is at most 2**53 - 1, so the
    # shifted value fits in 64 bits; NaN and p <= 0 never catch a draw.
    limit = np.ceil(np.where(p > 0.0, p, 0.0) * 2.0 ** 53).astype(np.uint64) << np.uint64(11)
    bitgen = np.random.Philox()
    stream = {"counter": [0, 0, 0, 0], "key": [seed & 0xFFFFFFFFFFFFFFFF, 0]}
    state = {"bit_generator": "Philox", "state": stream, "buffer": [0, 0, 0, 0],
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    longest = max(hi - lo for lo, hi in _segments(end))
    words = np.empty((min(block, n_traj), longest), dtype=np.uint64)
    for start in range(0, n_traj, block):
        rows = np.arange(start, min(start + block, n_traj))
        for lo, hi in _segments(end):
            segment = words[:rows.size, :hi - lo]
            stream["counter"][0] = lo // 4
            for row, index in enumerate(rows.tolist()):
                stream["key"][1] = index
                bitgen.state = state
                segment[row] = bitgen.random_raw(hi - lo)
            hit = segment < limit[lo:hi]
            jumped = hit.any(axis=1)
            first[rows[jumped]] = lo + hit[jumped].argmax(axis=1)
            rows = rows[~jumped]
            if rows.size == 0:
                break
    return first


def jump_unravel(rho0, channel: AtomChannel, t_final: float, dt: float,
                 n_traj: int, seed: int, n_workers: int = 1,
                 chunk_size: int = 64) -> UnravelResult:
    """Quantum-jump unraveling of the channel, averaged over trajectories.

    Per step, each trajectory either emits (probability |c2|^2 per-step
    branching with the exact exponential survival weight) and collapses to
    the ground state, or continues under the no-emission evolution and is
    renormalised. Without a drive a trajectory jumps at most once, so only
    its first jump step is drawn; the averages and the standard error of
    rho22 follow from how many trajectories have jumped by each step.
    Averages converge to the deterministic solution as n_traj grows.

    A step so large that the no-jump state underflows to 0 raises
    ValueError. Fixed seeds give bit-identical results. ``n_workers`` must
    be positive and does not change the result; the work runs in the
    calling thread. ``chunk_size`` trajectories draw their random streams
    together.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be positive")
    if n_workers < 1 or chunk_size < 1:
        raise ValueError("n_workers and chunk_size must be positive")
    n_steps = _step_count(t_final, dt)
    psi0 = _pure_state_from(rho0)
    c1, c2, p_jump = _no_jump_path(psi0, channel.gamma, channel.delta, dt, n_steps)
    first = _first_jump_steps(p_jump, n_traj, seed, chunk_size)
    n = float(n_traj)
    jumped = np.zeros(n_steps + 1)
    jumped[1:] = np.cumsum(np.bincount(first, minlength=n_steps + 1)[:n_steps])
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
