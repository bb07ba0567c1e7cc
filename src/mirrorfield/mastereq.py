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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rates
from .core import AtomSpec, Medium, MirrorSpec
from .errors import StepTooLarge, ZeroDistance

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
        if abs(m[1, 0] - np.conj(m[0, 1])) > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > trace_tol or abs(np.trace(m).imag) > trace_tol:
            raise ValueError(f"trace deviates from 1 by more than {trace_tol}")
        if min_eigenvalue(m) < -pos_tol:
            raise ValueError("density matrix has a negative eigenvalue")
        return self


def min_eigenvalue(m: np.ndarray) -> float:
    """Smaller eigenvalue of a Hermitian 2x2 matrix, in closed form."""
    a = m[0, 0].real
    d = m[1, 1].real
    half_diff = 0.5 * (a - d)
    radius = math.hypot(half_diff, abs(m[0, 1]))
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


def evolve(rho0, channel: AtomChannel, t_final: float, dt: float) -> Trajectory:
    """Fixed-step classical 4th-order integration of the master equation.

    The step must satisfy dt <= 1e-2 / max(gamma, |delta|). Hermiticity,
    unit trace and positivity are verified at every step.
    """
    scale = max(channel.gamma, abs(channel.delta), 1e-300)
    if dt > 1e-2 / scale:
        raise StepTooLarge(
            f"dt = {dt} exceeds 1e-2 / max(gamma, |delta|) = {1e-2 / scale}"
        )
    if dt <= 0.0 or t_final < 0.0:
        raise ValueError("need dt > 0 and t_final >= 0")
    rho = _as_matrix(rho0)
    DensityMatrix.from_matrix(rho).validate()
    n_steps = int(round(t_final / dt))
    out = np.empty((n_steps + 1, 2, 2), dtype=complex)
    out[0] = rho
    g, d = channel.gamma, channel.delta
    for step in range(1, n_steps + 1):
        k1 = _rhs(rho, g, d)
        k2 = _rhs(rho + 0.5 * dt * k1, g, d)
        k3 = _rhs(rho + 0.5 * dt * k2, g, d)
        k4 = _rhs(rho + dt * k3, g, d)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        trace = np.trace(rho)
        if abs(trace.real - 1.0) > _TRACE_TOL or abs(trace.imag) > _TRACE_TOL:
            raise RuntimeError(f"trace drifted beyond tolerance at step {step}")
        if abs(rho[1, 0] - np.conj(rho[0, 1])) > _TRACE_TOL:
            raise RuntimeError(f"hermiticity lost at step {step}")
        if min_eigenvalue(rho) < -_POS_TOL:
            raise RuntimeError(f"positivity lost at step {step}")
        out[step] = rho
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


def _unravel_chunk(start: int, count: int, psi0: np.ndarray, gamma: float,
                   delta: float, dt: float, n_steps: int, seed: int):
    """Simulate trajectories [start, start+count) and return running sums.

    Each trajectory owns a counter-based random stream keyed by
    (seed, trajectory index), so results do not depend on how trajectories
    are grouped into chunks or threads.
    """
    draws = np.empty((count, n_steps))
    for row in range(count):
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, start + row], dtype=np.uint64)
        draws[row] = np.random.Generator(np.random.Philox(key=key)).random(n_steps)
    c1 = np.full(count, psi0[0], dtype=complex)
    c2 = np.full(count, psi0[1], dtype=complex)
    survive = math.exp(-gamma * dt)
    no_jump_phase = np.exp(complex(-0.5 * gamma * dt, -delta * dt))
    sums = {
        "rho11": np.empty(n_steps + 1),
        "rho22": np.empty(n_steps + 1),
        "rho22_sq": np.empty(n_steps + 1),
        "rho12": np.empty(n_steps + 1, dtype=complex),
    }

    def record(j):
        p2 = np.abs(c2) ** 2
        sums["rho11"][j] = np.sum(np.abs(c1) ** 2)
        sums["rho22"][j] = np.sum(p2)
        sums["rho22_sq"][j] = np.sum(p2 * p2)
        sums["rho12"][j] = np.sum(c1 * np.conj(c2))

    record(0)
    for j in range(n_steps):
        p_jump = np.abs(c2) ** 2 * (1.0 - survive)
        jumped = draws[:, j] < p_jump
        c2 = c2 * no_jump_phase
        norm = np.sqrt(np.abs(c1) ** 2 + np.abs(c2) ** 2)
        c1 = c1 / norm
        c2 = c2 / norm
        c1[jumped] = 1.0
        c2[jumped] = 0.0
        record(j + 1)
    return sums


def jump_unravel(rho0, channel: AtomChannel, t_final: float, dt: float,
                 n_traj: int, seed: int, n_workers: int = 1,
                 chunk_size: int = 256) -> UnravelResult:
    """Quantum-jump unraveling of the channel, averaged over trajectories.

    Per step, each trajectory either emits (probability |c2|^2 per-step
    branching with the exact exponential survival weight) and collapses to
    the ground state, or continues under the no-emission evolution and is
    renormalised. Averages converge to the deterministic solution as
    n_traj grows. Fixed seeds give bit-identical results independent of
    worker count.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be positive")
    psi0 = _pure_state_from(rho0)
    n_steps = int(round(t_final / dt))
    chunks = [(start, min(chunk_size, n_traj - start))
              for start in range(0, n_traj, chunk_size)]
    args = [(start, count, psi0, channel.gamma, channel.delta, dt, n_steps, seed)
            for start, count in chunks]
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            partials = list(pool.map(lambda a: _unravel_chunk(*a), args))
    else:
        partials = [_unravel_chunk(*a) for a in args]
    # Reduce in chunk order so the float sums do not depend on scheduling.
    tot = {key: sum(p[key] for p in partials) for key in partials[0]}
    n = float(n_traj)
    rho = np.empty((n_steps + 1, 2, 2), dtype=complex)
    rho[:, 0, 0] = tot["rho11"] / n
    rho[:, 1, 1] = tot["rho22"] / n
    rho[:, 0, 1] = tot["rho12"] / n
    rho[:, 1, 0] = np.conj(rho[:, 0, 1])
    mean22 = tot["rho22"] / n
    var22 = np.maximum(tot["rho22_sq"] / n - mean22**2, 0.0)
    stderr = np.sqrt(var22 / n)
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
