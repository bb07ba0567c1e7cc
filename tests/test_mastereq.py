import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorfield import mastereq as me
from mirrorfield import rates
from mirrorfield.core import AtomSpec, Medium, MirrorSpec
from mirrorfield.errors import IntegratorInvariantBroken, StepTooLarge, ZeroDistance

MED = Medium()


def coherent_state():
    return me.DensityMatrix(rho11=0.5, rho12=0.5, rho21=0.5, rho22=0.5)


# ------------------------------------------------------------- analytic

def test_analytic_identity_at_t_zero():
    rho0 = coherent_state()
    np.testing.assert_allclose(
        me.analytic_solution(rho0, me.AtomChannel(1.0, 0.3), 0.0), rho0.matrix)


def test_analytic_long_time_ground_state():
    rho = me.analytic_solution(me.DensityMatrix.excited(),
                               me.AtomChannel(2.0, 0.0), 50.0)
    np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)


# ------------------------------------------------------------- evolve

def test_excited_state_decays_exponentially():
    gamma = 1.0
    traj = me.evolve(me.DensityMatrix.excited(), me.AtomChannel(gamma, 0.0),
                     t_final=5.0, dt=1e-3 / gamma)
    assert np.abs(traj.rho22 - np.exp(-gamma * traj.t)).max() < 1e-8


def test_ground_state_is_stationary():
    traj = me.evolve(me.DensityMatrix.ground(), me.AtomChannel(1.0, 0.5),
                     t_final=3.0, dt=1e-3)
    np.testing.assert_allclose(traj.rho[-1], np.diag([1.0, 0.0]), atol=1e-12)


def test_coherence_decay_and_phase_convention():
    # Locked convention: rho12 rotates as exp(+i delta t) while decaying at
    # gamma / 2.
    gamma, delta = 1.0, 0.6
    traj = me.evolve(coherent_state(), me.AtomChannel(gamma, delta),
                     t_final=4.0, dt=1e-3)
    expected = 0.5 * np.exp((1j * delta - 0.5 * gamma) * traj.t)
    assert np.abs(traj.rho12 - expected).max() < 1e-8
    j = len(traj.t) // 2
    measured_phase = np.angle(traj.rho12[j])
    assert measured_phase == pytest.approx(
        math.remainder(delta * traj.t[j], 2.0 * math.pi), abs=1e-6)


def test_evolve_matches_analytic_on_grid():
    channel = me.AtomChannel(1.3, -0.4)
    traj = me.evolve(coherent_state(), channel, t_final=5.0, dt=2e-3)
    idx = np.linspace(0, len(traj.t) - 1, 100).astype(int)
    exact = me.analytic_solution(coherent_state(), channel, traj.t[idx])
    assert np.abs(traj.rho[idx] - exact).max() < 1e-8


def test_trace_and_positivity_along_the_way():
    traj = me.evolve(coherent_state(), me.AtomChannel(1.0, 0.8),
                     t_final=6.0, dt=1e-3)
    traces = np.trace(traj.rho, axis1=1, axis2=2)
    assert np.abs(traces - 1.0).max() < 1e-10
    min_eigs = np.array([me.min_eigenvalue(m) for m in traj.rho])
    assert min_eigs.min() > -1e-10


def test_step_too_large_rejected():
    with pytest.raises(StepTooLarge):
        me.evolve(me.DensityMatrix.excited(), me.AtomChannel(10.0, 0.0),
                  t_final=1.0, dt=0.1)
    with pytest.raises(StepTooLarge):
        me.evolve(me.DensityMatrix.excited(), me.AtomChannel(0.0, 100.0),
                  t_final=1.0, dt=0.01)


def test_gamma_scaling_covariance():
    lam = 2.5
    base = me.evolve(coherent_state(), me.AtomChannel(1.0, 0.4),
                     t_final=4.0, dt=2e-3)
    scaled = me.evolve(coherent_state(), me.AtomChannel(lam, lam * 0.4),
                       t_final=4.0 / lam, dt=2e-3 / lam)
    assert np.abs(base.rho - scaled.rho).max() < 1e-10


SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |1><2|
SIGMA_PLUS = SIGMA_MINUS.conj().T
PROJ_EXCITED = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def _rhs(rho, gamma, delta):
    """Right-hand side of the master equation, in operator form."""
    hc = delta - 0.5j * gamma  # coefficient of the excited projector
    cond = hc * (PROJ_EXCITED @ rho) - np.conj(hc) * (rho @ PROJ_EXCITED)
    reset = gamma * (SIGMA_MINUS @ rho @ SIGMA_PLUS)
    return -1j * cond + reset


def _rk4_stagewise(rho, channel, t_final, dt):
    """Reference: the classical four-stage RK4 loop on the 2x2 matrix."""
    g, d = channel.gamma, channel.delta
    out = [rho]
    for _ in range(int(round(t_final / dt))):
        k1 = _rhs(rho, g, d)
        k2 = _rhs(rho + 0.5 * dt * k1, g, d)
        k3 = _rhs(rho + 0.5 * dt * k2, g, d)
        k4 = _rhs(rho + dt * k3, g, d)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(rho)
    return np.array(out)


def _rk4_increment(gamma, delta, dt):
    """The RK4 step as a 4x4 matrix A acting on rho.ravel(): the Taylor
    polynomial sum_{1<=k<=4} (dt L)^k / k! of the right-hand side L."""
    basis = np.eye(4, dtype=complex).reshape(4, 2, 2)
    step_l = dt * np.stack([_rhs(b, gamma, delta).ravel() for b in basis], axis=1)
    term = np.eye(4, dtype=complex)
    increment = np.zeros((4, 4), dtype=complex)
    for k in range(1, 5):
        term = term @ step_l / k
        increment = increment + term
    return increment


def _rk4_matrix_route(rho, channel, n_steps, dt):
    """Reference: each step adds _rk4_increment times rho.ravel() to rho."""
    increment = _rk4_increment(channel.gamma, channel.delta, dt)
    out = np.empty((n_steps + 1, 4), dtype=complex)
    out[0] = np.asarray(rho, dtype=complex).ravel()
    for step in range(1, n_steps + 1):
        out[step] = out[step - 1] + increment @ out[step - 1]
    return out.reshape(n_steps + 1, 2, 2)


def _first_broken_invariant(rho):
    """Reference: (invariant, step) of the first step >= 1 where rho breaks
    one, the first in the order trace, hermiticity, positivity; or None."""
    rho = rho[1:]
    trace = rho[:, 0, 0] + rho[:, 1, 1]
    radius = np.hypot(0.5 * (rho[:, 0, 0].real - rho[:, 1, 1].real), np.abs(rho[:, 0, 1]))
    broken = (
        ("trace", (np.abs(trace.real - 1.0) > me._TRACE_TOL)
         | (np.abs(trace.imag) > me._TRACE_TOL)),
        ("hermiticity", np.abs(rho[:, 1, 0] - np.conj(rho[:, 0, 1])) > me._TRACE_TOL),
        ("positivity", 0.5 * trace.real - radius < -me._POS_TOL),
    )
    first = None
    for invariant, bad in broken:
        hits = np.flatnonzero(bad)
        if hits.size and (first is None or hits[0] + 1 < first[1]):
            first = (invariant, int(hits[0]) + 1)
    return first


def test_propagator_matches_stagewise_rk4():
    psi = np.array([0.6, 0.8 * np.exp(0.7j)])
    rho0 = np.outer(psi, psi.conj())
    channel = me.AtomChannel(1.0, 0.8)
    traj = me.evolve(rho0, channel, t_final=5.0, dt=1e-3)
    reference = _rk4_stagewise(rho0, channel, 5.0, 1e-3)
    assert traj.rho.shape == reference.shape == (5001, 2, 2)
    assert np.abs(traj.rho - reference).max() < 1e-13


def _state(p, coherence, phase, pure):
    """A pure state with excited population p, its rho built as an outer
    product (whose diagonal can carry a rounding-sized imaginary part), or
    a mixed one with |rho12| = coherence * sqrt(p (1 - p))."""
    if pure:
        psi = np.array([math.sqrt(1.0 - p), math.sqrt(p) * np.exp(1j * phase)])
        return np.outer(psi, psi.conj())
    rho12 = coherence * math.sqrt(p * (1.0 - p)) * np.exp(1j * phase)
    return np.array([[1.0 - p, rho12], [np.conj(rho12), p]])


@settings(max_examples=120, deadline=None)
@given(gamma=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
       delta=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3)),
       p=st.floats(0.0, 1.0), coherence=st.floats(0.0, 1.0),
       phase=st.floats(-math.pi, math.pi), pure=st.booleans(),
       step_fraction=st.floats(1e-3, 1.0), n_steps=st.integers(0, 3000))
def test_evolve_equals_the_matrix_route(gamma, delta, p, coherence, phase, pure,
                                        step_fraction, n_steps):
    # The scalar recurrence takes the same roundings as the 4x4 matrix
    # step, to the sign of every zero.
    channel = me.AtomChannel(gamma, delta)
    dt = step_fraction * 1e-2 / max(gamma, abs(delta), 1e-300)
    rho0 = _state(p, coherence, phase, pure)
    traj = me.evolve(rho0, channel, n_steps * dt, dt)
    reference = _rk4_matrix_route(rho0, channel, len(traj.times) - 1, dt)
    assert traj.rho.tobytes() == reference.tobytes()
    assert traj.t.tobytes() == (dt * np.arange(len(traj.times))).tobytes()


@pytest.mark.parametrize("rho0, tolerances, invariant", [
    # Exact trace only: breaks at the first step whose trace rounds off 1.
    (coherent_state().matrix, {"_TRACE_TOL": 0.0}, "trace"),
    # rho21 off conj(rho12) by 5e-11, which decays with the coherence.
    (np.array([[0.5, 0.4], [0.4 + 5e-11, 0.5]]), {"_TRACE_TOL": 4e-11}, "hermiticity"),
    # The smaller eigenvalue, rho22 = 0.5 exp(-gamma t), falls below 0.1.
    (np.diag([0.5, 0.5]), {"_POS_TOL": -0.1}, "positivity"),
], ids=["trace", "hermiticity", "positivity"])
def test_broken_invariant_matches_the_array_check(monkeypatch, rho0, tolerances, invariant):
    for name, value in tolerances.items():
        monkeypatch.setattr(me, name, value)
    channel = me.AtomChannel(1.0, 0.3)
    first = _first_broken_invariant(_rk4_matrix_route(rho0, channel, 3000, 1e-3))
    assert first is not None and first[0] == invariant
    with pytest.raises(IntegratorInvariantBroken) as info:
        me.evolve(rho0, channel, 3.0, 1e-3)
    assert (info.value.invariant, info.value.step) == first


def test_broken_invariant_names_first_step(monkeypatch):
    monkeypatch.setattr(me, "_TRACE_TOL", -1.0)
    with pytest.raises(IntegratorInvariantBroken) as info:
        me.evolve(me.DensityMatrix.excited(), me.AtomChannel(1.0, 0.0), 1.0, 1e-3)
    assert info.value.invariant == "trace"
    assert info.value.step == 1


def test_non_finite_inputs_rejected():
    with pytest.raises(ValueError):
        me.evolve(me.DensityMatrix.excited(), me.AtomChannel(1.0, 0.0), math.inf, 1e-3)
    with pytest.raises(ValueError):
        me.jump_unravel(me.DensityMatrix.excited(), me.AtomChannel(1.0, 0.0),
                        1.0, math.nan, n_traj=4, seed=0)
    with pytest.raises(ValueError):
        me.AtomChannel(math.nan, 0.0)
    with pytest.raises(ValueError):
        me.AtomChannel(1.0, math.inf)
    with pytest.raises(ValueError):
        me.DensityMatrix(rho11=math.nan, rho12=0.0, rho21=0.0, rho22=1.0)


def test_evolve_rejects_invalid_initial_state():
    bad = np.array([[0.8, 0.0], [0.0, 0.1]])  # trace != 1
    with pytest.raises(ValueError):
        me.evolve(bad, me.AtomChannel(1.0, 0.0), 1.0, 1e-3)


@pytest.mark.parametrize("rho0", [np.diag([0.0, 1.0, 5.0]),
                                  np.array([[0.0, 0.0, 7.0], [0.0, 1.0, 7.0]]),
                                  [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
                                  np.float64(1.0), np.array([0.0, 1.0]), np.zeros((2, 2, 2))],
                         ids=["3x3", "2x3", "3x2-lists", "scalar", "1-D", "3-D"])
@pytest.mark.parametrize("entry", [
    lambda rho0: me.evolve(rho0, me.AtomChannel(1.0, 0.0), 1.0, 1e-3),
    lambda rho0: me.analytic_solution(rho0, me.AtomChannel(1.0, 0.0), 1.0),
    lambda rho0: me.jump_unravel(rho0, me.AtomChannel(1.0, 0.0), 1.0, 0.01, 10, seed=0),
], ids=["evolve", "analytic_solution", "jump_unravel"])
def test_entry_points_reject_a_state_that_is_not_2x2(entry, rho0):
    with pytest.raises(ValueError, match="^density matrix must be 2x2$"):
        entry(rho0)


@pytest.mark.parametrize("call", [
    lambda: me.DensityMatrix.from_matrix(["00", "01"]),
    lambda: me.evolve([["0", "0"], ["0", "1"]], me.AtomChannel(1.0, 0.0), 0.01, 1e-3),
], ids=["from_matrix-strings-as-rows", "evolve-string-entries"])
def test_a_state_given_as_text_is_refused(call):
    # complex() parses text, so without the check both read as the excited state.
    with pytest.raises(ValueError, match="^density matrix entries must be numbers, got '0'$"):
        call()


# ------------------------------------------------------------- unraveling

def test_unravel_matches_master_equation_within_3_sigma():
    gamma = 1.0
    channel = me.AtomChannel(gamma, 0.0)
    result = me.jump_unravel(me.DensityMatrix.excited(), channel,
                             t_final=4.0, dt=0.01, n_traj=4000, seed=7)
    exact = np.exp(-gamma * result.t)
    idx = np.linspace(1, len(result.t) - 1, 50).astype(int)
    dev = np.abs(result.rho[idx, 1, 1].real - exact[idx])
    assert np.all(dev <= 3.0 * result.stderr_rho22[idx] + 1e-12)


def test_unravel_zero_gamma_is_pure_phase():
    psi_rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    channel = me.AtomChannel(0.0, 1.2)
    result = me.jump_unravel(psi_rho, channel, t_final=2.0, dt=0.01,
                             n_traj=16, seed=3)
    assert np.abs(result.rho[:, 1, 1].real - 0.5).max() < 1e-12
    expected = 0.5 * np.exp(1j * 1.2 * result.t)
    assert np.abs(result.rho[:, 0, 1] - expected).max() < 1e-10
    assert result.stderr_rho22.max() < 1e-15  # no randomness used


def test_unravel_fixed_seed_reproducible():
    channel = me.AtomChannel(1.0, 0.3)
    a = me.jump_unravel(me.DensityMatrix.excited(), channel, 2.0, 0.01,
                        n_traj=300, seed=42)
    b = me.jump_unravel(me.DensityMatrix.excited(), channel, 2.0, 0.01,
                        n_traj=300, seed=42)
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.stderr_rho22, b.stderr_rho22)
    c = me.jump_unravel(me.DensityMatrix.excited(), channel, 2.0, 0.01,
                        n_traj=300, seed=43)
    assert not np.array_equal(a.rho, c.rho)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, -(2 ** 64)])
def test_unravel_rejects_a_seed_outside_64_bits(seed):
    # Masking the seed would give seed mod 2**64's stream.
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        me.jump_unravel(me.DensityMatrix.excited(), me.AtomChannel(1.0, 0.0), 1.0, 0.01,
                        n_traj=10, seed=seed)


@pytest.mark.parametrize("n_traj, seed, message", [
    (10.0, 0, "n_traj must be an integer, got 10.0"),
    (True, 0, "n_traj must be an integer, got True"),
    (10, 1.5, "seed must be an integer, got 1.5"),
    (10, False, "seed must be an integer, got False"),
], ids=["n_traj-float", "n_traj-bool", "seed-float", "seed-bool"])
def test_unravel_rejects_a_count_or_seed_that_is_not_an_integer(n_traj, seed, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        me.jump_unravel(me.DensityMatrix.excited(), me.AtomChannel(1.0, 0.0), 1.0, 0.01,
                        n_traj=n_traj, seed=seed)


def test_unravel_requires_pure_state():
    mixed = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ValueError):
        me.jump_unravel(mixed, me.AtomChannel(1.0, 0.0), 1.0, 0.01, 10, seed=0)


def _unravel_stepwise(psi0, channel, dt, n_steps, n_traj, seed):
    """Reference: every trajectory stepped through every step.

    Returns the trajectory-averaged rho, the number of trajectories that
    jumped in each step, and E[rho22**2] per step.
    """
    draws = np.empty((n_traj, n_steps))
    for row in range(n_traj):
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, row], dtype=np.uint64)
        draws[row] = np.random.Generator(np.random.Philox(key=key)).random(n_steps)
    c1 = np.full(n_traj, psi0[0], dtype=complex)
    c2 = np.full(n_traj, psi0[1], dtype=complex)
    survive = math.exp(-channel.gamma * dt)
    no_jump_phase = np.exp(complex(-0.5 * channel.gamma * dt, -channel.delta * dt))
    rho = np.empty((n_steps + 1, 2, 2), dtype=complex)
    second = np.empty(n_steps + 1)
    jumps = np.zeros(n_steps, dtype=int)
    alive = np.ones(n_traj, dtype=bool)

    def record(j):
        rho[j, 0, 0] = np.sum(np.abs(c1) ** 2) / n_traj
        rho[j, 1, 1] = np.sum(np.abs(c2) ** 2) / n_traj
        rho[j, 0, 1] = np.sum(c1 * np.conj(c2)) / n_traj
        rho[j, 1, 0] = np.conj(rho[j, 0, 1])
        second[j] = np.sum(np.abs(c2) ** 4) / n_traj

    record(0)
    for j in range(n_steps):
        p_jump = np.abs(c2) ** 2 * (1.0 - survive)
        jumped = draws[:, j] < p_jump
        jumps[j] = np.count_nonzero(jumped & alive)
        alive &= ~jumped
        c2 = c2 * no_jump_phase
        norm = np.sqrt(np.abs(c1) ** 2 + np.abs(c2) ** 2)
        c1 = c1 / norm
        c2 = c2 / norm
        c1[jumped] = 1.0
        c2[jumped] = 0.0
        record(j + 1)
    return rho, jumps, second


UNRAVEL_CASES = [
    (np.array([0.0, 1.0], dtype=complex), me.AtomChannel(1.0, 0.0)),
    (np.array([0.0, 1.0], dtype=complex), me.AtomChannel(1.3, -0.7)),
    (np.array([0.6, 0.8 * np.exp(2.1j)]), me.AtomChannel(0.8, 0.5)),
]


def _uniforms(n_traj, seed):
    """Reference: the doubles numpy's Generator.random makes of the first
    n_traj words of the Philox stream keyed by (seed, 0)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(n_traj).tolist()


def _jump_steps_walk(p_jumped, n_traj, seed):
    """Reference: inverse-CDF walk, one trajectory and one step at a time.
    A trajectory jumps in the first step j whose jump-within-j+1-steps
    probability exceeds its uniform, and never if none does."""
    p = [float(v) for v in p_jumped]
    first = []
    for u in _uniforms(n_traj, seed):
        j = 0
        while j + 1 < len(p) and not u < p[j + 1]:
            j += 1
        first.append(j)
    return np.array(first)


def _counts_walk(p_jumped, n_traj, seed):
    """Reference: how many trajectories have jumped within j steps, for
    j = 0 .. len(p_jumped) - 1, counted from _jump_steps_walk's steps."""
    n_steps = len(p_jumped) - 1
    jumped = np.zeros(n_steps + 1, dtype=np.intp)
    jumped[1:] = np.cumsum(np.bincount(_jump_steps_walk(p_jumped, n_traj, seed),
                                       minlength=n_steps + 1)[:n_steps])
    return jumped


def _no_jump_stepwise(psi0, gamma, delta, dt, n_steps):
    """Reference: the no-jump state renormalised step by step, with the
    probability of a jump within j steps accumulated per step."""
    c1, c2 = complex(psi0[0]), complex(psi0[1])
    per_step = -math.expm1(-gamma * dt)
    phase = np.exp(complex(-0.5 * gamma * dt, -delta * dt))
    c1_path, c2_path, p_jumped = [c1], [c2], [0.0]
    for _ in range(n_steps):
        p_jumped.append(p_jumped[-1] + (1.0 - p_jumped[-1]) * abs(c2) ** 2 * per_step)
        c2 = c2 * phase
        norm = math.sqrt(abs(c1) ** 2 + abs(c2) ** 2)
        c1, c2 = c1 / norm, c2 / norm
        c1_path.append(c1)
        c2_path.append(c2)
    return np.array(c1_path), np.array(c2_path), np.array(p_jumped)


PATH_CASES = [
    (np.array([0.6, 0.8 * np.exp(2.1j)]), 0.8, 0.5, 1e-3 / 0.8),
    (np.array([0.0, 1.0], dtype=complex), 1.3, -0.7, 1e-3),
    (np.array([0.4, np.sqrt(0.84) * np.exp(0.3j)]), 0.9, 0.4, 1e-2),
    # gamma dt = 1e-6: 1 - (norm of the no-jump state) would keep only
    # about 1e-10 of p_jumped's relative precision.
    (np.array([0.4, np.sqrt(0.84) * np.exp(0.3j)]), 1.0, 0.4, 1e-6),
]


@pytest.mark.parametrize("psi0, gamma, delta, dt", PATH_CASES,
                         ids=["coherent", "excited", "coherent-long", "small-gamma-dt"])
def test_no_jump_path_matches_stepwise_path(psi0, gamma, delta, dt):
    c1, c2, p_jumped = me._no_jump_path(psi0, gamma, delta, dt, 5000)
    ref_c1, ref_c2, ref_p = _no_jump_stepwise(psi0, gamma, delta, dt, 5000)
    assert np.abs(c1 - ref_c1).max() <= 1e-12
    assert np.abs(c2 - ref_c2).max() <= 1e-12
    assert p_jumped[0] == 0.0
    assert np.all(np.abs(p_jumped[1:] - ref_p[1:]) <= 1e-12 * ref_p[1:])
    assert np.all(np.diff(p_jumped) >= 0.0)


def test_first_jump_steps_on_a_no_jump_path():
    psi0 = np.array([0.4, np.sqrt(0.84) * np.exp(0.3j)])
    _, _, p_jumped = me._no_jump_path(psi0, 0.9, 0.4, 1e-3 / 0.9, 5000)
    counts = me._jumped_counts(p_jumped, 300, 2127877499)
    assert counts.dtype == np.intp
    np.testing.assert_array_equal(counts, _counts_walk(p_jumped, 300, 2127877499))
    assert 0 < counts[-1] < 300
    for psi0, channel in UNRAVEL_CASES:
        _, _, p_jumped = me._no_jump_path(psi0, channel.gamma, channel.delta, 0.005, 500)
        for seed in (2024, -5, 2 ** 64 - 1):
            counts = me._jumped_counts(p_jumped, 300, seed)
            np.testing.assert_array_equal(counts, _counts_walk(p_jumped, 300, seed))
            assert 0 < counts[-1] < 300


# Probabilities at the edges of the comparison u < p_jumped: exactly 0 and
# 1, the largest double below 1, subnormals, and values whose p * 2**53 is
# an integer, where a uniform equal to p must not jump.
EDGE_P = [0.0, 1.0, 1.0 - 2.0 ** -53, 5e-324, 2.0 ** -1074 * 3, 2.0 ** -1022,
          2.0 ** -53, 3 * 2.0 ** -53, 0.5, 0.25 + 2.0 ** -53]


def _edge_case_p(n_steps, which):
    """A non-decreasing probability p_jumped[j] of a jump within j steps,
    for j = 0 .. n_steps, that starts at 0."""
    rng = np.random.default_rng(n_steps)
    # "small": a random per-step jump probability below 2e-3.
    p = -np.expm1(-np.cumsum(2e-3 * rng.random(n_steps)))
    if which == "edges":
        # 0 is the "zero" case and 1 the "sure" case.
        values = EDGE_P[2:]
        p = np.sort(np.concatenate([values, p[len(values):]]))[:n_steps]
    elif which == "zero":
        p = np.zeros(n_steps)
    elif which == "sure":
        # A certain jump a little before the end.
        p[(3 * n_steps) // 4:] = 1.0
    return np.concatenate([[0.0], p])


@pytest.mark.parametrize("n_traj", [1, 7, 64])
@pytest.mark.parametrize("n_steps", [0, 1, 3, 511, 512, 513, 1536, 5000])
@pytest.mark.parametrize("which", ["small", "edges", "zero", "sure"])
def test_first_jump_steps_match_reference(n_steps, n_traj, which):
    p_jumped = _edge_case_p(n_steps, which)
    assert np.all(np.diff(p_jumped) >= 0.0)
    np.testing.assert_array_equal(me._jumped_counts(p_jumped, n_traj, 99),
                                  _counts_walk(p_jumped, n_traj, 99))


@pytest.mark.parametrize("value", EDGE_P)
def test_first_jump_steps_edge_probabilities(value):
    # A jump in step 0 with probability value, and none after it.
    p_jumped = np.full(601, value)
    p_jumped[0] = 0.0
    counts = me._jumped_counts(p_jumped, 40, 3)
    np.testing.assert_array_equal(counts, _counts_walk(p_jumped, 40, 3))
    assert counts[0] == 0
    np.testing.assert_array_equal(counts[1:], counts[1])
    if value == 1.0:
        assert counts[1] == 40  # every uniform is below 1


@pytest.mark.parametrize("step", [0, 700])
def test_first_jump_steps_threshold_at_the_draw(step):
    # p_jumped reaches one ulp below, exactly and one ulp above a
    # trajectory's own uniform in the given step: only the last catches
    # it, since a jump needs u < p_jumped.
    n_traj, seed = 24, 5
    uniforms = _uniforms(n_traj, seed)
    assert len(set(uniforms)) == n_traj
    for u in uniforms:
        below = sum(v < u for v in uniforms)
        for value in (np.nextafter(u, 0.0), u, np.nextafter(u, 1.0)):
            p_jumped = np.zeros(step + 2)
            p_jumped[step + 1] = value
            counts = me._jumped_counts(p_jumped, n_traj, seed)
            np.testing.assert_array_equal(counts, _counts_walk(p_jumped, n_traj, seed))
            np.testing.assert_array_equal(counts[:step + 1], 0)
            assert counts[step + 1] == below + (u < value)


@settings(max_examples=150, deadline=None)
@given(n_steps=st.integers(0, 2100), level=st.floats(0.0, 0.02),
       specials=st.lists(st.tuples(st.integers(0, 2099), st.sampled_from(EDGE_P)),
                         max_size=4),
       shape_seed=st.integers(0, 2 ** 32 - 1),
       seed=st.integers(-2 ** 63, 2 ** 64 - 1),
       n_traj=st.integers(1, 12))
def test_first_jump_steps_property(n_steps, level, specials, shape_seed, seed, n_traj):
    # A random per-step jump probability below level, with edge values set
    # at some steps; the running maximum keeps p_jumped non-decreasing.
    p_jumped = np.zeros(n_steps + 1)
    p_jumped[1:] = -np.expm1(-np.cumsum(level * np.random.default_rng(shape_seed)
                                        .random(n_steps)))
    for position, value in specials:
        if position < n_steps:
            p_jumped[position + 1] = value
    p_jumped = np.maximum.accumulate(p_jumped)
    np.testing.assert_array_equal(me._jumped_counts(p_jumped, n_traj, seed),
                                  _counts_walk(p_jumped, n_traj, seed))


_BLOCK_WORDS = 4 * me._PHILOX_BLOCK


@pytest.mark.parametrize("n_words", [1, 3, 4, 5, _BLOCK_WORDS - 1, _BLOCK_WORDS,
                                     _BLOCK_WORDS + 1, 2 * _BLOCK_WORDS - 1,
                                     2 * _BLOCK_WORDS, 2 * _BLOCK_WORDS + 1])
@pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
def test_philox_words_match_numpy_random_raw(seed, n_words):
    blocks = list(me._philox_blocks(seed, n_words))
    # Every block is full but the last.
    assert [len(w) for w in blocks] == [min(_BLOCK_WORDS, n_words - lo)
                                        for lo in range(0, n_words, _BLOCK_WORDS)]
    words = np.concatenate(blocks)
    key = np.array([seed, 0], dtype=np.uint64)
    assert words.dtype == np.uint64
    np.testing.assert_array_equal(words, np.random.Philox(key=key).random_raw(n_words))


def _counts_of_generator_random(p_jumped, n_traj, seed):
    """Reference: for each j, how many of numpy's Generator.random uniforms
    on the Philox stream keyed by (seed, 0) lie below p_jumped[j]."""
    key = np.array([seed, 0], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random(n_traj)
    return np.array([np.count_nonzero(u < p) for p in p_jumped])


def test_jump_steps_across_blocks_match_generator_random():
    n_traj, seed = 2 * _BLOCK_WORDS + 3, 2127877499
    p_jumped = -np.expm1(-np.linspace(0.0, 3.0, 301))
    np.testing.assert_array_equal(me._jumped_counts(p_jumped, n_traj, seed),
                                  _counts_of_generator_random(p_jumped, n_traj, seed))


def test_unravel_counts_jumps_across_blocks():
    # Three blocks of trajectories: the per-block counts must sum to the
    # count over every trajectory's uniform.
    n_traj, n_steps, dt, seed = 2 * _BLOCK_WORDS + 3, 200, 0.01, 77
    psi0 = np.array([0.6, 0.8 * np.exp(2.1j)])
    channel = me.AtomChannel(1.3, 0.4)
    c1, c2, p_jumped = me._no_jump_path(psi0, channel.gamma, channel.delta, dt, n_steps)
    result = me.jump_unravel(np.outer(psi0, psi0.conj()), channel, n_steps * dt, dt,
                             n_traj=n_traj, seed=seed)
    jumped = _counts_of_generator_random(p_jumped, n_traj, seed)
    q = (n_traj - jumped) / n_traj
    assert 0.0 < q[-1] < 1.0
    np.testing.assert_array_equal(result.rho[:, 1, 1], q * np.abs(c2) ** 2)


@pytest.mark.parametrize("block", [1, 3, 8192])
def test_unravel_does_not_depend_on_the_block_size(block, monkeypatch):
    # Two blocks at the default size, thousands at sizes 1 and 3, each with
    # a short last block: rho and its standard error are the same bytes.
    n_traj, seed = _BLOCK_WORDS + 5, 2 ** 64 - 1
    psi0 = np.array([0.6, 0.8 * np.exp(2.1j)])
    args = (np.outer(psi0, psi0.conj()), me.AtomChannel(1.3, 0.4), 2.0, 0.01)
    expected = me.jump_unravel(*args, n_traj=n_traj, seed=seed)
    monkeypatch.setattr(me, "_PHILOX_BLOCK", block)
    result = me.jump_unravel(*args, n_traj=n_traj, seed=seed)
    assert 0.0 < result.rho[-1, 1, 1].real < expected.rho[0, 1, 1].real
    assert result.rho.tobytes() == expected.rho.tobytes()
    assert result.stderr_rho22.tobytes() == expected.stderr_rho22.tobytes()


def test_jump_steps_at_certain_and_impossible_steps():
    certain = np.array([0.0, 0.0, 1e-3, 1.0, 1.0])
    counts = me._jumped_counts(certain, 50, 3)
    np.testing.assert_array_equal(counts, _counts_walk(certain, 50, 3))
    # Every trajectory jumps in step 1 or 2.
    np.testing.assert_array_equal(counts, [0, 0, counts[2], 50, 50])
    np.testing.assert_array_equal(me._jumped_counts(np.zeros(7), 50, 3), 0)


# The 0.999 quantile of chi-squared with 20 degrees of freedom. Two correct
# samplers give a larger statistic with probability 1e-3 for one case and
# seed pair, so the three cases together raise a false alarm with
# probability about 3e-3 at seeds chosen at random.
CHI2_20_Q999 = 45.315


@pytest.mark.parametrize("psi0, channel", UNRAVEL_CASES,
                         ids=["delta-zero", "delta-nonzero", "coherent"])
def test_jump_step_histogram_matches_per_step_scheme(psi0, channel):
    # Two-sample chi-squared over 20 bins of 20 steps plus a never-jumped
    # bin. The streams do not overlap: (2024, i) per trajectory for the
    # per-step scheme, (2025, 0) for the waiting-time sampler.
    n_traj, n_steps, dt = 4000, 400, 0.005
    _, ref_jumps, _ = _unravel_stepwise(psi0, channel, dt, n_steps, n_traj, 2024)
    _, _, p_jumped = me._no_jump_path(psi0, channel.gamma, channel.delta, dt, n_steps)
    counts = me._jumped_counts(p_jumped, n_traj, 2025)
    ref_hist = np.append(ref_jumps.reshape(20, 20).sum(axis=1), n_traj - ref_jumps.sum())
    # Jumps in steps 20 b .. 20 b + 19, then the never-jumped trajectories.
    hist = np.diff(np.append(counts[::20], n_traj))
    assert hist.sum() == ref_hist.sum() == n_traj and ref_hist.min() > 20
    chi2 = np.sum((hist - ref_hist) ** 2 / (hist + ref_hist))
    assert chi2 < CHI2_20_Q999


@pytest.mark.parametrize("psi0, channel", UNRAVEL_CASES,
                         ids=["delta-zero", "delta-nonzero", "coherent"])
def test_first_jump_unravel_matches_stepwise_reference(psi0, channel):
    n_traj, n_steps, dt, seed = 300, 500, 0.005, 2024
    c1, c2, p_jumped = me._no_jump_path(psi0, channel.gamma, channel.delta, dt, n_steps)
    first = _jump_steps_walk(p_jumped, n_traj, seed)
    # A trajectory that jumps in step j is on the no-jump path after 0..j
    # steps and in the ground state after.
    on_path = np.arange(n_steps + 1)[:, None] <= first[None, :]
    a1 = np.where(on_path, c1[:, None], 1.0)
    a2 = np.where(on_path, c2[:, None], 0.0)
    result = me.jump_unravel(np.outer(psi0, psi0.conj()), channel, n_steps * dt, dt,
                             n_traj=n_traj, seed=seed)
    assert np.abs(result.rho[:, 0, 0] - np.mean(np.abs(a1) ** 2, axis=1)).max() <= 1e-14
    assert np.abs(result.rho[:, 1, 1] - np.mean(np.abs(a2) ** 2, axis=1)).max() <= 1e-14
    assert np.abs(result.rho[:, 0, 1] - np.mean(a1 * np.conj(a2), axis=1)).max() <= 1e-14
    np.testing.assert_array_equal(result.rho[:, 1, 0], np.conj(result.rho[:, 0, 1]))
    np.testing.assert_allclose(result.stderr_rho22,
                               np.std(np.abs(a2) ** 2, axis=1) / math.sqrt(n_traj),
                               rtol=1e-9, atol=1e-15)


@pytest.mark.parametrize("psi0", [np.array([0.6, 0.8 * np.exp(2.1j)]),
                                  np.array([0.0, 1.0], dtype=complex),
                                  np.array([1.0, 0.0], dtype=complex)])
def test_zero_gamma_never_jumps(psi0):
    _, _, p_jumped = me._no_jump_path(psi0, 0.0, 1.2, 0.01, 300)
    np.testing.assert_array_equal(p_jumped, 0.0)
    np.testing.assert_array_equal(me._jumped_counts(p_jumped, 1000, 8), 0)


@pytest.mark.parametrize("rho22", [1.0, 1.0 - 1e-12, 0.5])
def test_unravel_long_decay_stays_finite(rho22):
    # gamma t_final = 800: exp(-gamma t) underflows to 0 from step 7451 on.
    rho12 = math.sqrt(rho22 * (1.0 - rho22))
    rho0 = np.array([[1.0 - rho22, rho12], [rho12, rho22]], dtype=complex)
    result = me.jump_unravel(rho0, me.AtomChannel(1.0, 0.3), 800.0, 0.1,
                             n_traj=200, seed=4)
    assert np.isfinite(result.rho).all() and np.isfinite(result.stderr_rho22).all()
    np.testing.assert_allclose(np.trace(result.rho, axis1=1, axis2=2), 1.0, atol=1e-12)
    assert result.rho[-1, 1, 1] == 0.0


def test_unravel_certain_first_step_jump():
    # gamma * dt = 40: 1 - exp(-40) rounds to 1, so every trajectory jumps
    # in step 0, while the renormalised no-jump path stays finite.
    psi0 = np.array([0.0, 1.0], dtype=complex)
    channel = me.AtomChannel(1.0, 0.0)
    c1, c2, p_jumped = me._no_jump_path(psi0, channel.gamma, channel.delta, 40.0, 3)
    assert p_jumped[1] == 1.0
    assert np.isfinite(c1).all() and np.isfinite(c2).all()
    counts = me._jumped_counts(p_jumped, 50, 1)
    np.testing.assert_array_equal(counts[1:], 50)
    _, ref_jumps, _ = _unravel_stepwise(psi0, channel, 40.0, 3, 50, 1)
    np.testing.assert_array_equal(np.diff(counts), ref_jumps)
    result = me.jump_unravel(me.DensityMatrix.excited(), channel, 120.0, 40.0,
                             n_traj=50, seed=1)
    np.testing.assert_array_equal(result.rho[1:, 0, 0], 1.0)
    np.testing.assert_array_equal(result.rho[1:, 1, 1], 0.0)


def test_unravel_rejects_underflowing_step():
    with pytest.raises(ValueError, match="dt = 1000.0"):
        me.jump_unravel(me.DensityMatrix.excited(), me.AtomChannel(1.0, 0.0),
                        3000.0, 1000.0, n_traj=5, seed=0)


def test_step_count_cap_checked_before_allocation(monkeypatch):
    assert me._step_count(float(me.MAX_STEPS), 1.0) == me.MAX_STEPS

    def forbidden(*args, **kwargs):
        raise AssertionError("a trajectory was allocated")

    monkeypatch.setattr(me, "_rk4_columns", forbidden)
    monkeypatch.setattr(me, "_no_jump_path", forbidden)
    too_long = me.MAX_STEPS + 1.0
    with pytest.raises(ValueError, match="exceeds the cap"):
        me.evolve(me.DensityMatrix.excited(), me.AtomChannel(1e-3, 0.0), too_long, 1.0)
    with pytest.raises(ValueError, match="exceeds the cap"):
        me.jump_unravel(me.DensityMatrix.excited(), me.AtomChannel(1.0, 0.0),
                        too_long, 1.0, n_traj=4, seed=0)


# ------------------------------------------------------------- composition

def test_channel_from_absorbing_mirror_is_free_space():
    atom = AtomSpec(omega_0=5.0, dipole_norm=1.0, mu_orient=0.3, x=2.0)
    channel = me.channel_from_mirror(MirrorSpec.absorbing(), atom, MED)
    g_free = rates.gamma_free(atom, MED)
    assert channel.gamma == pytest.approx(g_free, rel=1e-14)
    assert channel.delta == pytest.approx(0.0, abs=1e-14 * g_free)


def test_channel_from_perfect_mirror_at_z_pi():
    # Choose position so 2 k0 |x| = pi.
    omega_0 = 5.0
    x = math.pi / (2.0 * omega_0 / MED.c)
    atom = AtomSpec(omega_0=omega_0, dipole_norm=1.0, mu_orient=0.0, x=x)
    channel = me.channel_from_mirror(MirrorSpec.perfect(), atom, MED)
    g_free = rates.gamma_free(atom, MED)
    assert channel.gamma / g_free == pytest.approx(1.1519817754635067, rel=1e-12)
    assert channel.delta / g_free == pytest.approx(-0.21454376381294338, rel=1e-12)


def test_channel_side_follows_position_sign():
    mirror = MirrorSpec(t_a=0.1, t_b=0.5, r_a=0.9, r_b=0.2)
    x_abs = 0.2  # z = 2 there, where the two sides differ clearly
    atom_right = AtomSpec(omega_0=5.0, dipole_norm=1.0, mu_orient=0.0, x=x_abs)
    atom_left = AtomSpec(omega_0=5.0, dipole_norm=1.0, mu_orient=0.0, x=-x_abs)
    z = 2.0 * atom_right.k0(MED) * x_abs
    g_free = rates.gamma_free(atom_right, MED)
    right = me.channel_from_mirror(mirror, atom_right, MED)
    left = me.channel_from_mirror(mirror, atom_left, MED)
    assert right.gamma == pytest.approx(
        rates.gamma_mirr(mirror, 0.0, z, side="a") * g_free, rel=1e-12)
    assert left.gamma == pytest.approx(
        rates.gamma_mirr(mirror, 0.0, z, side="b") * g_free, rel=1e-12)
    assert abs(right.gamma - left.gamma) > 1e-2 * g_free


def test_channel_far_field_is_free_space():
    omega_0 = 5.0
    x = 1e5
    atom = AtomSpec(omega_0=omega_0, dipole_norm=1.0, mu_orient=0.0, x=x)
    channel = me.channel_from_mirror(MirrorSpec.perfect(), atom, MED)
    g_free = rates.gamma_free(atom, MED)
    assert channel.gamma == pytest.approx(g_free, rel=2e-6)
    assert abs(channel.delta) < 2e-6 * g_free


def test_channel_rejects_contact():
    atom = AtomSpec(omega_0=5.0, dipole_norm=1.0, mu_orient=0.0, x=0.0)
    with pytest.raises(ZeroDistance):
        me.channel_from_mirror(MirrorSpec.perfect(), atom, MED)


def test_density_matrix_validation():
    # A DensityMatrix validates itself when built.
    with pytest.raises(ValueError, match="not Hermitian"):
        me.DensityMatrix(rho11=0.5, rho12=0.5, rho21=-0.5, rho22=0.5)
    with pytest.raises(ValueError, match="trace deviates from 1 by more than 1e-10"):
        me.DensityMatrix(rho11=0.9, rho12=0.0, rho21=0.0, rho22=0.9)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        me.DensityMatrix(rho11=1.4, rho12=0.0, rho21=0.0, rho22=-0.4)
    me.DensityMatrix.excited()


@pytest.mark.parametrize("rho0, needle", [
    (np.diag([0.5, 0.4]), "trace deviates from 1"),
    (np.diag([1.4, -0.4]), "negative eigenvalue"),
], ids=["trace-0.9", "negative-population"])
def test_analytic_solution_rejects_an_invalid_state(rho0, needle):
    with pytest.raises(ValueError, match=needle):
        me.analytic_solution(rho0, me.AtomChannel(1.0, 0.0), [0.0, 1.0])


@pytest.mark.parametrize("rho0, needle", [
    (np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex), "not Hermitian"),  # purity 1
    (np.array([[math.nan, 0.0], [0.0, 1.0]], dtype=complex), "non-finite"),
], ids=["not-hermitian", "nan"])
def test_unravel_checks_the_initial_state_as_evolve_does(rho0, needle):
    channel = me.AtomChannel(1.0, 0.0)
    for run in (lambda: me.evolve(rho0, channel, 1.0, 0.01),
                lambda: me.jump_unravel(rho0, channel, 1.0, 0.01, 10, seed=0)):
        with pytest.raises(ValueError, match=needle):
            run()
