import math

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


def _rk4_stagewise(rho, channel, t_final, dt):
    """Reference: the classical four-stage RK4 loop on the 2x2 matrix."""
    g, d = channel.gamma, channel.delta
    out = [rho]
    for _ in range(int(round(t_final / dt))):
        k1 = me._rhs(rho, g, d)
        k2 = me._rhs(rho + 0.5 * dt * k1, g, d)
        k3 = me._rhs(rho + 0.5 * dt * k2, g, d)
        k4 = me._rhs(rho + dt * k3, g, d)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(rho)
    return np.array(out)


def test_propagator_matches_stagewise_rk4():
    psi = np.array([0.6, 0.8 * np.exp(0.7j)])
    rho0 = np.outer(psi, psi.conj())
    channel = me.AtomChannel(1.0, 0.8)
    traj = me.evolve(rho0, channel, t_final=5.0, dt=1e-3)
    reference = _rk4_stagewise(rho0, channel, 5.0, 1e-3)
    assert traj.rho.shape == reference.shape == (5001, 2, 2)
    assert np.abs(traj.rho - reference).max() < 1e-13


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
        me.DensityMatrix(rho11=math.nan, rho12=0.0, rho21=0.0, rho22=1.0).validate()


def test_evolve_rejects_invalid_initial_state():
    bad = np.array([[0.8, 0.0], [0.0, 0.1]])  # trace != 1
    with pytest.raises(ValueError):
        me.evolve(bad, me.AtomChannel(1.0, 0.0), 1.0, 1e-3)


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


def test_unravel_independent_of_worker_count_and_chunking():
    channel = me.AtomChannel(1.0, 0.0)
    ref = me.jump_unravel(me.DensityMatrix.excited(), channel, 1.5, 0.01,
                          n_traj=500, seed=11, n_workers=1)
    threaded = me.jump_unravel(me.DensityMatrix.excited(), channel, 1.5, 0.01,
                               n_traj=500, seed=11, n_workers=4)
    assert np.array_equal(ref.rho, threaded.rho)


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


@pytest.mark.parametrize("psi0, channel", UNRAVEL_CASES,
                         ids=["delta-zero", "delta-nonzero", "coherent"])
def test_first_jump_unravel_matches_stepwise_reference(psi0, channel):
    n_traj, n_steps, dt, seed = 300, 500, 0.005, 2024
    ref_rho, ref_jumps, ref_second = _unravel_stepwise(
        psi0, channel, dt, n_steps, n_traj, seed)
    _, _, p_jump = me._no_jump_path(psi0, channel.gamma, channel.delta, dt, n_steps)
    first = me._first_jump_steps(p_jump, n_traj, seed, block=64)
    jumps = np.bincount(first, minlength=n_steps + 1)[:n_steps]
    assert 0 < ref_jumps.sum() < n_traj
    np.testing.assert_array_equal(jumps, ref_jumps)

    result = me.jump_unravel(np.outer(psi0, psi0.conj()), channel, n_steps * dt, dt,
                             n_traj=n_traj, seed=seed)
    assert np.abs(result.rho - ref_rho).max() <= 1e-14 * np.abs(ref_rho).max()
    # rho22 is the no-jump value p2 on a fraction q of the trajectories and
    # 0 on the rest: var = q (1 - q) p2**2 with q p2 = E[rho22].
    q = 1.0 - np.concatenate([[0], np.cumsum(ref_jumps)]) / n_traj
    p2 = ref_rho[:, 1, 1].real / q
    closed = np.sqrt(q * (1.0 - q) / n_traj) * p2
    np.testing.assert_allclose(result.stderr_rho22, closed, rtol=1e-14, atol=0.0)
    # The sample variance E[x**2] - E[x]**2 is the same quantity, up to its
    # cancellation.
    sample = np.sqrt(np.maximum(ref_second - ref_rho[:, 1, 1].real ** 2, 0.0) / n_traj)
    np.testing.assert_allclose(result.stderr_rho22, sample, rtol=1e-6, atol=1e-12)


def test_unravel_independent_of_block_size_and_validates_workers():
    channel = me.AtomChannel(1.0, 0.4)
    ref = me.jump_unravel(me.DensityMatrix.excited(), channel, 1.0, 0.01,
                          n_traj=100, seed=5)
    for chunk_size in (1, 7, 100, 1000):
        other = me.jump_unravel(me.DensityMatrix.excited(), channel, 1.0, 0.01,
                                n_traj=100, seed=5, chunk_size=chunk_size)
        assert np.array_equal(ref.rho, other.rho)
        assert np.array_equal(ref.stderr_rho22, other.stderr_rho22)
    for bad in ({"n_workers": 0}, {"chunk_size": 0}):
        with pytest.raises(ValueError):
            me.jump_unravel(me.DensityMatrix.excited(), channel, 1.0, 0.01,
                            n_traj=10, seed=5, **bad)


def _first_jump_reference(p_jump, n_traj, seed):
    """Reference: each trajectory draws all its doubles from a fresh
    Generator on its Philox stream and jumps at the first draw below p."""
    first = np.full(n_traj, len(p_jump))
    for row in range(n_traj):
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, row], dtype=np.uint64)
        hit = np.random.Generator(np.random.Philox(key=key)).random(len(p_jump)) < p_jump
        if hit.any():
            first[row] = hit.argmax()
    return first


# Probabilities at the edges of the raw-word comparison: exactly 0 and 1,
# the largest double below 1, subnormals, and values whose p * 2**53 is an
# integer, where draw < p must not count the draw equal to p.
EDGE_P = [0.0, 1.0, 1.0 - 2.0 ** -53, 5e-324, 2.0 ** -1074 * 3, 2.0 ** -1022,
          2.0 ** -53, 3 * 2.0 ** -53, 0.5, 0.25 + 2.0 ** -53]


def _edge_case_p(n_steps, which):
    rng = np.random.default_rng(n_steps)
    if which == "small":
        return 2e-3 * rng.random(n_steps)
    if which == "edges":
        # 0 is the "zero" case and 1 the "sure" case.
        values = EDGE_P[2:]
        p = 1e-3 * rng.random(n_steps)
        p[rng.permutation(n_steps)[:len(values)]] = values[:n_steps]
        return p
    if which == "zero":
        return np.zeros(n_steps)
    # "sure": a certain jump a little before the end.
    p = 1e-4 * rng.random(n_steps)
    p[(3 * n_steps) // 4:] = 1.0
    return p


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("n_steps", [0, 1, 3, 511, 512, 513, 1536, 5000])
@pytest.mark.parametrize("which", ["small", "edges", "zero", "sure"])
def test_first_jump_steps_match_reference(n_steps, block, which):
    p_jump = _edge_case_p(n_steps, which)
    n_traj = 70
    first = me._first_jump_steps(p_jump, n_traj, 99, block)
    np.testing.assert_array_equal(first, _first_jump_reference(p_jump, n_traj, 99))


@pytest.mark.parametrize("value", EDGE_P)
def test_first_jump_steps_edge_probabilities(value):
    p_jump = np.full(600, value)
    first = me._first_jump_steps(p_jump, 40, 3, 8)
    np.testing.assert_array_equal(first, _first_jump_reference(p_jump, 40, 3))
    if value == 1.0:
        assert not first.any()  # every draw is below 1


@pytest.mark.parametrize("step", [0, 700])
def test_first_jump_steps_threshold_at_the_draw(step):
    # p equal to a trajectory's own draw, one ulp below and one ulp above
    # it: only the last catches that draw. Between two multiples of 2**-53
    # the raw-word threshold must round p up, not down.
    n_traj, seed = 24, 5
    draws = [np.random.Generator(np.random.Philox(key=np.array([seed, row], dtype=np.uint64)))
             .random(step + 1)[step] for row in range(n_traj)]
    for draw in draws:
        for value in (np.nextafter(draw, 0.0), draw, np.nextafter(draw, 1.0)):
            p_jump = np.zeros(step + 1)
            p_jump[step] = value
            np.testing.assert_array_equal(me._first_jump_steps(p_jump, n_traj, seed, 7),
                                          _first_jump_reference(p_jump, n_traj, seed))


def test_first_jump_steps_at_segment_bounds():
    # p is 0 except at both sides of every segment bound, so jumps land on
    # the last word of one segment and the first word of the next.
    bounds = [511, 512, 1535, 1536, 3583, 3584, 4999]
    p_jump = np.zeros(5000)
    p_jump[bounds] = 0.5
    first = me._first_jump_steps(p_jump, 1000, 17, 64)
    np.testing.assert_array_equal(first, _first_jump_reference(p_jump, 1000, 17))
    assert set(bounds) <= set(first.tolist())
    assert set(first.tolist()) <= set(bounds) | {5000}


def test_first_jump_steps_on_a_no_jump_path():
    psi0 = np.array([0.4, np.sqrt(0.84) * np.exp(0.3j)])
    _, _, p_jump = me._no_jump_path(psi0, 0.9, 0.4, 1e-3 / 0.9, 5000)
    first = me._first_jump_steps(p_jump, 300, 2127877499, 64)
    np.testing.assert_array_equal(first, _first_jump_reference(p_jump, 300, 2127877499))
    assert 0 < np.count_nonzero(first < 5000) < 300


@settings(max_examples=150, deadline=None)
@given(n_steps=st.integers(0, 2100), level=st.floats(0.0, 0.02),
       specials=st.lists(st.tuples(st.integers(0, 2099), st.sampled_from(EDGE_P)),
                         max_size=4),
       shape_seed=st.integers(0, 2 ** 32 - 1),
       seed=st.integers(-2 ** 63, 2 ** 64 - 1),
       n_traj=st.integers(1, 12), block=st.integers(1, 5))
def test_first_jump_steps_property(n_steps, level, specials, shape_seed, seed,
                                   n_traj, block):
    p_jump = level * np.random.default_rng(shape_seed).random(n_steps)
    for position, value in specials:
        if position < n_steps:
            p_jump[position] = value
    first = me._first_jump_steps(p_jump, n_traj, seed, block)
    np.testing.assert_array_equal(first, _first_jump_reference(p_jump, n_traj, seed))


def test_unravel_certain_first_step_jump():
    # gamma * dt = 40: 1 - exp(-40) rounds to 1, so every trajectory jumps
    # in step 0, while the renormalised no-jump path stays finite.
    psi0 = np.array([0.0, 1.0], dtype=complex)
    channel = me.AtomChannel(1.0, 0.0)
    c1, c2, p_jump = me._no_jump_path(psi0, channel.gamma, channel.delta, 40.0, 3)
    assert p_jump[0] == 1.0
    assert np.isfinite(c1).all() and np.isfinite(c2).all()
    first = me._first_jump_steps(p_jump, 50, 1, 7)
    assert not first.any()
    _, ref_jumps, _ = _unravel_stepwise(psi0, channel, 40.0, 3, 50, 1)
    np.testing.assert_array_equal(np.bincount(first, minlength=4)[:3], ref_jumps)
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

    monkeypatch.setattr(me, "_rk4_increment", forbidden)
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
    with pytest.raises(ValueError):
        me.DensityMatrix(rho11=0.5, rho12=0.5, rho21=-0.5, rho22=0.5).validate()
    with pytest.raises(ValueError):
        me.DensityMatrix(rho11=0.9, rho12=0.0, rho21=0.0, rho22=0.9).validate()
    with pytest.raises(ValueError):
        me.DensityMatrix(rho11=1.4, rho12=0.0, rho21=0.0, rho22=-0.4).validate()
    me.DensityMatrix.excited().validate()
