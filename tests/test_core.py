import math

import pytest

from mirrorfield.core import (AtomSpec, GaussianPacket, Medium, MirrorSpec,
                              phase_constraint_check, validate_mirror)
from mirrorfield.errors import AbsorptionViolation, RateOutOfRange


def test_medium_derived_light_speed():
    med = Medium(epsilon=4.0, mu_p=1.0)
    assert med.c == 0.5
    assert Medium().c == 1.0


def test_medium_rejects_nonpositive():
    with pytest.raises(ValueError):
        Medium(epsilon=0.0)
    with pytest.raises(ValueError):
        Medium(mu_p=-1.0)


@pytest.mark.parametrize("epsilon, mu_p", [(1e300, 1e300), (1e-300, 1e-300)])
def test_medium_rejects_a_product_that_overflows_or_underflows(epsilon, mu_p):
    # The light speed 1 / sqrt(epsilon * mu_p) would divide by zero.
    with pytest.raises(ValueError, match=r"epsilon \* mu_p must be positive and finite"):
        Medium(epsilon=epsilon, mu_p=mu_p)
    assert 0.0 < Medium(epsilon=1e154, mu_p=1e154).c < math.inf


@pytest.mark.parametrize("sigma", [1e200, 1e-200, -3.0])
def test_packet_rejects_sigma_whose_square_overflows_or_underflows(sigma):
    # The envelope divides by sigma**2, which would raise OverflowError or
    # divide by zero.
    with pytest.raises(ValueError, match=r"need sigma > 0 and 0 < sigma\*\*2 < inf"):
        GaussianPacket(e0=1.0, x0=-30.0, sigma=sigma, k0_carrier=-5.0, side="b")


def test_validate_perfect_and_free_presets():
    assert validate_mirror(MirrorSpec.perfect()) == MirrorSpec.perfect()
    assert validate_mirror(MirrorSpec.free_space()) == MirrorSpec.free_space()


def test_validate_is_idempotent():
    spec = MirrorSpec.symmetric(r=0.3, t=0.5)
    once = validate_mirror(spec)
    assert validate_mirror(once) == spec


def test_validate_absorption_violation():
    with pytest.raises(AbsorptionViolation):
        validate_mirror(MirrorSpec.symmetric(r=0.9, t=0.9))


def test_validate_rate_out_of_range():
    with pytest.raises(RateOutOfRange):
        validate_mirror(MirrorSpec(t_a=1.2, t_b=0.0, r_a=0.0, r_b=0.0))
    with pytest.raises(RateOutOfRange):
        validate_mirror(MirrorSpec(t_a=0.5, t_b=0.5, r_a=-0.2, r_b=0.5))


def test_validate_tolerates_float_roundoff():
    r = t = 2**-0.5  # r*r + t*t == 1 + 2e-16
    validate_mirror(MirrorSpec.symmetric(r=r, t=t))


def test_phase_constraint_examples():
    sat = phase_constraint_check(
        MirrorSpec.symmetric(r=0.5, t=0.5, phi_1=math.pi))
    assert sat.satisfied and sat.residual == pytest.approx(0.0, abs=1e-12)

    viol = phase_constraint_check(MirrorSpec.symmetric(r=0.5, t=0.5))
    assert viol.status == "violated"
    assert viol.residual == pytest.approx(math.pi, abs=1e-12)

    even = phase_constraint_check(
        MirrorSpec.symmetric(r=0.5, t=0.5, phi_1=math.pi, phi_3=math.pi))
    assert even.status == "violated"
    assert even.residual == pytest.approx(math.pi, abs=1e-12)


def test_phase_constraint_invariant_under_two_pi_shifts(rng):
    base = dict(phi_1=0.8, phi_2=-0.3, phi_3=2.2, phi_4=0.5)
    reference = phase_constraint_check(MirrorSpec.symmetric(r=0.5, t=0.5, **base))
    for key in base:
        shifted = dict(base)
        shifted[key] += 2.0 * math.pi * rng.integers(-3, 4)
        result = phase_constraint_check(MirrorSpec.symmetric(r=0.5, t=0.5, **shifted))
        assert result.status == reference.status
        assert result.residual == pytest.approx(reference.residual, abs=1e-9)


def test_phase_constraint_not_applicable_without_interference():
    assert phase_constraint_check(MirrorSpec.perfect()).status == "not_applicable"
    assert phase_constraint_check(MirrorSpec.free_space()).status == "not_applicable"
    assert phase_constraint_check(MirrorSpec.absorbing()).status == "not_applicable"


def test_lossless_factory_satisfies_constraint():
    spec = MirrorSpec.lossless(r=0.6)
    assert spec.t_a == pytest.approx(0.8)
    assert phase_constraint_check(spec).satisfied


def test_atom_spec_validation_and_k0():
    atom = AtomSpec(omega_0=2.0, dipole_norm=1.0, mu_orient=0.5, x=3.0)
    assert atom.k0(Medium(epsilon=4.0)) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        AtomSpec(omega_0=-1.0, dipole_norm=1.0, mu_orient=0.0, x=1.0)
    with pytest.raises(ValueError):
        AtomSpec(omega_0=1.0, dipole_norm=1.0, mu_orient=1.5, x=1.0)


@pytest.mark.parametrize("build", [
    lambda: Medium(epsilon=math.nan),
    lambda: Medium(mu_p=math.inf),
    lambda: GaussianPacket(e0=math.nan, x0=30.0, sigma=3.0, k0_carrier=-5.0),
    lambda: GaussianPacket(e0=1.0, x0=30.0, sigma=3.0, k0_carrier=-5.0,
                           xi_init=-math.inf),
    lambda: AtomSpec(omega_0=1.0, dipole_norm=1.0, mu_orient=0.5, x=math.inf),
    lambda: AtomSpec(omega_0=1.0, dipole_norm=math.nan, mu_orient=0.5, x=1.0),
], ids=["medium-epsilon", "medium-mu_p", "packet-e0", "packet-xi_init",
        "atom-x", "atom-dipole_norm"])
def test_records_reject_non_finite_fields(build):
    with pytest.raises(ValueError, match="must be finite"):
        build()


def test_packet_direction_consistency():
    with pytest.raises(ValueError):
        GaussianPacket(e0=1.0, x0=30.0, sigma=3.0, k0_carrier=5.0, direction="left")
    packet = GaussianPacket.moving(e0=1.0, x0=30.0, sigma=3.0, k0_carrier=-5.0)
    assert packet.direction == "left"


def test_packet_soft_localisation_warning():
    with pytest.warns(UserWarning):
        GaussianPacket.moving(e0=1.0, x0=2.0, sigma=3.0, k0_carrier=-5.0, side="a")
    with pytest.warns(UserWarning):
        GaussianPacket.moving(e0=1.0, x0=-30.0, sigma=3.0, k0_carrier=5.0, side="a")


def test_json_round_trip_snake_case_fields():
    mirror = MirrorSpec.symmetric(r=0.3, t=0.5, phi_1=1.0)
    assert set(mirror.to_dict()) == {
        "t_a", "t_b", "r_a", "r_b", "phi_1", "phi_2", "phi_3", "phi_4"}
    assert MirrorSpec.from_dict(mirror.to_dict()) == mirror

    med = Medium(epsilon=2.0, mu_p=3.0)
    assert set(med.to_dict()) == {"epsilon", "mu_p"}
    assert Medium.from_dict(med.to_dict()) == med

    atom = AtomSpec(omega_0=1.0, dipole_norm=2.0, mu_orient=0.0, x=1.0)
    assert set(atom.to_dict()) == {"omega_0", "dipole_norm", "mu_orient", "x", "e", "hbar"}
    assert AtomSpec.from_dict(atom.to_dict()) == atom

    packet = GaussianPacket.moving(e0=1.0, x0=30.0, sigma=3.0, k0_carrier=-5.0)
    assert set(packet.to_dict()) == {
        "e0", "x0", "sigma", "k0_carrier", "side", "direction", "xi_init"}
    assert GaussianPacket.from_dict(packet.to_dict()) == packet


@pytest.mark.parametrize("name, params, expected", [
    ("perfect", {}, MirrorSpec.perfect()),
    ("free", {}, MirrorSpec.free_space()),
    ("absorbing", {}, MirrorSpec.absorbing()),
    ("lossless", {"r": 0.6}, MirrorSpec.lossless(r=0.6)),
    ("lossless", {"r": 0.6, "phi_2": 0.1}, MirrorSpec.lossless(r=0.6, phi_2=0.1)),
    ("symmetric", {"r": 0.3, "t": 0.5}, MirrorSpec.symmetric(r=0.3, t=0.5)),
    ("symmetric", {"r": 0.3, "t": 0.5, "phi_1": math.pi, "phi_4": 0.2},
     MirrorSpec.symmetric(r=0.3, t=0.5, phi_1=math.pi, phi_4=0.2)),
])
def test_from_preset_equals_named_constructor(name, params, expected):
    assert MirrorSpec.from_preset(name, **params) == expected


@pytest.mark.parametrize("name, params", [
    ("perfect", {"r": 0.5}),
    ("free", {"t": 0.5}),
    ("absorbing", {"phi_1": 1.0}),
    ("lossless", {}),
    ("lossless", {"r": 0.5, "t": 0.5}),
    ("symmetric", {"r": 0.5}),
    ("symmetric", {"t": 0.5}),
    ("symmetric", {"r": 0.5, "t": 0.5, "bogus": 1.0}),
    ("symmetric", {"r": 0.5, "t": 0.5, "name": "perfect"}),
    ("beamsplitter", {}),
])
def test_from_preset_rejects_wrong_parameters(name, params):
    with pytest.raises(ValueError):
        MirrorSpec.from_preset(name, **params)


def test_from_preset_validates_rates():
    with pytest.raises(AbsorptionViolation):
        MirrorSpec.from_preset("symmetric", r=0.9, t=0.9)
