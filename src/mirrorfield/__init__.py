"""Light scattering and atom dynamics near two-sided semi-transparent mirrors.

The package provides classical mirror-image field construction, a
coherent-amplitude mode layer with mirror-surface energy bookkeeping,
closed forms for the modified spontaneous decay rate and level shift,
independent quadrature oracles for those closed forms, a master-equation
integrator with quantum-jump unraveling, and a CLI that emits CSV/JSON.
"""

__version__ = "0.1.0"

from .core import (AtomSpec, GaussianPacket, Medium, MirrorSpec,
                   PhaseConstraintResult, phase_constraint_check,
                   validate_mirror)
from .classical import (PlaneWavePacket3D, ScatterScene, ScatterScene3D,
                        energy_between, field_energy_1d, free_field_1d,
                        free_field_3d, interference_intensities,
                        mirror_field_1d, mirror_field_1d_perfect,
                        mirror_field_3d, mirror_fields_1d)
from .modespace import (ModeAmplitudes, ModeGrid, evolve_amplitudes,
                        expect_B_free, expect_E_free, expect_E_mirr_one_sided,
                        expect_H_field_one_sided, expect_H_sys,
                        packet_to_amplitudes, xi_transform)
from .rates import (EtaFactors, RateResult, delta_mirr, eta_factors,
                    gamma_free, gamma_mirr, preset_rates)
from .oracle import (OracleReport, QuadratureSpec, angular_bracket_quadrature,
                     hfield_mode_sum_check, levelshift_contour_eval,
                     reset_rate_quadrature)
from .mastereq import (AtomChannel, DensityMatrix, Trajectory, UnravelResult,
                       analytic_solution, channel_at, channel_from_mirror,
                       evolve, jump_unravel)

__all__ = [
    "__version__",
    "AtomSpec", "GaussianPacket", "Medium", "MirrorSpec",
    "PhaseConstraintResult", "phase_constraint_check", "validate_mirror",
    "PlaneWavePacket3D", "ScatterScene", "ScatterScene3D",
    "energy_between", "field_energy_1d", "free_field_1d", "free_field_3d",
    "interference_intensities", "mirror_field_1d", "mirror_field_1d_perfect",
    "mirror_field_3d", "mirror_fields_1d",
    "ModeAmplitudes", "ModeGrid", "evolve_amplitudes", "expect_B_free",
    "expect_E_free", "expect_E_mirr_one_sided", "expect_H_field_one_sided",
    "expect_H_sys", "packet_to_amplitudes", "xi_transform",
    "EtaFactors", "RateResult", "delta_mirr", "eta_factors", "gamma_free",
    "gamma_mirr", "preset_rates",
    "OracleReport", "QuadratureSpec", "angular_bracket_quadrature",
    "hfield_mode_sum_check", "levelshift_contour_eval", "reset_rate_quadrature",
    "AtomChannel", "DensityMatrix", "Trajectory", "UnravelResult",
    "analytic_solution", "channel_at", "channel_from_mirror", "evolve",
    "jump_unravel",
]
