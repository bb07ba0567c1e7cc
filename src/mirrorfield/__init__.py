"""Light scattering and atom dynamics near two-sided semi-transparent mirrors.

The package provides classical mirror-image field construction, a
coherent-amplitude mode layer with mirror-surface energy bookkeeping,
closed forms for the modified spontaneous decay rate and level shift,
independent quadrature oracles for those closed forms, a master-equation
integrator with quantum-jump unraveling, and a CLI that emits CSV/JSON.

Importing the package loads none of its layers. Each layer module is
registered in ``sys.modules`` as a deferred module and runs on its first
attribute access, and each public name below is looked up in its module
when first read, so a command loads only the layers it uses.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Each layer module and the public names it exports at package level.
_EXPORTS = {
    "core": ("AtomSpec", "GaussianPacket", "Medium", "MirrorSpec",
             "PhaseConstraintResult", "phase_constraint_check", "validate_mirror"),
    "classical": ("PlaneWavePacket3D", "ScatterScene", "energy_between", "field_energy_1d",
                  "free_field_1d", "free_field_3d", "interference_intensities",
                  "mirror_field_1d", "mirror_field_1d_perfect", "mirror_field_3d",
                  "mirror_fields_1d"),
    "modespace": ("ModeAmplitudes", "ModeGrid", "evolve_amplitudes", "expect_B_free",
                  "expect_E_free", "expect_E_mirr_one_sided", "expect_H_field_one_sided",
                  "expect_H_sys", "packet_to_amplitudes", "xi_transform"),
    "rates": ("EtaFactors", "RateResult", "delta_mirr", "eta_factors", "gamma_free",
              "gamma_mirr", "preset_rates"),
    "oracle": ("QuadratureSpec", "angular_bracket_quadrature", "hfield_mode_sum_check",
               "levelshift_contour_eval", "reset_rate_quadrature"),
    "mastereq": ("AtomChannel", "DensityMatrix", "Trajectory", "UnravelResult",
                 "analytic_solution", "channel_at", "channel_from_mirror", "evolve",
                 "jump_unravel"),
    "io": (),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def _defer(module: str):
    """Register the submodule in sys.modules; its code runs on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    deferred = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = deferred
    spec.loader.exec_module(deferred)
    return deferred


for _module in _EXPORTS:
    globals()[_module] = _defer(_module)
del _module


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
