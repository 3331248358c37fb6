"""Discrete free-evolution vs. decoherence toolkit for a two-level system."""

from .analysis import (
    Regime,
    RegimeClassification,
    classify_schedule,
    criterion_value,
    intermediate_coefficient,
    numeric_limit_probe,
    second_order_with_criterion,
    zeno_sum,
)
from .errors import CapacityError, UnclassifiableScheduleError, ValidationError
from .evolution import enumerate_branches, propagate_projected
from .physical import (
    BrownianModelParams,
    FreeParticleParams,
    PointerModelParams,
    brownian_schedule,
    free_particle_variance,
    gaussian_model_schedule,
    gaussian_pointer_overlap,
    quadratic_validity_time,
)
from .schedules import (
    ConstantOverlap,
    ExplicitOverlaps,
    ExponentialOverlap,
    OverlapSchedule,
    PowerLawOverlap,
    family_eta,
    realize,
    schedule_from_dict,
    schedule_to_dict,
)
from .unitary import (
    EvolutionConfig,
    FreeEvolutionUnitary,
    make_general_unitary,
    make_rabi_unitary,
)

__version__ = "0.1.0"

# register alone imports numpy; its names load it on first access (PEP 562).
_REGISTER_NAMES = (
    "DensityMatrix2",
    "QubitRegister",
    "apply_cnot",
    "partial_trace_to_system",
    "recoherence_demo",
)
# `from zenokit import *` binds them too, and so loads register.
__all__ = [name for name in globals() if not name.startswith("_")] + list(_REGISTER_NAMES)


def __getattr__(name):
    if name in _REGISTER_NAMES:
        from . import register

        return getattr(register, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_REGISTER_NAMES})
