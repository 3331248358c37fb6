"""Discrete free-evolution vs. decoherence toolkit for a two-level system."""

from .analysis import (
    Regime,
    RegimeClassification,
    RegimeReport,
    classify_schedule,
    criterion_value,
    intermediate_coefficient,
    numeric_limit_probe,
    regime_report,
    second_order_partial,
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
from .register import (
    DensityMatrix2,
    QubitRegister,
    apply_cnot,
    partial_trace_to_system,
    recoherence_demo,
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
