"""Fixed-point iterations of averaged-operator compositions applied to
points in the affine hull of the orbit, with runtime convergence
certificates, preset splitting solvers, and a config-driven CLI."""

from .certificates import (
    InertialBandParams,
    gronwall_envelope,
    inertial_band_validate,
    run_certificates,
    summability_monitor,
)
from .engine import (
    ErrorModel,
    GeometricError,
    IterationConfig,
    RunTrace,
    SequenceError,
    error_budget_check,
    run,
)
from .errors import (
    CertificateUnavailableError,
    ConfigurationError,
    DegenerateSelectionWarning,
    InvalidReferenceError,
    InvalidScheduleError,
    NumericalDivergence,
)
from .operators import (
    AveragedOperator,
    LayerStack,
    MonotoneMap,
    affine_monotone,
    apply_stack,
    averagedness_certificate,
    compose,
    composite_phi,
    gradient_step,
    l1_subdifferential,
    linear_operator,
    normal_cone,
    projector,
    prox_l1,
    reflector_operator,
    relaxed,
    resolvent_operator,
    soft_threshold,
    subgradient_projector,
)
from .problems import ProblemSpec, brute_oracle, catalog
from .schedules import (
    EtaSchedule,
    RelaxationSchedule,
    WeightSchedule,
    cesaro,
    chi_table,
    chi_value,
    constant_relaxation,
    inertial,
    memoryless,
    validate_weights,
    window,
)
from .solvers import (
    SolverPreset,
    forward_backward,
    krasnoselskii_mann,
    peaceman_rachford,
    polyak_subgradient,
)
from .space import as_vector

__version__ = "0.1.0"
