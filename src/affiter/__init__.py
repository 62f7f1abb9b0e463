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
    identity_operator,
    l1_subdifferential,
    linear_operator,
    make_operator,
    normal_cone,
    projector,
    prox_l1,
    reflector_operator,
    relaxed,
    resolvent_operator,
    soft_threshold,
    subgradient_projector,
    tail_apply,
)
from .problems import ProblemSpec, brute_oracle, catalog
from .schedules import (
    ChiEntry,
    EtaSchedule,
    RelaxationSchedule,
    WeightSchedule,
    cesaro,
    chi_table,
    chi_value,
    constant_relaxation,
    inertial,
    memoryless,
    relaxation_at,
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
from .space import affine_combine, as_vector, norm_dist

__version__ = "0.1.0"
