"""``affiter``'s public names are a listed set, so a new export is a deliberate edit.

Every name here has a user outside the tests: a README line, a CLI path, a
script, a perfbench target, or an exported signature that names it.  Names
that only the tests and perfbench's spans read stay in their modules:
``operators.tail_apply``, ``space.affine_combine``, ``schedules.relaxation_at``
and ``schedules.ChiEntry``.
"""

from types import ModuleType

import affiter

SURFACE = {
    # certificates
    "InertialBandParams", "gronwall_envelope", "inertial_band_validate", "run_certificates",
    "summability_monitor",
    # engine
    "ErrorModel", "GeometricError", "IterationConfig", "RunTrace", "SequenceError",
    "error_budget_check", "run",
    # errors
    "CertificateUnavailableError", "ConfigurationError", "DegenerateSelectionWarning",
    "InvalidReferenceError", "InvalidScheduleError", "NumericalDivergence",
    # operators
    "AveragedOperator", "LayerStack", "MonotoneMap", "affine_monotone", "apply_stack",
    "averagedness_certificate", "compose", "composite_phi", "gradient_step",
    "l1_subdifferential", "linear_operator", "normal_cone", "projector", "prox_l1",
    "reflector_operator", "relaxed", "resolvent_operator", "soft_threshold",
    "subgradient_projector",
    # problems
    "ProblemSpec", "brute_oracle", "catalog",
    # schedules
    "EtaSchedule", "RelaxationSchedule", "WeightSchedule", "cesaro", "chi_table", "chi_value",
    "constant_relaxation", "inertial", "memoryless", "validate_weights", "window",
    # solvers
    "SolverPreset", "forward_backward", "krasnoselskii_mann", "peaceman_rachford",
    "polyak_subgradient",
    # space
    "as_vector",
}


def test_the_package_exports_the_listed_names():
    # submodules (affiter.cli once imported) are attributes too, but not exports
    public = {name for name, value in vars(affiter).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == SURFACE
