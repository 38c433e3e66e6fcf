"""belfilt: Belavkin quantum filtering at desk scale.

Finite-dimensional quantum probability (conditional expectations as least
squares), truncated-Fock field statistics, a symbolic quantum Ito calculus,
and first-order stochastic integrators for the unnormalized and normalized
quantum filters under homodyne, counting, imperfect and feedback
observation schemes.
"""

__version__ = "0.1.0"

from .errors import (
    CausalityViolation,
    DimensionMismatch,
    FilterCollapse,
    NonCommutingGenerators,
    NondemolitionViolation,
    NumericalFailure,
    PositivityBreach,
    RecordFormatError,
    TruncationRadiusExceeded,
    ValidationError,
    ZeroJumpRate,
)
from .filters import (
    ControlLaw,
    FilterState,
    MeasurementScheme,
    PathHealth,
    bks_step_counting,
    bks_step_homodyne,
    compile_control_expression,
    diffusive_filter_step,
    feedback_step,
    filter_step,
    normalize,
    path_health,
    zakai_step_counting,
    zakai_step_homodyne,
)
from .operators import (
    DensityState,
    SystemModel,
    adjoint_superoperator,
    anticommutator,
    as_operator,
    commutator,
    dag,
    lindblad_adjoint,
    lindblad_heisenberg,
    random_density,
    random_hermitian,
    random_model,
    semigroup_evolve,
    semigroup_path,
)
from .trajectories import (
    EnsembleSummary,
    FilterRun,
    InnovationsReport,
    ObservationRecord,
    derive_seed,
    ensemble_average,
    innovations_stats,
    replay_record,
    simulate_counting,
    simulate_homodyne,
)

# The paper's probability and Ito theory, which no filtering run uses, load on
# first use of one of their names or modules (PEP 562): `import belfilt.cli`
# loads none of them.
_LAZY = {
    "conditioning": (
        "ClassicalRepresentation", "CommutativeAlgebra", "classical_representation",
        "conditional_expectation", "joint_spectral_projections",
    ),
    "fock": (
        "FockVector", "ModeTruncation", "StepFunction", "WeylQsdeReport", "annihilation_matrix",
        "coherent_vector", "counting_char_function", "exponential_vector", "field_operator",
        "number_operator", "quadrature_char_function", "weyl_matrix", "weyl_qsde_check",
    ),
    "ito": (
        "Differential", "EssentialCommutativity", "ItoSpec", "essential_commutativity",
        "flow_coefficients", "flow_coefficients_direct", "hp_adjoint_spec", "hp_unitary_spec",
        "ito_contract", "ito_product", "observation_coefficients", "product_rule",
        "unitarity_defect",
    ),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    from importlib import import_module

    if name in _LAZY:
        return import_module(f".{name}", __name__)
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY_NAMES))


__all__ = sorted({name for name in __dir__() if not name.startswith("_")})
