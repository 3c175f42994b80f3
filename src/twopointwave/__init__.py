"""Galerkin solver and verification harness for a damped 1D wave equation
with two-point boundary coupling."""

from .params import (
    ProblemParams,
    DerivedConstants,
    Verdict,
    validate_params,
    derive_constants,
    quadratic_form_lhs,
    mu_min,
)
from .galerkin import (
    Mesh,
    uniform_mesh,
    Forcing,
    GalerkinSystem,
    assemble,
    load_vector,
    sigma_forcing,
    norm_1_sq,
    norm_a_sq,
    sup_norm,
    error_norms,
)
from .integrate import (
    Trajectory,
    MidpointStepper,
    project_initial_data,
    integrate,
    integrate_columns,
    oracle_integrate,
)
from .diagnostics import (
    EnergyRecords,
    DecayReport,
    SandwichReport,
    DifferentialReport,
    energy,
    psi,
    lyapunov,
    record_trajectory,
    check_sandwich,
    check_differential_inequality,
    fit_decay_rate,
)
from .compat import (
    SmoothData,
    LadderReport,
    compatibility_data,
    ladder_check,
    smooth_data_from_manufactured,
)
from .manufactured import ManufacturedSolution, manufacture, FORM_NAMES
from .properties import (
    PropertyReport,
    random_admissible_params,
    quadratic_form_suite,
    norm_equivalence_suite,
    sup_embedding_suite,
    run_property_suites,
)
from .scenario import (
    Scenario,
    parse_scenario,
    run_scenario,
    convergence_study,
    converge_scenario,
    sweep_scenario,
    write_energy_csv,
    read_energy_csv,
)

__version__ = "0.1.0"
