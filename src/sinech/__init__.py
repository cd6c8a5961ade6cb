"""sinech: sine-spectral simulation and verification toolkit for the
2D Cahn-Hilliard equation with inertia,

    u_tt + u_t + A(Au + f(u)) = g,    u = Delta u = 0 on the boundary,

on the square (0, side)^2, where A = -Delta with Dirichlet conditions.
Everything lives in the orthonormal sine eigenbasis of A, which makes
operator powers, Galerkin projections, and the phase-space norms exact.
"""

from .errors import (
    CheckpointMismatchError,
    CheckpointVersionError,
    ConfigError,
    DimensionMismatchError,
    FileFormatError,
    InstabilityError,
    InsufficientDataError,
    StepFailureError,
    UnsupportedNonlinearityError,
)
from .spectral import (
    GridSpec,
    ModalField,
    apply_power,
    eigenvalue,
    eigenvalues,
    field_integral,
    inner,
    lambda_max,
    load_field,
    nodal_values,
    norm_Hs,
    norm_pair,
    project,
    random_band_limited,
    resample,
    save_field,
    sup_norm,
)
from .model import (
    AssumptionReport,
    HigherFunctionals,
    Nonlinearity,
    SourceTerm,
    acceleration_from_state,
    check_assumptions,
    diagnostic_F,
    energy,
    f_eval_dealiased,
    higher_functionals,
    pde_residual,
)
from .integrator import (
    Checkpoint,
    SchemeConfig,
    State,
    Stepper,
    TrajectoryLog,
    energy_equality_residual,
    higher_energy_residual,
    load_checkpoint,
    resume_simulation,
    run,
    save_checkpoint,
    simulate,
)
from .analysis import (
    AbsorbReport,
    ConvergenceReport,
    DecompositionRun,
    EquilibriumResult,
    LipschitzReport,
    LojReport,
    absorbing_probe,
    bg_ratio,
    decompose_with_retries,
    decomposition_run,
    find_equilibrium,
    galerkin_convergence,
    lipschitz_dependence,
    lojasiewicz_probe,
    random_pair_state,
)

__version__ = "0.1.0"
