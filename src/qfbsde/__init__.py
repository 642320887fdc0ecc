"""Monte-Carlo laboratory for quadratic FBSDEs with rough drift.

Forward Euler simulation with deterministic substreams, least-squares
backward induction for truncated quadratic drivers, closed-form oracles,
first-variation and Malliavin derivative solvers, and the audit suite
(a-priori bounds, truncation stabilization, path-regularity rates,
representation identities) tying them together.
"""

import os as _os

# Cap the BLAS worker pools before numpy spins them up.  Results do not
# depend on this — every solver is deterministic — it only bounds CPU use.
_threads = _os.environ.get("QFBSDE_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .core import (  # noqa: E402
    DriverAudit,
    DriverSpec,
    EnvelopeTable,
    FBSDEProblem,
    QfbsdeError,
    RunConfig,
    TimeGrid,
    TransformTables,
    UNTRUNCATED,
    ValidationError,
    increasing_envelope,
    rho_truncate,
    rho_truncate_deriv,
    transform_residual,
    transform_tables,
    upsilon1,
    upsilon2,
    validate_driver,
)
from .forward import (  # noqa: E402
    ContinuityReport,
    DriftEvaluationError,
    FlowFields,
    MollifiedDrift,
    PathEnsemble,
    ZvonkinTransform,
    continuity_diagnostic,
    euler_maruyama,
    malliavin_forward,
    mollify_drift,
    sample_brownian,
    simulate,
    validate_ensemble,
    variational_flow,
    zvonkin_transform_1d,
)
from .backward import (  # noqa: E402
    BackwardSolution,
    BoundsReport,
    NOT_FOUND,
    PicardDivergenceError,
    RegressionBasis,
    apriori_check,
    estimate_bmo,
    lsmc_solve,
    regress_conditional,
    stabilization_level,
)
from .oracles import (  # noqa: E402
    DominationMap,
    OracleResult,
    domination_map,
    domination_oracle,
    gauss_hermite,
    linear_oracle,
    nested_mc_ce,
)
from .derivatives import (  # noqa: E402
    DerivativeSolution,
    FdGradient,
    RepresentationReport,
    fd_gradient,
    representation_check,
    solve_gradient_bsde,
    solve_malliavin_bsde,
)
from .analysis import (  # noqa: E402
    ConvergenceReport,
    path_regularity_stat,
    rate_fit,
    stability_experiment,
    truncation_error_curve,
    y_increment_stat,
    zhang_zbar,
)
from .registry import (  # noqa: E402
    build_problem,
    describe_registry,
    make_drift,
    make_driver,
    make_growth_profile,
    make_terminal,
)
from .config import (  # noqa: E402
    ConfigError,
    Diagnostic,
    ExperimentConfig,
    emit_config,
    parse_config,
)
from .runner import run  # noqa: E402

__all__ = [
    "__version__",
    # core
    "DriverAudit", "DriverSpec", "EnvelopeTable", "FBSDEProblem",
    "QfbsdeError", "RunConfig", "TimeGrid", "TransformTables",
    "UNTRUNCATED", "ValidationError", "increasing_envelope",
    "rho_truncate", "rho_truncate_deriv",
    "transform_residual", "transform_tables", "upsilon1", "upsilon2",
    "validate_driver",
    # forward
    "ContinuityReport",
    "DriftEvaluationError", "FlowFields", "MollifiedDrift", "PathEnsemble",
    "ZvonkinTransform", "continuity_diagnostic", "euler_maruyama",
    "malliavin_forward", "mollify_drift", "sample_brownian", "simulate",
    "validate_ensemble", "variational_flow", "zvonkin_transform_1d",
    # backward
    "BackwardSolution", "BoundsReport", "NOT_FOUND",
    "PicardDivergenceError", "RegressionBasis", "apriori_check",
    "estimate_bmo", "lsmc_solve", "regress_conditional",
    "stabilization_level",
    # oracles
    "DominationMap", "OracleResult", "domination_map",
    "domination_oracle", "gauss_hermite", "linear_oracle", "nested_mc_ce",
    # derivatives
    "DerivativeSolution", "FdGradient", "RepresentationReport",
    "fd_gradient", "representation_check", "solve_gradient_bsde",
    "solve_malliavin_bsde",
    # analysis
    "ConvergenceReport", "path_regularity_stat", "rate_fit",
    "stability_experiment", "truncation_error_curve", "y_increment_stat",
    "zhang_zbar",
    # registry / config / runner
    "build_problem", "describe_registry", "make_drift", "make_driver",
    "make_growth_profile", "make_terminal", "ConfigError", "Diagnostic",
    "ExperimentConfig", "emit_config", "parse_config", "run",
]
