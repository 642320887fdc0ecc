import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfbsde import (
    DriverSpec,
    FBSDEProblem,
    RunConfig,
    TimeGrid,
    UNTRUNCATED,
    ValidationError,
    rho_truncate,
    rho_truncate_deriv,
    transform_residual,
    transform_tables,
    upsilon1,
    upsilon2,
)
from qfbsde.core import _nested_indices
from qfbsde.registry import (make_drift, make_driver, make_growth_profile,
                             make_terminal)


# ---------------------------------------------------------------------------
# Truncation family
# ---------------------------------------------------------------------------

GRID = np.linspace(-30.0, 30.0, 10_001)


@pytest.mark.parametrize("n", range(1, 21))
def test_truncation_invariants_dense_grid(n):
    r = rho_truncate(GRID, n)
    inner = np.abs(GRID) <= n
    assert np.array_equal(r[inner], GRID[inner])        # identity region
    assert np.abs(r).max() <= n + 1 + 1e-12             # cap
    assert np.all(np.abs(r) <= np.abs(GRID) + 1e-12)    # contraction
    d = rho_truncate_deriv(GRID, n)
    assert d.min() >= 0.0 and d.max() <= 1.0
    r_neg = rho_truncate(-GRID, n)
    assert np.allclose(r_neg, -r, atol=0.0)             # odd


@pytest.mark.parametrize("n", [1, 3, 20])
def test_truncation_derivative_matches_difference_quotient(n):
    x = np.linspace(-n - 3, n + 3, 2001)
    h = 1e-6
    num = (rho_truncate(x + h, n) - rho_truncate(x - h, n)) / (2 * h)
    assert np.abs(num - rho_truncate_deriv(x, n)).max() < 1e-5


def test_truncation_blend_is_c1_at_the_seams():
    # value and slope continuity across |x| = n and the saturation point
    n = 4
    for seam in (n, n + 2.0):
        left = rho_truncate(np.array([seam - 1e-9]), n)[0]
        right = rho_truncate(np.array([seam + 1e-9]), n)[0]
        assert abs(left - right) < 1e-8


def test_truncation_vec_applies_componentwise():
    z = np.array([[0.5, -7.0], [3.0, 9.0]])
    out = rho_truncate(z, 2)
    assert out.shape == z.shape
    assert out[0, 0] == 0.5
    assert out[0, 1] == -rho_truncate(np.array([7.0]), 2)[0]


@given(st.floats(-1e6, 1e6), st.integers(1, 50))
@settings(max_examples=200, deadline=None)
def test_truncation_properties_hypothesis(x, n):
    r = float(rho_truncate(np.array([x]), n)[0])
    assert abs(r) <= n + 1 + 1e-9
    assert abs(r) <= abs(x) + 1e-9
    if abs(x) <= n:
        assert r == x


@pytest.mark.parametrize("n", [1, 7])
def test_truncation_maps_non_finite_points_without_warnings(n):
    x = np.array([np.inf, -np.inf, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = rho_truncate(x, n)
        d = rho_truncate_deriv(x, n)
    assert r[0] == n + 1 and r[1] == -(n + 1) and np.isnan(r[2])
    assert d[0] == 0.0 and d[1] == 0.0 and np.isnan(d[2])


def _rho_expression(x, n):
    """The clamped blend of :func:`rho_truncate`'s docstring, as written."""
    a = np.abs(x)
    s = np.clip(a - n, 0.0, 2.0)
    return np.sign(x) * (np.minimum(a, n) + s - 0.25 * s * s)


@pytest.mark.parametrize("n", range(1, 21))
def test_truncation_identity_region_shortcut_is_bitwise_the_expression(n):
    # arrays inside [-n, n] return x + 0.0; everything else, NaN, empty
    # arrays and scalars included, goes through the expression
    inner = GRID[np.abs(GRID) <= n]
    zeros = np.array([0.0, -0.0])
    cases = [inner, inner.reshape(-1, 1), np.concatenate([inner, zeros]),
             zeros, GRID, np.array([0.5, np.nan]), np.empty(0),
             np.empty((0, 2))]
    for x in cases:
        out = rho_truncate(x, n)
        assert out.shape == x.shape and out is not x
        assert out.tobytes() == _rho_expression(x, n).tobytes()
    assert not np.signbit(rho_truncate(zeros, n)).any()  # -0.0 -> +0.0
    assert not math.copysign(1.0, rho_truncate(-0.0, n)) < 0.0
    assert rho_truncate(float(n), n) == float(n)


def test_truncation_rejects_bad_levels():
    with pytest.raises(ValidationError):
        rho_truncate(GRID, 0)
    with pytest.raises(ValidationError):
        rho_truncate(GRID, -3)


# ---------------------------------------------------------------------------
# A-priori budgets
# ---------------------------------------------------------------------------

def test_upsilon1_closed_form():
    # (xi + lambda0*T) * exp(lambda_y*T)
    assert upsilon1(1.0, 0.0, 0.0, 1.0) == 1.0
    assert math.isclose(upsilon1(2.0, 0.5, 0.3, 2.0),
                        (2.0 + 1.0) * math.exp(0.6))


def test_upsilon1_monotone_in_every_argument():
    base = upsilon1(1.0, 0.1, 0.2, 1.0)
    assert upsilon1(1.5, 0.1, 0.2, 1.0) > base
    assert upsilon1(1.0, 0.2, 0.2, 1.0) > base
    assert upsilon1(1.0, 0.1, 0.3, 1.0) > base
    assert upsilon1(1.0, 0.1, 0.2, 1.5) > base


def test_upsilon2_zero_and_variants():
    f = lambda u: np.full_like(u, 0.5)  # noqa: E731
    assert upsilon2(0.0, 1.0, 1.0, 1.0, 1.0, f) == 0.0
    # the stated weight 1 + lambda_z f integrates exactly for constant f
    for lz in (1.0, 2.0):
        closed = 2.0 * (1.0 + lz) * math.exp(4.0 * (1.0 + 0.5 * lz))
        assert math.isclose(upsilon2(1.0, 0.0, 0.0, lz, 1.0, f), closed,
                            rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Scalar transform
# ---------------------------------------------------------------------------

def test_transform_tables_residual_small():
    tables = transform_tables(lambda u: 1.0 + u, 0.5, 4096)
    assert transform_residual(tables).max() <= 1e-6


def test_transform_tables_monotone_and_anchored():
    tables = transform_tables(lambda u: np.ones_like(u), 1.0, 512)
    assert tables.v[0] == 0.0 and tables.v_prime[0] == 0.0
    assert np.all(np.diff(tables.v) >= 0.0)
    assert np.all(np.diff(tables.kappa) > 0.0)


def test_transform_tables_rejects_negative_f1():
    with pytest.raises(ValidationError):
        transform_tables(lambda u: u - 10.0, 1.0, 64)


# ---------------------------------------------------------------------------
# Time grids
# ---------------------------------------------------------------------------

def test_time_grid_uniform_and_refinement():
    coarse = TimeGrid.uniform(1.0, 8)
    fine = TimeGrid.uniform(1.0, 32)
    assert np.array_equal(_nested_indices(fine, coarse), np.arange(0, 33, 4))
    with pytest.raises(ValidationError):
        _nested_indices(coarse, fine)
    assert coarse.n_steps == 8


def test_time_grid_validation():
    with pytest.raises(ValidationError):
        TimeGrid(times=np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ValidationError):
        TimeGrid(times=np.array([0.1, 0.5, 1.0]))


@pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf]],
                         ids=["nan", "inf"])
def test_time_grid_refuses_nonfinite_nodes(times):
    # every comparison with NaN is False, so `diff <= 0` let it through
    with pytest.raises(ValidationError, match="finite"):
        TimeGrid(times=np.array(times))


# ---------------------------------------------------------------------------
# Driver declarations
# ---------------------------------------------------------------------------

def test_driver_spec_rejects_bad_constants():
    g = lambda t, x, y, z: y  # noqa: E731
    with pytest.raises(ValidationError):
        DriverSpec(g=g, lambda0=-1.0, lambda_y=0.0, lambda_z=0.0)
    with pytest.raises(ValidationError):
        DriverSpec(g=g, lambda0=0.0, lambda_y=0.0, lambda_z=0.0, alpha=1.5)


def test_truncated_driver_agrees_inside_the_identity_region():
    spec = make_driver("colehopf")
    tn = spec.truncated(3)
    x = np.zeros((5, 1))
    y = np.linspace(-2.5, 2.5, 5)
    z = np.linspace(-2.5, 2.5, 5).reshape(5, 1)
    assert np.array_equal(spec.g(0.0, x, y, z), tn.g(0.0, x, y, z))
    # outside, the truncation caps the quadratic growth
    z_big = np.full((5, 1), 50.0)
    assert np.all(tn.g(0.0, x, y, z_big) <= 0.5 * 4.0 ** 2 + 1e-12)


def test_truncated_driver_chains_gradients():
    spec = make_driver("colehopf")
    tn = spec.truncated(2)
    x = np.zeros((3, 1))
    y = np.zeros(3)
    z = np.array([[1.0], [2.5], [40.0]])
    gz = tn.grad(0.0, x, y, z)[2]
    # inside: d/dz (z^2/2) = z; far outside: derivative of the cap is 0
    assert math.isclose(gz[0, 0], 1.0)
    assert gz[2, 0] == 0.0


@pytest.mark.parametrize("driver, params", [
    ("colehopf", {}),
    ("linear", {"a": -0.7, "c": 0.4}),
    ("f_power", {"q": 2.0}),
    ("zero", {}),
], ids=["colehopf", "linear", "f_power", "zero"])
def test_truncated_gradient_is_the_chain_rule(driver, params):
    spec = make_driver(driver, params)
    level = 2
    rng = np.random.default_rng(8)
    x = rng.standard_normal((40, 2))
    y = 3.0 * rng.standard_normal(40)
    z = 3.0 * rng.standard_normal((40, 2))
    gx, gy, gz = spec.grad(0.3, x, rho_truncate(y, level),
                           rho_truncate(z, level))
    tx, ty, tz = spec.truncated(level).grad(0.3, x, y, z)
    assert np.array_equal(tx, gx)
    assert np.array_equal(ty, gy * rho_truncate_deriv(y, level))
    assert np.array_equal(tz, gz * rho_truncate_deriv(z, level))
    assert ty.shape == (40,) and tx.shape == tz.shape == (40, 2)


def test_truncated_driver_without_gradient_stays_without():
    spec = make_driver("f_power", {"q": 0.5})
    assert spec.grad is None and spec.truncated(3).grad is None


def test_general_driver_takes_its_profile_from_the_registry():
    with pytest.raises(ValidationError,
                       match="known: constant, log1p, power, zero"):
        make_driver("general_assumption2", {"f": "cubic"})
    spec = make_driver("general_assumption2", {"f": "power", "q": 2.0})
    assert spec.f(np.array([3.0]))[0] == 9.0


def test_clip_terminal_clips_the_first_coordinate():
    phi, bound, grad = make_terminal("clip", {"level": 0.5})
    x = np.array([[-2.0, 9.0], [0.25, -9.0], [3.0, 0.0]])
    assert np.array_equal(phi(x), [-0.5, 0.25, 0.5])
    assert bound == 0.5 and grad is None
    with pytest.raises(ValidationError, match="level > 0"):
        make_terminal("clip", {"level": 0.0})


@pytest.mark.parametrize("name, params, want", [
    ("zero", {}, [0.0, 0.0, 0.0]),
    ("log1p", {}, np.log1p([0.0, 1.0, 3.0])),
    ("power", {"q": 2.0}, [0.0, 1.0, 9.0]),
    ("constant", {"c": 0.25}, [0.25, 0.25, 0.25]),
])
def test_growth_profiles(name, params, want):
    f = make_growth_profile(name, params)
    assert np.array_equal(f(np.array([0.0, 1.0, 3.0])), want)


def test_f_power_driver_declares_its_own_profile():
    spec = make_driver("f_power", {"q": 2.0, "scale": 0.5})
    assert np.array_equal(spec.f(np.array([0.0, 2.0, 3.0])), [0.0, 2.0, 4.5])
    # g = f(|y|) |z|^2 exactly, the envelope's quadratic term
    y = np.array([-2.0, 3.0])
    z = np.array([[1.0], [2.0]])
    assert np.array_equal(spec.g(0.0, np.zeros((2, 1)), y, z),
                          spec.f(np.abs(y)) * z[:, 0] ** 2)


def test_unknown_factory_parameter_is_refused():
    with pytest.raises(ValidationError,
                       match="drift 'constant' takes no parameter 'k'"):
        make_drift("constant", {"k": 1.0})


def test_untruncated_sentinel_is_identity():
    spec = make_driver("linear", {"a": -1.0})
    assert spec.truncated(UNTRUNCATED) is spec


# ---------------------------------------------------------------------------
# Problems and run configs
# ---------------------------------------------------------------------------

def test_problem_validation(quad_problem):
    with pytest.raises(ValidationError):
        FBSDEProblem(dim=0, x0=np.zeros(1), drift=quad_problem.drift,
                     terminal=quad_problem.terminal,
                     driver=quad_problem.driver, horizon=1.0)
    with pytest.raises(ValidationError):
        FBSDEProblem(dim=2, x0=np.zeros(1), drift=quad_problem.drift,
                     terminal=quad_problem.terminal,
                     driver=quad_problem.driver, horizon=1.0)


def test_problem_budgets(quad_problem):
    assert quad_problem.y_sup_bound() == 1.0
    assert quad_problem.z_bmo_bound() > 0.0


def test_unbounded_terminal_refuses_budget():
    from qfbsde import build_problem
    p = build_problem(terminal="coordinate", driver="zero")
    with pytest.raises(ValidationError):
        p.y_sup_bound()


def test_run_config_validation():
    with pytest.raises(ValidationError):
        RunConfig(n_paths=1)
    with pytest.raises(ValidationError):
        RunConfig(picard_tol=0.0)


@pytest.mark.parametrize("tol", [np.nan, np.inf], ids=["nan", "inf"])
def test_run_config_refuses_nonfinite_picard_tol(tol):
    # an infinite tolerance would stop every Picard loop after one sweep
    with pytest.raises(ValidationError, match="picard_tol"):
        RunConfig(picard_tol=tol)


def test_problem_refuses_nonfinite_x0(quad_problem):
    with pytest.raises(ValidationError, match="x0 must be finite"):
        dataclasses.replace(quad_problem, x0=np.array([np.nan]))


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------

PUBLIC_NAMES = [
    "BackwardSolution", "BoundsReport", "ConfigError", "ContinuityReport",
    "ConvergenceReport", "DerivativeSolution", "Diagnostic", "DominationMap",
    "DriftEvaluationError", "DriverSpec", "ExperimentConfig", "FBSDEProblem",
    "FdGradient", "FlowFields", "NOT_FOUND", "OracleResult",
    "PathEnsemble", "PicardDivergenceError", "QfbsdeError", "RegressionBasis",
    "RepresentationReport", "RunConfig", "TimeGrid", "TransformTables",
    "UNTRUNCATED", "ValidationError", "ZvonkinTransform", "__version__",
    "apriori_check", "build_problem", "continuity_diagnostic",
    "describe_registry", "domination_map", "domination_oracle",
    "emit_config", "estimate_bmo", "euler_maruyama", "fd_gradient",
    "linear_oracle", "lsmc_solve", "make_drift", "make_driver",
    "make_growth_profile", "make_terminal", "mollify_drift", "nested_mc_ce",
    "parse_config", "path_regularity_stat", "rate_fit",
    "representation_check", "rho_truncate", "rho_truncate_deriv", "run",
    "sample_brownian", "simulate", "solve_gradient_bsde",
    "solve_malliavin_bsde", "stability_experiment", "stabilization_level",
    "transform_residual", "transform_tables", "truncation_error_curve",
    "upsilon1", "upsilon2", "variational_flow", "zhang_zbar",
    "zvonkin_transform_1d",
]


def test_public_surface_is_pinned_and_resolves():
    import qfbsde
    assert sorted(qfbsde.__all__) == PUBLIC_NAMES
    assert all(hasattr(qfbsde, name) for name in qfbsde.__all__)


# Parameter names of every public callable and field names of every public
# dataclass; a class's own public methods are listed as ``Class.method``
# (without ``self``).  A setting added or removed shows up here.
PUBLIC_SIGNATURES = {
    "BackwardSolution": "grid y z truncation_n basis config diagnostics",
    "BoundsReport": (
        "y_bound y_observed y_slack y_ok bmo_bound bmo_observed bmo_slack "
        "bmo_ok"),
    "ConfigError": "diagnostics",
    "ContinuityReport": "ratios std_errors",
    "ConvergenceReport": (
        "experiment abscissae errors stderrs slope r2 metadata"),
    "DerivativeSolution": "anchors nabla_y nabla_z dy dz",
    "DerivativeSolution.dy_at": "u i",
    "DerivativeSolution.dz_at": "u i",
    "Diagnostic": "line key reason",
    "DominationMap": "xs u_values u_prime",
    "DominationMap.inverse": "values",
    "DominationMap.u": "x",
    "DriverSpec": "g lambda0 lambda_y lambda_z alpha f name grad",
    "DriverSpec.truncated": "n",
    "ExperimentConfig": "problem numerics experiment output",
    "ExperimentConfig.basis": "",
    "ExperimentConfig.build_problem": "",
    "ExperimentConfig.grid": "",
    "ExperimentConfig.run_config": "",
    "ExperimentConfig.truncation": "",
    "FBSDEProblem": (
        "dim x0 drift terminal driver horizon terminal_bound drift_bound "
        "drift_gradient terminal_gradient label"),
    "FBSDEProblem.with_drift": "drift gradient bound label",
    "FBSDEProblem.y_sup_bound": "",
    "FBSDEProblem.z_bmo_bound": "",
    "FdGradient": "value stderr h",
    "FlowFields": "nabla_x",
    "FlowFields.product_deviation": "",
    "OracleResult": "y0 stderr y_field time_indices",
    "PathEnsemble": "grid increments paths seed",
    "PicardDivergenceError": "message step residuals",
    "RegressionBasis": "kind degree bins support ridge knots",
    "RegressionBasis.design": "states",
    "RegressionBasis.n_features": "dim",
    "RepresentationReport": "identities",
    "RepresentationReport.max_deviation": "name",
    "RunConfig": "seed n_paths picard_tol picard_max",
    "TimeGrid": "times",
    "TransformTables": "xs f1_values big_f kappa v v_prime",
    "ZvonkinTransform": "lam xs times u u_x b_values",
    "ZvonkinTransform.diffeomorphism_margin": "",
    "ZvonkinTransform.drift_tilde": "t_index y",
    "ZvonkinTransform.psi": "t_index x",
    "ZvonkinTransform.psi_inverse": "t_index y",
    "ZvonkinTransform.psi_x": "t_index x",
    "ZvonkinTransform.residual": "",
    "ZvonkinTransform.sigma_tilde": "t_index y",
    "apriori_check": "solution ensemble problem y_slack bmo_slack",
    "build_problem": (
        "dim x0 horizon drift drift_params terminal terminal_params "
        "driver driver_params mollify_eps mollify_quad_points"),
    "continuity_diagnostic": "problem pairs n_steps n_paths seed",
    "describe_registry": "",
    "domination_map": "f x_max",
    "domination_oracle": (
        "problem quad_points ensemble time_indices inner_paths "
        "inner_steps seed"),
    "emit_config": "config",
    "estimate_bmo": "solution ensemble",
    "euler_maruyama": "problem grid increments seed x0",
    "fd_gradient": "problem h config grid basis truncation",
    "linear_oracle": "problem a c",
    "lsmc_solve": "problem ensemble basis truncation_n config",
    "make_drift": "name params",
    "make_driver": "name params",
    "make_growth_profile": "name params",
    "make_terminal": "name params",
    "mollify_drift": "drift eps dim quad_points",
    "nested_mc_ce": "problem states t_index grid functional inner_paths seed",
    "parse_config": "text",
    "path_regularity_stat": "base partition p mode ensemble",
    "rate_fit": "abscissae errors",
    "representation_check": "base deriv flow",
    "rho_truncate": "x n",
    "rho_truncate_deriv": "x n",
    "run": "config base_dir",
    "sample_brownian": "grid n_paths dim seed",
    "simulate": "problem grid n_paths seed",
    "solve_gradient_bsde": "problem ensemble flow base basis config",
    "solve_malliavin_bsde": "problem ensemble flow base anchors basis config",
    "stability_experiment": "problem ladder ensemble basis config truncation",
    "stabilization_level": "problem ensemble basis n_list config _cache",
    "transform_residual": "tables",
    "transform_tables": "f1 upper steps",
    "truncation_error_curve": (
        "problem ensemble basis n_list config reference_level _cache"),
    "upsilon1": "xi_bound lambda0 lambda_y horizon",
    "upsilon2": "ups1 lambda0 lambda_y lambda_z horizon f",
    "variational_flow": "problem ensemble",
    "zhang_zbar": "base partition ensemble",
    "zvonkin_transform_1d": "drift lam space_grid time_grid",
}


def _public_signatures():
    import qfbsde
    out = {}
    for name in qfbsde.__all__:
        obj = getattr(qfbsde, name)
        if inspect.isfunction(obj):
            out[name] = " ".join(inspect.signature(obj).parameters)
        if not inspect.isclass(obj):
            continue
        fields = ([f.name for f in dataclasses.fields(obj)]
                  if dataclasses.is_dataclass(obj) else [])
        if fields:
            out[name] = " ".join(fields)
        elif "__init__" in vars(obj):
            out[name] = " ".join(inspect.signature(obj).parameters)
        for attr, member in vars(obj).items():
            if (inspect.isfunction(member) and not attr.startswith("_")
                    and attr not in fields):
                params = list(inspect.signature(member).parameters)[1:]
                out[f"{name}.{attr}"] = " ".join(params)
    return out


def test_public_signatures_are_pinned():
    assert _public_signatures() == PUBLIC_SIGNATURES
