"""Backward-induction tests: regression bases, LSMC, audits, stabilization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfbsde import backward
from qfbsde import (
    NOT_FOUND,
    PathEnsemble,
    PicardDivergenceError,
    RegressionBasis,
    RunConfig,
    TimeGrid,
    UNTRUNCATED,
    ValidationError,
    apriori_check,
    build_problem,
    estimate_bmo,
    lsmc_solve,
    make_driver,
    regress_conditional,
    simulate,
    stabilization_level,
)


# ---------------------------------------------------------------------------
# Regression bases
# ---------------------------------------------------------------------------

def test_basis_validation():
    with pytest.raises(ValidationError):
        RegressionBasis(kind="fourier")
    with pytest.raises(ValidationError):
        RegressionBasis(kind="polynomial", degree=-1)
    with pytest.raises(ValidationError):
        RegressionBasis(kind="piecewise_linear", bins=1)
    with pytest.raises(ValidationError):
        RegressionBasis(kind="piecewise_linear", support=(2.0, -2.0))
    with pytest.raises(ValidationError):
        RegressionBasis(kind="polynomial", knots=(0.0, 1.0))
    with pytest.raises(ValidationError):
        RegressionBasis(kind="piecewise_linear", knots=(0.0, 0.0, 1.0))
    with pytest.raises(ValidationError):
        RegressionBasis(ridge=-1e-3)


def test_basis_feature_counts():
    assert RegressionBasis(kind="polynomial", degree=3).n_features(2) == 10
    assert RegressionBasis(kind="polynomial", degree=0).n_features(5) == 1
    assert RegressionBasis(kind="piecewise_linear", bins=7).n_features(1) == 7
    knotted = RegressionBasis(kind="piecewise_linear", knots=(-1.0, 0.0, 0.5, 2.0))
    assert knotted.n_features(1) == 4


def test_pwl_design_rejects_multidim():
    basis = RegressionBasis(kind="piecewise_linear", bins=4)
    with pytest.raises(ValidationError):
        basis.design(np.zeros((10, 2)))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-20, 20), min_size=1, max_size=40))
def test_pwl_partition_of_unity_uniform(points):
    basis = RegressionBasis(kind="piecewise_linear", bins=9, support=(-3.0, 3.0))
    design = basis.design(np.asarray(points)[:, None])
    assert np.all(design >= 0.0) and np.all(design <= 1.0)
    assert np.allclose(design.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-20, 20), min_size=1, max_size=40))
def test_pwl_partition_of_unity_nonuniform_knots(points):
    basis = RegressionBasis(
        kind="piecewise_linear",
        knots=(-4.0, -1.0, -0.25, 0.0, 0.1, 0.7, 3.0))
    design = basis.design(np.asarray(points)[:, None])
    assert np.all(design >= 0.0) and np.all(design <= 1.0)
    assert np.allclose(design.sum(axis=1), 1.0, atol=1e-12)


def test_pwl_interpolates_at_knots():
    knots = (-2.0, -0.5, 0.0, 1.0, 3.0)
    basis = RegressionBasis(kind="piecewise_linear", knots=knots)
    design = basis.design(np.asarray(knots)[:, None])
    assert np.array_equal(design, np.eye(len(knots)))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_polynomial_design_is_the_monomials_in_order(dim, degree):
    rng = np.random.Generator(np.random.Philox(key=5))
    states = 2.0 * rng.normal(size=(300, dim))
    design = RegressionBasis(kind="polynomial", degree=degree).design(states)
    exps = [(0,) * dim] + backward._monomials(dim, degree)
    ref = np.stack([np.prod(states ** np.asarray(e), axis=1) for e in exps],
                   axis=1)
    assert design.shape == ref.shape
    assert design.flags.f_contiguous
    assert np.all(np.abs(design - ref) <= 1e-13 * np.abs(ref))


def _hat_reference(nodes, x):
    """The dense hat formula ``max(0, 1 - |x - n_j| / h_j)`` on clamped x."""
    xs = np.clip(x, nodes[0], nodes[-1])
    left = np.diff(nodes, prepend=nodes[0] - 1.0)
    right = np.diff(nodes, append=nodes[-1] + 1.0)
    t = xs[:, None] - nodes[None, :]
    a = np.where(t >= 0.0, t / right[None, :], -t / left[None, :])
    return np.maximum(0.0, 1.0 - a)


@pytest.mark.parametrize("basis", [
    RegressionBasis(kind="piecewise_linear", bins=16, support=(-4.5, 4.5)),
    RegressionBasis(kind="piecewise_linear",
                    knots=(-4.0, -1.0, -0.25, 0.0, 0.1, 0.7, 3.0)),
])
def test_pwl_design_matches_dense_hat_formula(basis):
    nodes = (np.asarray(basis.knots) if basis.knots
             else np.linspace(*basis.support, basis.bins))
    rng = np.random.Generator(np.random.Philox(key=6))
    inside = rng.uniform(nodes[0], nodes[-1], size=400)
    outside = np.array([nodes[0] - 1e-9, nodes[0] - 7.0,
                        nodes[-1] + 1e-9, nodes[-1] + 7.0])
    x = np.concatenate([inside, outside, nodes])
    design = basis.design(x[:, None])
    assert design.flags.f_contiguous
    assert np.all(np.abs(design - _hat_reference(nodes, x)) <= 1e-15)
    assert np.count_nonzero(design, axis=1).max() <= 2


def test_regression_preserves_sample_mean():
    rng = np.random.Generator(np.random.Philox(key=3))
    states = rng.normal(size=(500, 1))
    targets = np.sin(states[:, 0]) + 0.2 * rng.normal(size=500)
    for basis in (RegressionBasis(kind="polynomial", degree=4),
                  RegressionBasis(kind="piecewise_linear", bins=8)):
        fitted = regress_conditional(targets, states, basis)
        assert abs(fitted.mean() - targets.mean()) < 1e-10


def test_regression_collapses_to_mean_on_constant_states():
    states = np.full((100, 1), 0.7)
    targets = np.arange(100.0)
    fitted = regress_conditional(
        targets, states, RegressionBasis(kind="polynomial", degree=4))
    assert np.allclose(fitted, targets.mean(), atol=1e-12)


def test_regressor_is_mean_only_beyond_hat_support():
    # every state clamps to the last knot, so every hat column is constant
    rng = np.random.Generator(np.random.Philox(key=7))
    states = 5.0 + rng.uniform(size=(200, 1))
    basis = RegressionBasis(kind="piecewise_linear", bins=8, support=(-4.0, 4.0))
    reg = backward._StepRegressor(basis, states)
    assert reg.mean_only
    targets = rng.normal(size=200)
    assert np.allclose(reg.project(targets), targets.mean(), rtol=0.0,
                       atol=1e-15)


def _coin_ensemble(n_paths, grid, seed):
    """States in {-1, 1} at every node: x and x^3 are the same column.

    Each node holds as many -1 as +1, so the scaled Gram is exactly
    ``[[1, 0, 0], [0, 1, 1], [0, 1, 1]]`` and its LU meets an exact zero
    pivot; an unbalanced node rounds the zero pivot away.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = grid.n_steps
    signs = np.repeat([-1.0, 1.0], n_paths // 2)
    paths = np.stack([rng.permutation(signs) for _ in range(n + 1)],
                     axis=1)[:, :, None]
    inc = rng.normal(size=(n_paths, n, 1)) * np.sqrt(grid.deltas)[None, :, None]
    return PathEnsemble(grid=grid, increments=inc, paths=paths, seed=seed,
                        x0=np.zeros(1))


def test_singular_gram_falls_back_to_lstsq_and_is_counted(quad_problem,
                                                           small_solution):
    basis = RegressionBasis(kind="polynomial", degree=4, ridge=0.0)
    grid = TimeGrid.uniform(1.0, 4)
    ens = _coin_ensemble(400, grid, 8)
    reg = backward._StepRegressor(basis, ens.paths[:, 0, :])
    targets = np.sin(ens.increments[:, 0, 0])
    fitted = reg.project(targets)
    assert reg.lstsq_fallbacks == 1
    assert abs(fitted.mean() - targets.mean()) < 1e-12
    sol = lsmc_solve(quad_problem, ens, basis, 6, RunConfig(seed=8, n_paths=400))
    fallbacks = sol.diagnostics["lstsq_fallbacks"]
    assert fallbacks.shape == (grid.n_steps,)
    # every step projects twice: the conditional expectation and the control
    assert np.all(fallbacks == 2)
    # an ordinary solve never meets a singular Gram
    ordinary = small_solution.diagnostics["lstsq_fallbacks"]
    assert ordinary.shape == (small_solution.z.shape[1],)
    assert not ordinary.any()


def test_regression_requires_enough_paths():
    basis = RegressionBasis(kind="polynomial", degree=4)
    with pytest.raises(ValidationError):
        regress_conditional(np.zeros(4), np.zeros((4, 1)), basis)


# ---------------------------------------------------------------------------
# LSMC solver
# ---------------------------------------------------------------------------

def test_lsmc_matches_discrete_linear_flow(poly_basis):
    # flat terminal kills both the regression and the control; the scheme
    # reduces to the scalar recursion y_i = y_{i+1} / (1 + dt)
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="zero", terminal="constant", driver="linear")
    grid = TimeGrid.uniform(1.0, 50)
    rc = RunConfig(seed=11, n_paths=2000)
    ens = simulate(prob, grid, rc.n_paths, rc.seed)
    sol = lsmc_solve(prob, ens, poly_basis, 8, rc)
    dt = 1.0 / 50
    assert abs(sol.y0 - (1.0 + dt) ** -50) < 1e-8
    assert abs(sol.y0 - math.exp(-1.0)) < 0.02 * math.exp(-1.0)
    assert np.all(sol.z == 0.0)
    assert np.all(sol.diagnostics["picard_iters"] >= 1)


def test_lsmc_control_recovers_unit_slope(poly_basis):
    # Y_{t} = X_t for coordinate terminal data without drift or driver,
    # so the control must hover at one
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="zero", terminal="coordinate", driver="zero")
    grid = TimeGrid.uniform(1.0, 10)
    rc = RunConfig(seed=5, n_paths=20000)
    ens = simulate(prob, grid, rc.n_paths, rc.seed)
    sol = lsmc_solve(prob, ens, poly_basis, UNTRUNCATED, rc)
    mean_z = sol.z.mean(axis=0)[:, 0]
    assert np.abs(mean_z - 1.0).max() < 0.05
    assert abs(sol.y0) < 0.05


def test_lsmc_truncation_bit_identity_when_inactive(quad_problem, poly_basis):
    grid = TimeGrid.uniform(1.0, 20)
    rc = RunConfig(seed=11, n_paths=2000)
    ens = simulate(quad_problem, grid, rc.n_paths, rc.seed)
    lo = lsmc_solve(quad_problem, ens, poly_basis, 8, rc)
    hi = lsmc_solve(quad_problem, ens, poly_basis, 12, rc)
    assert lo.diagnostics["realized_driver_y_max"] <= 8
    assert lo.diagnostics["realized_driver_z_max"] <= 8
    assert np.array_equal(lo.y, hi.y)
    assert np.array_equal(lo.z, hi.z)


def test_lsmc_rerun_is_bitwise_deterministic(quad_problem, poly_basis):
    grid = TimeGrid.uniform(1.0, 10)
    rc = RunConfig(seed=21, n_paths=1000)
    sols = []
    for _ in range(2):
        ens = simulate(quad_problem, grid, rc.n_paths, rc.seed)
        sols.append(lsmc_solve(quad_problem, ens, poly_basis, 6, rc))
    assert np.array_equal(sols[0].y, sols[1].y)
    assert np.array_equal(sols[0].z, sols[1].z)


def test_lsmc_rejects_fewer_paths_than_basis_functions(quad_problem,
                                                       poly_basis):
    # 5 paths against K=5 monomials interpolate instead of regress; every
    # step's projector must refuse, not return a noise-free fit
    grid = TimeGrid.uniform(1.0, 5)
    rc = RunConfig(seed=3, n_paths=5)
    ens = simulate(quad_problem, grid, rc.n_paths, rc.seed)
    assert poly_basis.n_features(1) == rc.n_paths
    with pytest.raises(ValidationError, match="more paths"):
        lsmc_solve(quad_problem, ens, poly_basis, UNTRUNCATED, rc)


def test_lsmc_raises_on_divergent_picard(poly_basis):
    # dt * lipschitz > 1 makes the per-step fixed point expand
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="zero", terminal="tanh", driver="linear",
                         driver_params={"a": 100.0})
    grid = TimeGrid.uniform(1.0, 10)
    rc = RunConfig(seed=2, n_paths=500)
    ens = simulate(prob, grid, rc.n_paths, rc.seed)
    with pytest.raises(PicardDivergenceError) as err:
        lsmc_solve(prob, ens, poly_basis, UNTRUNCATED, rc)
    assert err.value.residuals
    assert err.value.step == grid.n_steps - 1


def test_lsmc_builds_one_step_regressor_per_step(monkeypatch, quad_problem,
                                                 small_ensemble, poly_basis,
                                                 small_config):
    # one design and Gram factor per step serves every regression the solve
    # makes there; the BMO audit is a separate pass the caller asks for
    built = []

    class Counting(backward._StepRegressor):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(backward, "_StepRegressor", Counting)
    lsmc_solve(quad_problem, small_ensemble, poly_basis, 6, small_config)
    assert len(built) == small_ensemble.grid.n_steps


def test_solution_exposes_counts(small_solution):
    assert small_solution.n_paths == small_solution.y.shape[0]
    assert small_solution.y0 == pytest.approx(
        float(small_solution.y[:, 0].mean()))
    assert small_solution.z.shape[1] == small_solution.y.shape[1] - 1


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------

def test_estimate_bmo_positive_and_reasonable(small_solution, small_ensemble):
    val = estimate_bmo(small_solution, small_ensemble)
    assert 0.0 < val < 5.0
    # a coarser audit basis changes the number but not its scale
    coarse = estimate_bmo(small_solution, small_ensemble,
                          RegressionBasis(kind="polynomial", degree=1))
    assert 0.0 < coarse < 5.0


def test_apriori_check_driverless_problem():
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="zero", terminal="tanh", driver="zero")
    grid = TimeGrid.uniform(1.0, 20)
    rc = RunConfig(seed=7, n_paths=4000)
    ens = simulate(prob, grid, rc.n_paths, rc.seed)
    basis = RegressionBasis(kind="piecewise_linear", bins=16,
                            support=(-4.5, 4.5))
    sol = lsmc_solve(prob, ens, basis, UNTRUNCATED, rc)
    report = apriori_check(sol, ens, prob)
    # zero driver: the value bound is exactly the terminal sup-norm
    assert report.y_bound == 1.0
    assert report.passed
    # hat-function least squares may overshoot, but stays within the slack
    assert report.y_observed <= 1.0 * (1.0 + report.y_slack)
    assert report.bmo_observed <= report.bmo_bound


def test_apriori_check_quadratic_problem(quad_problem, small_ensemble,
                                         small_config):
    basis = RegressionBasis(kind="piecewise_linear", bins=16,
                            support=(-4.5, 4.5))
    sol = lsmc_solve(quad_problem, small_ensemble, basis, 6, small_config)
    report = apriori_check(sol, small_ensemble, quad_problem)
    assert report.y_ok
    assert report.y_bound == pytest.approx(1.0)  # tanh bound, zero driver part
    assert report.bmo_bound > report.bmo_observed


def test_apriori_check_observes_estimate_bmo(quad_problem, small_ensemble,
                                            small_solution):
    report = apriori_check(small_solution, small_ensemble, quad_problem)
    assert report.bmo_observed == estimate_bmo(small_solution, small_ensemble)
    assert report.y_observed == np.abs(small_solution.y).max()


# ---------------------------------------------------------------------------
# Stabilization level
# ---------------------------------------------------------------------------

def test_stabilization_level_found(quad_problem, poly_basis):
    grid = TimeGrid.uniform(1.0, 20)
    rc = RunConfig(seed=11, n_paths=2000)
    ens = simulate(quad_problem, grid, rc.n_paths, rc.seed)
    cache = {}
    lvl = stabilization_level(quad_problem, ens, poly_basis,
                              [2, 4, 6, 8, 10], rc, _cache=cache)
    assert lvl == 2
    assert np.array_equal(cache[2].y, cache[4].y)
    assert np.array_equal(cache[2].z, cache[4].z)
    assert cache[2].diagnostics["realized_driver_y_max"] <= 2
    assert cache[2].diagnostics["realized_driver_z_max"] <= 2


def test_stabilization_level_not_found_when_list_too_low(quad_problem,
                                                         poly_basis):
    grid = TimeGrid.uniform(1.0, 20)
    rc = RunConfig(seed=11, n_paths=2000)
    ens = simulate(quad_problem, grid, rc.n_paths, rc.seed)
    lvl = stabilization_level(quad_problem, ens, poly_basis, [1, 2], rc)
    # level 1 is touched by the realized fields (|y| reaches ~1.06 here),
    # and 2 has no successor in the list to compare against
    assert lvl is NOT_FOUND
    assert not lvl  # the sentinel is falsy
    assert repr(lvl)


def test_stabilization_level_validation(quad_problem, poly_basis,
                                        small_ensemble, small_config):
    with pytest.raises(ValidationError):
        stabilization_level(quad_problem, small_ensemble, poly_basis,
                            [4], small_config)
    with pytest.raises(ValidationError):
        stabilization_level(quad_problem, small_ensemble, poly_basis,
                            [0, 2], small_config)
