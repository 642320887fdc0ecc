"""Backward-induction tests: regression bases, LSMC, audits, stabilization."""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfbsde import backward
from qfbsde import (
    NOT_FOUND,
    BackwardSolution,
    DriverSpec,
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


@pytest.mark.parametrize("kwargs", [
    {"ridge": np.nan},
    {"ridge": np.inf},
    {"kind": "piecewise_linear", "knots": (0.0, np.nan, 1.0)},
    {"kind": "piecewise_linear", "knots": (0.0, 1.0, np.inf)},
    {"kind": "piecewise_linear", "support": (-np.inf, 1.0)},
], ids=["nan-ridge", "inf-ridge", "nan-knot", "inf-knot", "inf-support"])
def test_basis_refuses_nonfinite_settings(kwargs):
    # `ridge < 0` and `diff(knots) <= 0` are both False for NaN
    with pytest.raises(ValidationError, match="finite"):
        RegressionBasis(**kwargs)


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


def _hat_nodes(basis):
    return (np.asarray(basis.knots) if basis.knots
            else np.linspace(*basis.support, basis.bins))


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
    nodes = _hat_nodes(basis)
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
        fitted = backward._StepRegressor(basis, states).project(targets)
        assert abs(fitted.mean() - targets.mean()) < 1e-10


def test_regression_collapses_to_mean_on_constant_states():
    states = np.full((100, 1), 0.7)
    targets = np.arange(100.0)
    basis = RegressionBasis(kind="polynomial", degree=4)
    fitted = backward._StepRegressor(basis, states).project(targets)
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


# c09's hat knots, clustered at the mollification scale of the sign drift
_ROUGH_MAGS = (0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.45, 0.65, 0.9,
               1.2, 1.6, 2.1, 2.7, 3.5, 4.5)
ROUGH_KNOTS = tuple(sorted({s * m for m in _ROUGH_MAGS for s in (-1.0, 1.0)}))


@pytest.mark.parametrize("basis", [
    RegressionBasis(kind="piecewise_linear", bins=2),
    RegressionBasis(kind="piecewise_linear", bins=8),
    RegressionBasis(kind="piecewise_linear", bins=16, support=(-4.5, 4.5)),
    RegressionBasis(kind="piecewise_linear", knots=ROUGH_KNOTS),
    RegressionBasis(kind="piecewise_linear",
                    knots=(-1.0, *(j * 1e-9 for j in range(40)), 1.0)),
], ids=["bins2", "bins8", "bins16", "rough29", "cluster1e-9"])
def test_hat_cells_match_searchsorted_bitwise(basis):
    nodes = _hat_nodes(basis)
    rng = np.random.Generator(np.random.Philox(key=9))
    span = nodes[-1] - nodes[0]
    x = np.concatenate([
        rng.uniform(nodes[0] - 0.1 * span, nodes[-1] + 0.1 * span, 3000),
        rng.uniform(-5e-8, 5e-8, 500),
        nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
        [nodes[0] - 7.0, nodes[-1] + 7.0, -np.inf, np.inf, np.nan]])
    k, w0, w1 = backward._hat_cells(basis, x[:, None])
    xs = np.clip(x, nodes[0], nodes[-1])
    ref = np.clip(np.searchsorted(nodes, xs, side="right") - 1,
                  0, nodes.size - 2)
    assert k.dtype == ref.dtype and np.array_equal(k, ref)
    h = np.diff(nodes)[ref]
    assert np.array_equal(w0, 1.0 - (xs - nodes[ref]) / h, equal_nan=True)
    assert np.array_equal(w1, 1.0 - (nodes[ref + 1] - xs) / h,
                          equal_nan=True)


def _dense_fit(basis, states, targets):
    """The dense regression on ``basis.design``: the hat operator's reference.

    Returns ``(mean_only, kept, fitted)`` for ``(M, c)`` targets.
    """
    a = basis.design(states)
    nonconst = a.max(axis=0) - a.min(axis=0) > 0.0
    if not nonconst.any():
        return True, None, np.broadcast_to(targets.mean(axis=0), targets.shape)
    g = a.T @ a
    norms = np.sqrt(np.diag(g))
    kept = nonconst.copy()
    const = np.flatnonzero(~nonconst)
    live = const[norms[const] > 0.0]
    if live.size:
        kept[live[0]] = True
    a, g, norms = a[:, kept], g[np.ix_(kept, kept)], norms[kept]
    s = 1.0 / norms
    g = g * np.outer(s, s) + basis.ridge * np.eye(g.shape[0])
    coef = np.linalg.solve(g, s[:, None] * (a.T @ targets))
    return False, kept, a @ (s[:, None] * coef)


def _hat_states(case, rng, m):
    basis = RegressionBasis(kind="piecewise_linear", bins=9, support=(-4.0, 4.0))
    if case == "one_knot":
        x = np.full(m, 1.0)
    elif case == "one_cell":
        x = rng.uniform(1.0, 2.0, m)
    elif case == "untouched_hat":
        # the hats at +-3 and +-4 see no state
        x = np.concatenate([rng.uniform(-2.0, -0.5, m // 2),
                            rng.uniform(0.5, 2.0, m - m // 2)])
    elif case == "constant_hat":
        # midpoints of the cells either side of knot 1: that hat is 0.5 on
        # every state while its neighbours vary
        x = rng.choice([0.5, 1.5], m)
    elif case == "rough":
        basis = RegressionBasis(kind="piecewise_linear", knots=ROUGH_KNOTS)
        x = rng.normal(size=m)
    else:
        x = 1.5 * rng.normal(size=m)
    return basis, x[:, None]


@pytest.mark.parametrize("case", ["one_knot", "one_cell", "untouched_hat",
                                  "constant_hat", "rough", "uniform"])
def test_hat_operator_matches_dense_reference(case):
    rng = np.random.Generator(np.random.Philox(key=10))
    m = 2000
    basis, states = _hat_states(case, rng, m)
    nxt = np.column_stack([np.tanh(3.0 * states[:, 0]) + rng.normal(size=m),
                           rng.normal(size=m)])
    db = 0.1 * rng.normal(size=(m, 1))
    reg = backward._StepRegressor(basis, states)
    mean_only, kept, ce_ref = _dense_fit(basis, states, nxt)
    assert reg.mean_only == mean_only
    if not mean_only:
        assert np.array_equal(reg.kept, kept)
    ce, control = reg.ce_and_control(nxt, db, 0.01)
    ctl_ref = _dense_fit(basis, states, (nxt - ce_ref) * db)[2] / 0.01
    for got, ref in ((ce, ce_ref), (control[:, :, 0], ctl_ref)):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    # one column at a time takes the one-column path
    for c in range(2):
        assert np.abs(reg.project(nxt[:, c]) - ce_ref[:, c]).max() <= (
            1e-12 * np.abs(ce_ref[:, c]).max())


def test_hat_regressor_holds_no_dense_design(traced_peak):
    # the dense (M, 29) design alone is 29 * 8 * M bytes
    rng = np.random.Generator(np.random.Philox(key=11))
    m = 100_000
    basis = RegressionBasis(kind="piecewise_linear", knots=ROUGH_KNOTS)
    states = rng.normal(size=(m, 1))
    nxt = np.tanh(states) + 0.1 * rng.normal(size=(m, 1))
    db = 0.1 * rng.normal(size=(m, 1))
    _, peak = traced_peak(lambda: backward._StepRegressor(
        basis, states).ce_and_control(nxt, db, 0.01))
    assert peak < 10 * 8 * m


def test_hat_solve_leaves_scipy_linalg_unloaded():
    # loading scipy.linalg costs more resident memory than the solve
    src = os.path.dirname(os.path.dirname(backward.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, numpy as np, qfbsde as q\n"
        "p = q.build_problem(drift='zero', terminal='tanh', driver='colehopf')\n"
        "rc = q.RunConfig(seed=1, n_paths=500)\n"
        "ens = q.simulate(p, q.TimeGrid.uniform(1.0, 4), 500, 1)\n"
        "b = q.RegressionBasis(kind='piecewise_linear', bins=8)\n"
        "q.lsmc_solve(p, ens, b, 6, rc)\n"
        "print('scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5, 6])
def test_moment_gram_matches_dense_gram(dim, degree):
    rng = np.random.Generator(np.random.Philox(key=12))
    states = 1.3 * rng.normal(size=(2000, dim)) + 0.2
    basis = RegressionBasis(kind="polynomial", degree=degree, ridge=0.0)
    reg = backward._StepRegressor(basis, states)
    if degree == 0:
        assert reg.mean_only
        return
    a = basis.design(states)
    dense = a.T @ a
    s = 1.0 / np.sqrt(np.diag(dense))
    assert reg.kept.all()
    # unit-scaled entries: relative to the two columns' norms
    assert np.abs(reg.gram - dense * np.outer(s, s)).max() <= 1e-13


def test_moment_table_sums_exponents_once_per_dim_and_degree():
    backward._moment_table.cache_clear()
    rng = np.random.Generator(np.random.Philox(key=13))
    for ridge in (1e-10, 0.0):
        for dim in (1, 2):
            basis = RegressionBasis(kind="polynomial", degree=4, ridge=ridge)
            for _ in range(3):
                backward._StepRegressor(basis, rng.normal(size=(200, dim)))
    assert backward._moment_table.cache_info().misses == 2
    for dim, n_moments in ((1, 9), (2, 45), (3, 84)):
        degree = 4 if dim < 3 else 3
        p, q, table = backward._moment_table(dim, degree)
        exps = np.array([(0,) * dim] + backward._monomials(dim, degree))
        sums = (exps[:, None] + exps[None, :]).reshape(-1, dim)
        assert p.size == n_moments == len({tuple(e) for e in sums})
        assert np.array_equal(table, table.T)
        # each entry's moment is produced by its representative pair
        assert np.array_equal((exps[p] + exps[q])[table],
                              exps[:, None] + exps[None, :])
        # diagonal moments come from the column with itself
        diag = table[np.arange(len(exps)), np.arange(len(exps))]
        assert np.array_equal(p[diag], np.arange(len(exps)))
        assert np.array_equal(q[diag], np.arange(len(exps)))


@pytest.mark.parametrize("case", ["equal1", "equal2", "zero2", "coin1",
                                  "coin2", "binary1"])
@pytest.mark.parametrize("ridge", [0.0, 1e-10])
def test_moment_gram_keeps_the_dense_decisions_on_degenerate_states(case,
                                                                     ridge):
    rng = np.random.Generator(np.random.Philox(key=14))
    m = 400
    if case == "equal1":
        states = np.full((m, 1), 0.7)
    elif case == "equal2":
        states = np.tile([0.7, -1.2], (m, 1))
    elif case == "zero2":
        states = np.zeros((m, 2))
    elif case == "coin1":
        # x^2 and x^4 are constant, x^3 is x
        states = rng.choice([-1.0, 1.0], size=(m, 1))
    elif case == "coin2":
        states = rng.choice([-1.0, 1.0], size=(m, 2))
    else:
        # every power of x is x
        states = rng.choice([0.0, 1.0], size=(m, 1))
    basis = RegressionBasis(kind="polynomial", degree=4, ridge=ridge)
    reg = backward._StepRegressor(basis, states)
    # the dense route's decisions, as _dense_fit takes them
    a = basis.design(states)
    nonconst = a.max(axis=0) - a.min(axis=0) > 0.0
    n_features = basis.n_features(states.shape[1])
    assert reg.mean_only == (not nonconst.any())
    if reg.mean_only:
        assert case in ("equal1", "equal2", "zero2")
        assert reg.dropped_columns == n_features - 1
        return
    kept = nonconst.copy()
    live = np.flatnonzero(~nonconst & (np.diag(a.T @ a) > 0.0))
    if live.size:
        kept[live[0]] = True
    assert np.array_equal(reg.kept, kept)
    assert reg.dropped_columns == n_features - kept.sum()
    # the moments are sums of integers: the dense Gram bit for bit
    a = a[:, kept]
    g = a.T @ a
    s = 1.0 / np.sqrt(np.diag(g))
    g = g * np.outer(s, s) + ridge * np.eye(g.shape[0])
    assert np.array_equal(reg.gram, g)
    k = g.shape[0]
    assert reg.singular == (ridge < k * k * np.finfo(float).eps
                            and np.linalg.matrix_rank(g) < k)
    # x = x^3 (coin) and x = x^2 = ... (binary) leave duplicate columns
    assert reg.singular == (ridge == 0.0)


@pytest.mark.parametrize("basis", [
    RegressionBasis(kind="polynomial", degree=4),
    RegressionBasis(kind="piecewise_linear", bins=8),
], ids=["polynomial", "hat"])
@pytest.mark.parametrize("k", [2, 4, 6])
def test_project_ignores_the_targets_memory_layout(basis, k):
    rng = np.random.Generator(np.random.Philox(key=15))
    m = 3000
    states = rng.normal(size=(m, 1))
    targets = np.tanh(states) + rng.normal(size=(m, k))
    targets[:, 1] = 0.25  # a constant column takes the exact path
    assert targets.flags.c_contiguous and not targets.flags.f_contiguous
    reg = backward._StepRegressor(basis, states)
    fitted = reg.project(targets)
    assert np.array_equal(fitted, reg.project(np.asfortranarray(targets)))
    assert np.all(fitted[:, 1] == 0.25)


def _coin_ensemble(n_paths, grid, seed, n_plus):
    """States in {-1, 1} at every node: x and x^3 are the same column.

    Each node holds ``n_plus`` states at +1 and the rest at -1.  Balanced,
    the scaled Gram is exactly ``[[1, 0, 0], [0, 1, 1], [0, 1, 1]]`` and its
    LU meets an exact zero pivot; unbalanced, rounding can turn that pivot
    into about 1e-16 and the LU solves without complaint, though the Gram's
    condition number is about 1e32.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = grid.n_steps
    signs = np.repeat([-1.0, 1.0], [n_paths - n_plus, n_plus])
    paths = np.stack([rng.permutation(signs) for _ in range(n + 1)],
                     axis=1)[:, :, None]
    inc = rng.normal(size=(n_paths, n, 1)) * np.sqrt(grid.deltas)[None, :, None]
    return PathEnsemble(grid=grid, increments=inc, paths=paths, seed=seed)


@pytest.mark.parametrize("n_plus", [200, 194, 206, 183, 217])
def test_singular_gram_falls_back_to_lstsq_and_is_counted(quad_problem,
                                                           small_solution,
                                                           n_plus):
    basis = RegressionBasis(kind="polynomial", degree=4, ridge=0.0)
    grid = TimeGrid.uniform(1.0, 4)
    ens = _coin_ensemble(400, grid, 8, n_plus)
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


def test_dropped_columns_count_untouched_hats(quad_problem, small_solution):
    # short horizon: the states stay well inside (-2, 2), so the outer hats
    # of the 9-knot layout on (-4, 4) see no state
    grid = TimeGrid.uniform(0.1, 5)
    rc = RunConfig(seed=4, n_paths=2000)
    ens = simulate(quad_problem, grid, rc.n_paths, rc.seed)
    basis = RegressionBasis(kind="piecewise_linear", bins=9, support=(-4.0, 4.0))
    sol = lsmc_solve(quad_problem, ens, basis, 6, rc)
    dropped = sol.diagnostics["dropped_columns"]
    assert dropped.shape == (grid.n_steps,)
    for i in range(grid.n_steps):
        design = basis.design(ens.paths[:, i, :])
        assert dropped[i] == np.count_nonzero(~design.any(axis=0))
    # every state starts at x0 = 0, a knot: one hat, and the mean-only fit
    assert dropped[0] == basis.n_features(1) - 1
    assert np.all(dropped[1:] >= 4)
    # polynomials drop K - kept columns: all but the intercept where every
    # state sits at x0, none elsewhere
    poly = small_solution.diagnostics["dropped_columns"]
    assert poly[0] == small_solution.basis.n_features(1) - 1
    assert not poly[1:].any()


def test_regression_requires_enough_paths():
    basis = RegressionBasis(kind="polynomial", degree=4)
    with pytest.raises(ValidationError):
        backward._StepRegressor(basis, np.zeros((4, 1)))


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


@pytest.mark.parametrize("level", [1, 2, UNTRUNCATED])
def test_picard_truncates_bitwise_as_the_truncated_driver(quad_problem, level):
    # |z| reaches about 6 and |y| about 3, so levels 1 and 2 bind on both
    rng = np.random.Generator(np.random.Philox(key=16))
    m, dt = 3000, 0.01
    x = rng.normal(size=(m, 1))
    ce = np.tanh(3.0 * x[:, 0]) * 3.0
    z = 1.5 * rng.normal(size=(m, 1))
    config = RunConfig(seed=1, n_paths=m)
    gdriver = quad_problem.driver.truncated(level)
    # the iteration with the driver applied as DriverSpec.truncated builds it
    yk, ref = ce, None
    for sweep in range(config.picard_max):
        y_new = ce + dt * gdriver.g(0.3, x, yk, z)
        res = float(np.abs(y_new - yk).max())
        yk = y_new
        if res <= config.picard_tol:
            ref = (yk, sweep + 1, res)
            break
    assert ref is not None and ref[1] > 1
    (y, sweeps, res), fed = backward._picard(
        quad_problem.driver, level, 0.3, x, ce, z, float(np.abs(z).max()), dt,
        config, 0)
    assert np.array_equal(y, ref[0]) and (sweeps, res) == ref[1:]
    if level is not UNTRUNCATED:
        assert min(fed) > level and np.abs(z).max() > level


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
    # levels are checked as lsmc_solve checks them, not rounded by int()
    for bad in (2.5, 3.0, True, "3", np.float64(3.0)):
        with pytest.raises(ValidationError):
            lsmc_solve(quad_problem, small_ensemble, poly_basis, bad,
                       small_config)
        with pytest.raises(ValidationError):
            stabilization_level(quad_problem, small_ensemble, poly_basis,
                                [1, bad, 4], small_config)


# ---------------------------------------------------------------------------
# One sweep over several truncation levels
# ---------------------------------------------------------------------------

def _assert_same_solution(a, b):
    assert a.truncation_n == b.truncation_n
    assert a.y.tobytes() == b.y.tobytes() and a.y.shape == b.y.shape
    assert a.z.tobytes() == b.z.tobytes() and a.z.shape == b.z.shape
    # step-major: each step's column is one contiguous slab
    assert np.swapaxes(a.y, 0, 1).flags.c_contiguous
    assert np.swapaxes(a.z, 0, 1).flags.c_contiguous
    assert a.diagnostics.keys() == b.diagnostics.keys()
    for key, value in a.diagnostics.items():
        other = b.diagnostics[key]
        assert type(value) is type(other), key
        if isinstance(value, np.ndarray):
            assert value.dtype == other.dtype, key
            assert np.array_equal(value, other), key
        else:
            assert value == other, key


def _assert_same_error(a, b):
    assert type(a) is type(b)
    assert str(a) == str(b)
    assert getattr(a, "step", None) == getattr(b, "step", None)
    assert getattr(a, "residuals", None) == getattr(b, "residuals", None)


def _alone(problem, ens, basis, level, rc):
    """``lsmc_solve`` at one level: its solution or the exception it raised."""
    try:
        return lsmc_solve(problem, ens, basis, level, rc)
    except Exception as exc:  # noqa: BLE001 - compared field by field
        return exc


@pytest.mark.parametrize("basis", [
    RegressionBasis(kind="polynomial", degree=4),
    RegressionBasis(kind="piecewise_linear", bins=16, support=(-4.5, 4.5)),
], ids=["polynomial", "hat"])
def test_sweep_equals_level_by_level_solves(quad_problem, basis):
    grid = TimeGrid.uniform(1.0, 20)
    rc = RunConfig(seed=11, n_paths=4000)
    ens = simulate(quad_problem, grid, rc.n_paths, rc.seed)
    levels = (1, 2, 3, 5, 8, 16, UNTRUNCATED)
    swept = backward._lsmc_sweep(quad_problem, ens, basis, levels, rc)
    assert set(swept) == set(levels)
    for level in levels:
        _assert_same_solution(swept[level],
                              lsmc_solve(quad_problem, ens, basis, level, rc))
    # the ladder holds levels that bind and levels that coincide bitwise
    finite = [swept[lv] for lv in levels if lv is not UNTRUNCATED]
    assert swept[1].diagnostics["realized_driver_y_max"] > 1
    assert not np.array_equal(finite[0].y, finite[-1].y)
    assert np.array_equal(finite[-2].y, finite[-1].y)
    assert np.array_equal(finite[-2].z, finite[-1].z)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 6, 8, 12])
def test_sweep_failures_match_single_level_solves(poly_basis, level):
    # dt * |a| = 2 expands the fixed point until the truncation saturates
    # it: levels 1, 2, 4 and 6 settle, 3 diverges at step 1, 8 and 12 at
    # step 3; a level that fails leaves the sweep and the others go on
    prob = build_problem(drift="zero", terminal="tanh", driver="linear",
                         driver_params={"a": 8.0})
    rc = RunConfig(seed=1, n_paths=1000)
    ens = simulate(prob, TimeGrid.uniform(1.0, 4), rc.n_paths, rc.seed)
    basis = RegressionBasis(kind="polynomial", degree=3)
    swept = backward._lsmc_sweep(prob, ens, basis, (1, 2, 3, 4, 6, 8, 12), rc)
    alone = _alone(prob, ens, basis, level, rc)
    if isinstance(alone, Exception):
        _assert_same_error(swept[level], alone)
    else:
        _assert_same_solution(swept[level], alone)
    assert sorted(lv for lv, out in swept.items()
                  if isinstance(out, PicardDivergenceError)) == [3, 8, 12]


def test_sweep_counts_fallbacks_per_level(quad_problem):
    # two groups project on one singular Gram at every step; each level
    # counts only its own two projections
    basis = RegressionBasis(kind="polynomial", degree=4, ridge=0.0)
    ens = _coin_ensemble(400, TimeGrid.uniform(1.0, 4), 8, 200)
    rc = RunConfig(seed=8, n_paths=400)
    swept = backward._lsmc_sweep(quad_problem, ens, basis,
                                 (6, UNTRUNCATED), rc)
    for level in (6, UNTRUNCATED):
        assert np.all(swept[level].diagnostics["lstsq_fallbacks"] == 2)


def test_ladder_levels_that_never_split_share_read_only_fields(quad_problem,
                                                              poly_basis):
    # a level leaves the levels above it exactly when its driver sees |y|
    # or |z| above it, the condition the stabilization walk reads
    grid = TimeGrid.uniform(1.0, 20)
    rc = RunConfig(seed=11, n_paths=4000)
    ens = simulate(quad_problem, grid, rc.n_paths, rc.seed)
    levels = (1, 2, 3, 4, 5, 8, 16)
    swept = backward._lsmc_sweep(quad_problem, ens, poly_basis,
                                 levels + (UNTRUNCATED,), rc)
    never_split = []
    for lo, hi in zip(levels[:-1], levels[1:]):
        a, b = swept[lo], swept[hi]
        stays = (a.diagnostics["realized_driver_y_max"] <= lo
                 and a.diagnostics["realized_driver_z_max"] <= lo)
        assert (a.y is b.y) is stays and (a.z is b.z) is stays
        never_split.append(stays)
    assert True in never_split and False in never_split
    # a level that split, and the untruncated solve, own their arrays
    owners = {}
    for level, sol in swept.items():
        owners.setdefault(id(sol.y), []).append(level)
    assert len(owners) == never_split.count(False) + 2
    held = [swept[group[0]] for group in owners.values()]
    for a in held:
        for b in held:
            if a is not b:
                assert not np.may_share_memory(a.y, b.y)
                assert not np.may_share_memory(a.z, b.z)
    for sol in swept.values():
        for arr in (sol.y, sol.z):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0


def test_stabilization_walk_raises_only_what_it_reaches():
    prob = build_problem(drift="zero", terminal="tanh", driver="linear",
                         driver_params={"a": 8.0})
    rc = RunConfig(seed=1, n_paths=1000)
    ens = simulate(prob, TimeGrid.uniform(1.0, 4), rc.n_paths, rc.seed)
    basis = RegressionBasis(kind="polynomial", degree=3)
    # 1 and 2 bind, so the walk reaches 3 and raises its divergence
    cache = {}
    with pytest.raises(PicardDivergenceError) as err:
        stabilization_level(prob, ens, basis, [1, 2, 3, 4, 8], rc,
                            _cache=cache)
    _assert_same_error(err.value, _alone(prob, ens, basis, 3, rc))
    assert sorted(cache) == [1, 2]
    # 4 and 6 bind, and 8 diverges but is never reached
    cache = {}
    assert stabilization_level(prob, ens, basis, [4, 6, 8], rc,
                               _cache=cache) is NOT_FOUND
    assert sorted(cache) == [4, 6]
    assert all(isinstance(s, BackwardSolution)
               for s in cache.values())


def test_stabilization_walk_raises_the_driver_error_it_reaches(quad_problem):
    # the driver turns non-finite at |y| > 5, which truncation at level 4
    # or below never passes to it
    def g(t, x, y, z):
        y = np.asarray(y, dtype=float)
        return np.where(np.abs(y) > 5.0, np.inf, 12.0 * y)

    prob = replace(quad_problem, driver=DriverSpec(
        g=g, lambda0=0.0, lambda_y=12.0, lambda_z=0.0, name="steep"))
    rc = RunConfig(seed=1, n_paths=2000)
    ens = simulate(prob, TimeGrid.uniform(1.0, 4), rc.n_paths, rc.seed)
    basis = RegressionBasis(kind="polynomial", degree=3)
    cache = {}
    with pytest.raises(ValidationError, match="non-finite") as err:
        stabilization_level(prob, ens, basis, [2, 4, 6, 8], rc, _cache=cache)
    _assert_same_error(err.value, _alone(prob, ens, basis, 6, rc))
    assert sorted(cache) == [2, 4]
