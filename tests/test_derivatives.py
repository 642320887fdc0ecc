"""Derivative-process tests: linear solves, identities, and the FD oracle.

The backbone cases. With zero drift the first-variation flow is the
identity, so the tangent reduction and the reconstruction coincide and a
whole family of assertions become *bitwise* rather than approximate:
constant derivative fields stay exactly constant through regression, and
the anchored and anchor-free inductions produce identical floats.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from qfbsde import core, derivatives
from qfbsde import (
    DerivativeSolution,
    DriverSpec,
    PicardDivergenceError,
    RegressionBasis,
    RunConfig,
    TimeGrid,
    UNTRUNCATED,
    ValidationError,
    build_problem,
    fd_gradient,
    lsmc_solve,
    representation_check,
    simulate,
    solve_gradient_bsde,
    solve_malliavin_bsde,
    variational_flow,
)


@pytest.fixture(scope="module")
def trivial_setup(poly_basis):
    """Zero drift, zero driver, linear terminal: everything is explicit."""
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="zero", terminal="coordinate", driver="zero")
    grid = TimeGrid.uniform(1.0, 20)
    rc = RunConfig(seed=777, n_paths=5000)
    ens = simulate(prob, grid, rc.n_paths, rc.seed)
    flow = variational_flow(prob, ens)
    base = lsmc_solve(prob, ens, poly_basis, UNTRUNCATED, rc)
    return prob, grid, rc, ens, flow, base


@pytest.fixture(scope="module")
def quad_setup(poly_basis):
    """Drift-free quadratic problem at a moderate Monte-Carlo budget."""
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="zero", terminal="tanh", driver="colehopf")
    grid = TimeGrid.uniform(1.0, 20)
    rc = RunConfig(seed=11, n_paths=20000)
    ens = simulate(prob, grid, rc.n_paths, rc.seed)
    flow = variational_flow(prob, ens)
    base = lsmc_solve(prob, ens, poly_basis, 8, rc)
    return prob, grid, rc, ens, flow, base


# ---------------------------------------------------------------------------
# The explicit case: phi(x) = x, b == 0, g == 0
# ---------------------------------------------------------------------------

def test_gradient_fields_exact_for_linear_terminal(trivial_setup, poly_basis):
    prob, grid, rc, ens, flow, base = trivial_setup
    ny, nz = solve_gradient_bsde(prob, ens, flow, base, poly_basis, rc)
    assert np.all(ny == 1.0)
    assert np.all(nz == 0.0)


def test_malliavin_fields_exact_for_linear_terminal(trivial_setup, poly_basis):
    prob, grid, rc, ens, flow, base = trivial_setup
    dy, dz = solve_malliavin_bsde(prob, ens, flow, base, (0, 10, 19),
                                  poly_basis, rc)
    for u in (0, 10, 19):
        assert np.all(dy[u] == 1.0)
        assert np.all(dz[u] == 0.0)
        assert dy[u].shape[1] == grid.n_steps + 1 - u
        assert dz[u].shape[1] == grid.n_steps - u


def test_representation_identities_on_explicit_case(trivial_setup, poly_basis):
    prob, grid, rc, ens, flow, base = trivial_setup
    ny, nz = solve_gradient_bsde(prob, ens, flow, base, poly_basis, rc)
    dy, dz = solve_malliavin_bsde(prob, ens, flow, base, (0, 10, 19),
                                  poly_basis, rc)
    deriv = DerivativeSolution(anchors=(0, 10, 19), nabla_y=ny, nabla_z=nz,
                               dy=dy, dz=dz)
    rep = representation_check(base, deriv, flow)
    # anchored and anchor-free inductions run the same float ops here
    assert rep.max_deviation("malliavin_value") == 0.0
    assert rep.max_deviation("malliavin_control") == 0.0
    # the control identity compares against the *regressed* Z, whose
    # per-node fluctuation does not vanish at finite sample size
    dev = rep.max_deviation("control_gradient")
    assert 0.0 < dev < 0.1


def test_fd_gradient_matches_exact_slope(trivial_setup, poly_basis):
    prob, grid, rc, ens, flow, base = trivial_setup
    fd = fd_gradient(prob, 1e-2, rc, grid=grid, basis=poly_basis)
    assert abs(fd.value[0] - 1.0) < 1e-8
    assert fd.h == 1e-2
    assert fd.stderr.shape == (1,)


def test_fd_gradient_guards(trivial_setup, poly_basis):
    prob, grid, rc, *_ = trivial_setup
    with pytest.raises(ValidationError):
        fd_gradient(prob, 0.0, rc, grid=grid, basis=poly_basis)
    with pytest.raises(ValidationError):
        fd_gradient(prob, 1e-9, rc, grid=grid, basis=poly_basis)


def test_fd_gradient_zero_for_flat_terminal(poly_basis):
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="zero", terminal="constant", driver="zero")
    grid = TimeGrid.uniform(1.0, 10)
    rc = RunConfig(seed=4, n_paths=500)
    fd = fd_gradient(prob, 1e-2, rc, grid=grid, basis=poly_basis)
    assert fd.value[0] == 0.0


def test_derivative_solution_linearity_in_terminal(trivial_setup, poly_basis):
    # doubling the terminal data doubles every derivative field bit-for-bit:
    # the induction is linear and scaling by two never rounds
    prob, grid, rc, ens, flow, base = trivial_setup
    doubled = replace(
        prob,
        terminal=lambda x: 2.0 * np.atleast_2d(x)[:, 0],
        terminal_gradient=lambda x: 2.0 * np.ones_like(np.atleast_2d(x)))
    base2 = lsmc_solve(doubled, ens, poly_basis, UNTRUNCATED, rc)
    ny1, nz1 = solve_gradient_bsde(prob, ens, flow, base, poly_basis, rc)
    ny2, nz2 = solve_gradient_bsde(doubled, ens, flow, base2, poly_basis, rc)
    assert np.array_equal(ny2, 2.0 * ny1)
    assert np.array_equal(nz2, 2.0 * nz1)


# ---------------------------------------------------------------------------
# Smooth non-trivial case: heat-kernel gradient
# ---------------------------------------------------------------------------

def test_gradient_matches_heat_kernel(poly_basis):
    # b == 0, g == 0: the value is E[phi(x + B_T)], whose slope at 0 is
    # the Gaussian expectation of phi'
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="zero", terminal="tanh", driver="zero")
    grid = TimeGrid.uniform(1.0, 20)
    rc = RunConfig(seed=5, n_paths=20000)
    ens = simulate(prob, grid, rc.n_paths, rc.seed)
    flow = variational_flow(prob, ens)
    base = lsmc_solve(prob, ens, poly_basis, UNTRUNCATED, rc)
    ny, _ = solve_gradient_bsde(prob, ens, flow, base, poly_basis, rc)
    nodes, weights = np.polynomial.hermite_e.hermegauss(64)
    weights = weights / weights.sum()
    exact = float(np.sum(weights * (1.0 - np.tanh(nodes) ** 2)))
    got = float(ny[:, 0, 0].mean())
    assert abs(got - exact) / exact < 0.03


def test_driver_gradient_fd_fallback_agrees(quad_setup, poly_basis):
    prob, grid, rc, ens, flow, base = quad_setup
    stripped = replace(
        prob,
        driver=DriverSpec(g=prob.driver.g, lambda0=prob.driver.lambda0,
                          lambda_y=prob.driver.lambda_y,
                          lambda_z=prob.driver.lambda_z,
                          f=prob.driver.f, name="colehopf-no-grads"))
    ny_a, nz_a = solve_gradient_bsde(prob, ens, flow, base, poly_basis, rc)
    ny_f, nz_f = solve_gradient_bsde(stripped, ens, flow, base, poly_basis, rc)
    assert np.abs(ny_a - ny_f).max() < 1e-6
    assert np.abs(nz_a - nz_f).max() < 1e-6


@pytest.mark.parametrize("driver, params", [
    ("colehopf", {}),
    ("linear", {"a": -0.7, "c": 0.4}),
    ("f_power", {"q": 2.0}),
    ("zero", {}),
], ids=["colehopf", "linear", "f_power", "zero"])
def test_central_difference_fallbacks_match_analytic_gradients(driver,
                                                                params):
    prob = build_problem(dim=2, drift="zero", terminal="tanh",
                         driver=driver, driver_params=params)
    drv = prob.driver
    rng = np.random.default_rng(4)
    x, z = rng.standard_normal((50, 2)), rng.standard_normal((50, 2))
    y = rng.standard_normal(50)
    bare = replace(drv, grad=None)
    for fd, exact in zip(derivatives._driver_gradients(bare, 0.5, x, y, z),
                         derivatives._driver_gradients(drv, 0.5, x, y, z)):
        assert fd.shape == exact.shape
        assert np.abs(fd - exact).max() < 1e-6
    fd = derivatives._terminal_gradient(
        replace(prob, terminal_gradient=None), x)
    sech2 = np.zeros_like(x)
    sech2[:, 0] = 1.0 / np.cosh(x[:, 0]) ** 2
    assert np.abs(fd - sech2).max() < 1e-6


def test_driver_gradients_truncate_y_and_z_once(monkeypatch):
    calls = []
    rho = core.rho_truncate

    def counting_rho(x, n):
        calls.append(n)
        return rho(x, n)

    monkeypatch.setattr(core, "rho_truncate", counting_rho)
    drv = build_problem(dim=2, driver="colehopf").driver.truncated(3)
    rng = np.random.default_rng(5)
    x, z = rng.standard_normal((20, 2)), 4.0 * rng.standard_normal((20, 2))
    y = rng.standard_normal(20)
    derivatives._driver_gradients(drv, 0.5, x, y, z)
    assert calls == [3, 3]


# ---------------------------------------------------------------------------
# Malliavin structure on the quadratic problem
# ---------------------------------------------------------------------------

def test_malliavin_diagonal_tracks_control(quad_setup, poly_basis):
    # D_t Y_t = Z_t: the diagonal of the Malliavin field is the control
    prob, grid, rc, ens, flow, base = quad_setup
    anchors = (0, 5, 10)
    dy, _ = solve_malliavin_bsde(prob, ens, flow, base, anchors,
                                 poly_basis, rc)
    for u in anchors:
        diag = dy[u][:, 0, 0]
        z_u = base.z[:, u, 0]
        rel = float(np.abs(diag - z_u).mean() / np.abs(z_u).mean())
        assert rel < 0.08, (u, rel)
    # at the deterministic start the comparison is cleanest
    diag0 = dy[0][:, 0, 0]
    rel0 = float(np.abs(diag0 - base.z[:, 0, 0]).mean()
                 / np.abs(base.z[:, 0, 0]).mean())
    assert rel0 < 0.05


def test_malliavin_anchors_share_one_induction(poly_basis):
    # the reduced recursion does not depend on the anchor, so a field read
    # off a joint solve equals the one solved for its anchor alone, bit for
    # bit; a rough drift keeps the reconstruction factors non-trivial
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="sign", terminal="tanh", driver="colehopf",
                         mollify_eps=0.1)
    grid = TimeGrid.uniform(1.0, 16)
    rc = RunConfig(seed=9, n_paths=1000)
    ens = simulate(prob, grid, rc.n_paths, rc.seed)
    flow = variational_flow(prob, ens)
    base = lsmc_solve(prob, ens, poly_basis, 8, rc)
    dy, dz = solve_malliavin_bsde(prob, ens, flow, base, (0, 5, 10),
                                  poly_basis, rc)
    for u in (0, 5, 10):
        dy_u, dz_u = solve_malliavin_bsde(prob, ens, flow, base, (u,),
                                          poly_basis, rc)
        assert np.array_equal(dy[u], dy_u[u])
        assert np.array_equal(dz[u], dz_u[u])


def test_linear_passes_build_one_step_regressor_per_step(monkeypatch,
                                                        trivial_setup,
                                                        poly_basis):
    # one projector per induction step serves both the value and the
    # control fit; the Malliavin pass runs one induction from its earliest
    # anchor, so it builds only the steps from there on
    prob, grid, rc, ens, flow, base = trivial_setup
    built = []

    class Counting(derivatives._StepRegressor):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(derivatives, "_StepRegressor", Counting)
    solve_gradient_bsde(prob, ens, flow, base, poly_basis, rc)
    assert len(built) == grid.n_steps
    built.clear()
    anchors = (15, 4, 10)
    solve_malliavin_bsde(prob, ens, flow, base, anchors, poly_basis, rc)
    assert len(built) == grid.n_steps - min(anchors)


@pytest.fixture(scope="module")
def sin_setup():
    """Smooth drift, so the step factor and every driver gradient matter."""
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="smooth_sin", terminal="tanh",
                         driver="colehopf")
    basis = RegressionBasis(kind="polynomial", degree=3)
    rc = RunConfig(seed=5, n_paths=2000)
    ens = simulate(prob, TimeGrid.uniform(1.0, 16), rc.n_paths, rc.seed)
    flow = variational_flow(prob, ens)
    base = lsmc_solve(prob, ens, basis, 8, rc)
    return prob, basis, rc, ens, flow, base


def test_nonfinite_driver_gradient_raises(sin_setup):
    # one NaN in g_z on one path would spread through the regression into
    # most of nablaY; the step refuses it instead
    prob, basis, rc, ens, flow, base = sin_setup
    grad = prob.driver.grad

    def bad_grad(t, x, y, z):
        gx, gy, gz = grad(t, x, y, z)
        gz = np.array(gz, dtype=float)
        gz[7, 0] = np.nan
        return gx, gy, gz

    bad = replace(prob, driver=replace(prob.driver, grad=bad_grad))
    with pytest.raises(ValidationError, match="non-finite"):
        solve_gradient_bsde(bad, ens, flow, base, basis, rc)


def test_nonfinite_linear_residual_raises(monkeypatch, sin_setup):
    # a NaN that reaches the implicit step makes its residual NaN, which
    # must fail the tolerance like a large residual does
    prob, basis, rc, ens, flow, base = sin_setup

    class Poisoned(derivatives._StepRegressor):
        def ce_and_control(self, *args):
            ce, control = super().ce_and_control(*args)
            ce = np.array(ce)
            ce[3, 0] = np.nan
            return ce, control

    monkeypatch.setattr(derivatives, "_StepRegressor", Poisoned)
    with pytest.raises(PicardDivergenceError, match="residual nan"):
        solve_gradient_bsde(prob, ens, flow, base, basis, rc)


def test_malliavin_anchor_validation(quad_setup, poly_basis):
    prob, grid, rc, ens, flow, base = quad_setup
    with pytest.raises(ValidationError):
        solve_malliavin_bsde(prob, ens, flow, base, (), poly_basis, rc)
    with pytest.raises(ValidationError):
        solve_malliavin_bsde(prob, ens, flow, base, (grid.n_steps,),
                             poly_basis, rc)
    with pytest.raises(ValidationError):
        solve_malliavin_bsde(prob, ens, flow, base, (-1,), poly_basis, rc)


def test_derivative_solution_accessors(quad_setup, poly_basis):
    prob, grid, rc, ens, flow, base = quad_setup
    ny, nz = solve_gradient_bsde(prob, ens, flow, base, poly_basis, rc)
    dy, dz = solve_malliavin_bsde(prob, ens, flow, base, (5,), poly_basis, rc)
    deriv = DerivativeSolution(anchors=(5,), nabla_y=ny, nabla_z=nz,
                               dy=dy, dz=dz)
    # before the anchor the field is zero (and not stored)
    assert np.array_equal(deriv.dy_at(5, 3), np.zeros((ny.shape[0], 1)))
    assert np.array_equal(deriv.dz_at(5, 3), np.zeros((ny.shape[0], 1, 1)))
    assert np.array_equal(deriv.dy_at(5, 5), dy[5][:, 0, :])
    with pytest.raises(ValidationError):
        DerivativeSolution(anchors=(3,), nabla_y=ny, nabla_z=nz, dy=dy, dz=dz)


# ---------------------------------------------------------------------------
# Rough drift: reduction keeps the anchored identities tight
# ---------------------------------------------------------------------------

def test_representation_identities_with_rough_drift(poly_basis):
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="sign", terminal="tanh", driver="colehopf",
                         mollify_eps=0.1)
    grid = TimeGrid.uniform(1.0, 40)
    rc = RunConfig(seed=3, n_paths=5000)
    ens = simulate(prob, grid, rc.n_paths, rc.seed)
    flow = variational_flow(prob, ens)
    assert flow.product_deviation() < 1e-12
    base = lsmc_solve(prob, ens, poly_basis, 8, rc)
    ny, nz = solve_gradient_bsde(prob, ens, flow, base, poly_basis, rc)
    dy, dz = solve_malliavin_bsde(prob, ens, flow, base, (0, 20),
                                  poly_basis, rc)
    deriv = DerivativeSolution(anchors=(0, 20), nabla_y=ny, nabla_z=nz,
                               dy=dy, dz=dz)
    rep = representation_check(base, deriv, flow)
    # anchored identities reduce to reconstruction round-off
    assert rep.max_deviation("malliavin_value") < 1e-12
    assert rep.max_deviation("malliavin_control") < 1e-12
    # the control identity carries the time-discretization floor of the
    # steep mollified Jacobian; it shrinks like 1/N (the acceptance suite
    # measures it at production resolution)
    dev = rep.max_deviation("control_gradient")
    assert 0.0 < dev < 0.6


@pytest.mark.parametrize("dim", [1, 2])
def test_malliavin_fields_are_anchored_gradient_fields(dim):
    # D_uY_t = nablaY_t (nablaX_u)^{-1} and D_uZ_t = (nablaX_u)^{-T} nablaZ_t,
    # bit for bit, also when the earliest anchor is past the start
    prob = build_problem(dim=dim, x0=np.zeros(dim), horizon=1.0,
                         drift="sign", terminal="tanh", driver="colehopf",
                         mollify_eps=0.1, mollify_quad_points=16)
    grid = TimeGrid.uniform(1.0, 12)
    rc = RunConfig(seed=9, n_paths=600)
    basis = RegressionBasis(kind="polynomial", degree=2)
    ens = simulate(prob, grid, rc.n_paths, rc.seed)
    flow = variational_flow(prob, ens)
    base = lsmc_solve(prob, ens, basis, 8, rc)
    ny, nz = solve_gradient_bsde(prob, ens, flow, base, basis, rc)
    anchors = (3, 7, 11)
    dy, dz = solve_malliavin_bsde(prob, ens, flow, base, anchors, basis, rc)
    for u in anchors:
        at_u = flow.nabla_x[:, u]
        inv_u = 1.0 / at_u if dim == 1 else np.linalg.inv(at_u)
        assert np.array_equal(
            dy[u], np.einsum("mik,mkl->mil", ny[:, u:], inv_u))
        assert np.array_equal(
            dz[u], np.einsum("mikl,mka->mial", nz[:, u:], inv_u))


def test_derivative_solves_hold_little_beyond_their_output(traced_peak):
    # each step is reconstructed into the output as soon as it is solved:
    # no full reduced field and no gradient field on [u0, N] is held
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0, drift="sign",
                         terminal="tanh", driver="colehopf", mollify_eps=0.1)
    grid = TimeGrid.uniform(1.0, 64)
    rc = RunConfig(seed=5, n_paths=2000)
    basis = RegressionBasis(kind="piecewise_linear", bins=16,
                            support=(-4.5, 4.5))
    ens = simulate(prob, grid, rc.n_paths, rc.seed)
    flow = variational_flow(prob, ens)
    base = lsmc_solve(prob, ens, basis, 8, rc)
    (ny, nz), peak = traced_peak(
        lambda: solve_gradient_bsde(prob, ens, flow, base, basis, rc))
    assert peak <= 1.5 * (ny.nbytes + nz.nbytes)
    (dy, dz), peak = traced_peak(lambda: solve_malliavin_bsde(
        prob, ens, flow, base, (0, 32, 63), basis, rc))
    assert peak <= 1.5 * sum(a.nbytes for a in (*dy.values(), *dz.values()))
