"""Oracle tests: quadrature, the monotone transform, and the three routes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qfbsde import (
    TimeGrid,
    ValidationError,
    build_problem,
    domination_map,
    domination_oracle,
    gauss_hermite,
    linear_oracle,
    nested_mc_ce,
    simulate,
)

CH_TANH_Y0 = 0.18892605798343154  # frozen: 64-node value for the quadratic demo


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def test_gauss_hermite_moments():
    nodes, weights = gauss_hermite(32)
    assert abs(weights.sum() - 1.0) < 1e-15
    assert abs(np.sum(weights * nodes)) < 1e-14
    assert abs(np.sum(weights * nodes ** 2) - 1.0) < 1e-12
    assert abs(np.sum(weights * nodes ** 4) - 3.0) < 1e-11
    assert abs(np.sum(weights * nodes ** 3)) < 1e-12


def test_gauss_hermite_needs_two_points():
    with pytest.raises(ValidationError):
        gauss_hermite(1)


# ---------------------------------------------------------------------------
# The monotone transform
# ---------------------------------------------------------------------------

def test_domination_map_identity_for_zero_f():
    mapping = domination_map(lambda y: np.zeros_like(y), 2.0)
    assert np.array_equal(mapping.u_values, mapping.xs)
    assert float(mapping.u(np.array([0.0]))[0]) == 0.0


def test_domination_map_exponential_for_constant_f():
    # f == 1/2 integrates to u(x) = e^x - 1
    mapping = domination_map(lambda y: np.full_like(y, 0.5), 1.5)
    probe = np.linspace(-1.4, 1.4, 23)
    assert np.abs(mapping.u(probe) - (np.exp(probe) - 1.0)).max() < 1e-7


def test_domination_map_monotone_and_invertible():
    mapping = domination_map(lambda y: np.abs(y), 2.0)
    assert np.all(np.diff(mapping.u_values) > 0)
    assert np.all(mapping.u_prime > 0)
    probe = np.linspace(-1.9, 1.9, 41)
    roundtrip = mapping.inverse(mapping.u(probe))
    assert np.abs(roundtrip - probe).max() < 1e-9


def test_domination_map_inverse_is_exact_at_the_knots():
    mapping = domination_map(lambda y: np.abs(y), 2.0)
    assert np.array_equal(mapping.inverse(mapping.u_values), mapping.xs)


def test_domination_map_range_guards():
    mapping = domination_map(lambda y: np.zeros_like(y), 1.0)
    with pytest.raises(ValidationError):
        mapping.u(np.array([1.5]))
    with pytest.raises(ValidationError):
        mapping.inverse(np.array([mapping.u_values[-1] + 1.0]))
    with pytest.raises(ValidationError):
        domination_map(lambda y: np.zeros_like(y), -1.0)
    with pytest.raises(ValidationError):
        domination_map(lambda y: np.full_like(y, np.nan), 1.0)


# ---------------------------------------------------------------------------
# Transform oracle
# ---------------------------------------------------------------------------

def test_domination_oracle_frozen_value(quad_problem):
    res = domination_oracle(quad_problem, quad_points=64)
    assert res.stderr == 0.0  # drift-free: pure quadrature
    assert res.y0 == pytest.approx(CH_TANH_Y0, abs=1e-12)


def test_domination_oracle_matches_direct_integration(quad_problem):
    # same identity evaluated with a dense trapezoid instead of quadrature:
    # u(x) = e^x - 1 for the f == 1/2 profile, Y0 = log(1 + E[u(tanh(G))])
    xs = np.linspace(-10.0, 10.0, 200001)
    dens = np.exp(-0.5 * xs ** 2) / math.sqrt(2.0 * math.pi)
    target = np.trapezoid((np.exp(np.tanh(xs)) - 1.0) * dens, xs)
    direct = math.log1p(target)
    res = domination_oracle(quad_problem, quad_points=64)
    assert abs(res.y0 - direct) < 1e-9


def test_domination_oracle_field(quad_problem, small_grid):
    ens = simulate(quad_problem, small_grid, 200, seed=3)
    n = small_grid.n_steps
    res = domination_oracle(quad_problem, quad_points=48,
                            ensemble=ens, time_indices=(0, n // 2, n))
    assert res.y_field.shape == (200, 3)
    # conditioning on the (deterministic) start reproduces the global value
    assert np.abs(res.y_field[:, 0] - res.y0).max() < 1e-9
    # at the terminal node the conditioning is trivial: u^{-1}(u(phi)) = phi
    terminal = np.tanh(ens.paths[:, -1, 0])
    assert np.abs(res.y_field[:, -1] - terminal).max() < 1e-9


def test_domination_oracle_field_uses_the_tensor_rule_in_2d():
    # a terminal that reads both coordinates: at node 0 every path sits at
    # x0, so the per-path field is the value itself
    base = build_problem(dim=2, x0=0.3, drift="zero", terminal="tanh",
                         driver="colehopf")
    prob = replace(base, terminal=lambda x: np.tanh(x[:, 0] + x[:, 1]))
    ens = simulate(prob, TimeGrid.uniform(1.0, 4), 50, seed=2)
    res = domination_oracle(prob, quad_points=32, ensemble=ens,
                            time_indices=(0,))
    assert np.abs(res.y_field[:, 0] - res.y0).max() < 1e-12


def test_domination_oracle_mc_route_matches_gaussian_shift():
    # constant drift keeps the terminal state exactly Gaussian around x0+T,
    # so the nested route must agree with a quadrature done by hand
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="constant", terminal="tanh", driver="colehopf")
    res = domination_oracle(prob, inner_paths=20000, inner_steps=32, seed=6)
    assert res.stderr > 0.0  # drift present: Monte-Carlo route
    nodes, weights = gauss_hermite(96)
    u_mean = float(np.sum(weights * (np.exp(np.tanh(1.0 + nodes)) - 1.0)))
    exact = math.log1p(u_mean)
    assert abs(res.y0 - exact) < 4.0 * res.stderr + 1e-4


def test_domination_oracle_zero_driver_is_martingale_case():
    # the zero driver carries f == 0, so u is the identity and the value
    # is the plain expectation E[tanh(G)] = 0 (odd integrand)
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="zero", terminal="tanh", driver="zero")
    res = domination_oracle(prob)
    assert abs(res.y0) < 1e-9


def test_domination_oracle_rejects_unbounded_terminal():
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="zero", terminal="coordinate",
                         driver="colehopf")
    with pytest.raises(ValidationError, match="unbounded"):
        domination_oracle(prob)


def test_domination_oracle_requires_f(quad_problem):
    from dataclasses import replace

    from qfbsde import DriverSpec

    bare = DriverSpec(g=quad_problem.driver.g, lambda0=0.0, lambda_y=0.0,
                      lambda_z=1.0, f=None)
    stripped = replace(quad_problem, driver=bare)
    with pytest.raises(ValidationError):
        domination_oracle(stripped)
    # supplying f explicitly recovers the frozen value
    res = domination_oracle(stripped, f=lambda y: np.full_like(y, 0.5),
                            table_range=1.1, quad_points=64)
    assert res.y0 == pytest.approx(CH_TANH_Y0, abs=1e-7)


# ---------------------------------------------------------------------------
# Linear oracle
# ---------------------------------------------------------------------------

def test_linear_oracle_pure_discount():
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="zero", terminal="constant", driver="linear")
    res = linear_oracle(prob, a=-1.0, c=0.0, h=None, n_paths=500)
    assert res.y0 == pytest.approx(math.exp(-1.0), abs=1e-14)
    assert res.stderr < 1e-15  # flat terminal: only mean-subtraction dust


def test_linear_oracle_with_source_term():
    # g = -y + 1 on a flat terminal integrates to exactly 1
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="zero", terminal="constant", driver="linear")
    res = linear_oracle(prob, a=-1.0, c=0.0,
                        h=lambda t, x: np.ones(x.shape[0]),
                        n_steps=64, n_paths=500)
    assert abs(res.y0 - 1.0) < 1e-3


def test_linear_oracle_girsanov_tilt():
    # g = c . z shifts the forward drift: Y0 = E[X_T + cT] = c*T
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="zero", terminal="coordinate", driver="zero")
    res = linear_oracle(prob, a=0.0, c=0.5, h=None,
                        n_steps=16, n_paths=100_000, seed=12)
    assert abs(res.y0 - 0.5) < 4.0 * res.stderr
    assert res.stderr < 0.01


# ---------------------------------------------------------------------------
# Nested Monte Carlo
# ---------------------------------------------------------------------------

def test_nested_mc_ce_martingale_property():
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="zero", terminal="coordinate", driver="zero")
    grid = TimeGrid.uniform(1.0, 8)
    states = np.array([[-1.0], [0.0], [2.0]])
    est, se = nested_mc_ce(prob, states, 4, grid,
                           lambda xt: xt[:, 0], inner_paths=4000, seed=9)
    assert np.all(se > 0)
    assert np.abs(est - states[:, 0]).max() < 4.0 * se.max()


def test_nested_mc_ce_trivial_at_terminal():
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="zero", terminal="coordinate", driver="zero")
    grid = TimeGrid.uniform(1.0, 8)
    states = np.array([[0.3], [1.2]])
    est, se = nested_mc_ce(prob, states, 8, grid, lambda xt: xt[:, 0] ** 2,
                           inner_paths=500, seed=9)
    assert np.array_equal(est, states[:, 0] ** 2)
    assert np.array_equal(se, np.zeros(2))


def test_nested_mc_ce_deterministic_per_state():
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="smooth_sin", terminal="tanh", driver="zero")
    grid = TimeGrid.uniform(1.0, 8)
    single = np.array([[0.5]])
    both = np.array([[-2.0], [0.5]])
    est_single, _ = nested_mc_ce(prob, single, 2, grid,
                                 lambda xt: np.tanh(xt[:, 0]),
                                 inner_paths=300, seed=4)
    est_both, _ = nested_mc_ce(prob, both, 2, grid,
                               lambda xt: np.tanh(xt[:, 0]),
                               inner_paths=300, seed=4)
    # state k's substream ignores the other outer states
    assert est_single[0] != est_both[0]
    assert est_single[0] == est_both[1]


def test_nested_mc_ce_validation():
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="zero", terminal="coordinate", driver="zero")
    grid = TimeGrid.uniform(1.0, 8)
    with pytest.raises(ValidationError):
        nested_mc_ce(prob, np.zeros((2, 1)), 0, grid,
                     lambda xt: xt[:, 0], inner_paths=50)
    with pytest.raises(ValidationError):
        nested_mc_ce(prob, np.zeros((2, 3)), 0, grid,
                     lambda xt: xt[:, 0], inner_paths=500)
