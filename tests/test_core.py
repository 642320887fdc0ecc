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
    increasing_envelope,
    rho_truncate,
    rho_truncate_deriv,
    transform_residual,
    transform_tables,
    upsilon1,
    upsilon2,
    validate_driver,
)
from qfbsde.registry import make_driver


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
    stated = upsilon2(1.0, 0.0, 0.0, 1.0, 1.0, f)
    proof = upsilon2(1.0, 0.0, 0.0, 1.0, 1.0, f, use_proof_integrand=True)
    # with lambda_z = 1 the two integrands coincide
    assert math.isclose(stated, proof, rel_tol=1e-12)
    assert upsilon2(1.0, 0.0, 0.0, 2.0, 1.0, f) \
        != upsilon2(1.0, 0.0, 0.0, 2.0, 1.0, f, use_proof_integrand=True)


def test_increasing_envelope_dominates_and_is_monotone():
    f = lambda u: np.sin(3 * u) + 1.0  # noqa: E731
    grid = np.linspace(0.0, 5.0, 2001)
    env = increasing_envelope(f, grid)
    vals = env(grid)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all(vals >= f(grid) - 1e-12)


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
    assert fine.refines(coarse)
    assert not coarse.refines(fine)
    assert math.isclose(fine.mesh, 1.0 / 32)
    assert coarse.n_steps == 8


def test_time_grid_validation():
    with pytest.raises(ValidationError):
        TimeGrid(times=np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ValidationError):
        TimeGrid(times=np.array([0.1, 0.5, 1.0]))


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
    gz = tn.grad_z(0.0, x, y, z)
    # inside: d/dz (z^2/2) = z; far outside: derivative of the cap is 0
    assert math.isclose(gz[0, 0], 1.0)
    assert gz[2, 0] == 0.0


def test_untruncated_sentinel_is_identity():
    spec = make_driver("linear", {"a": -1.0})
    assert spec.truncated(UNTRUNCATED) is spec


def test_validate_driver_passes_honest_and_flags_dishonest():
    rng = np.random.Generator(np.random.Philox(key=7))
    probes = [(0.0, rng.normal(size=1), rng.normal(), rng.normal(size=1))
              for _ in range(25)]
    # same (t, x) pairs so the Lipschitz family actually fires
    probes += [(0.5, np.zeros(1), y, np.array([zv]))
               for y in (-1.0, 0.0, 2.0) for zv in (-1.5, 0.5)]
    honest = make_driver("general_assumption2")
    assert validate_driver(honest, probes).passed

    lying = DriverSpec(
        g=lambda t, x, y, z: 10.0 + 0.0 * np.asarray(y, dtype=float),
        lambda0=1.0, lambda_y=0.0, lambda_z=0.0)
    audit = validate_driver(lying, probes)
    assert audit.growth_violations

    # a y-varying quadratic coefficient escapes the declared y-modulus
    impostor = make_driver("general_assumption2", {"f": "power"})
    assert validate_driver(impostor, probes).lipschitz_violations


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
