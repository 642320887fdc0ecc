"""Forward-leg tests: sampling, integration, mollification, flow, Zvonkin."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qfbsde import (
    DriftEvaluationError,
    FBSDEProblem,
    TimeGrid,
    ValidationError,
    build_problem,
    continuity_diagnostic,
    euler_maruyama,
    make_drift,
    malliavin_forward,
    mollify_drift,
    sample_brownian,
    simulate,
    validate_ensemble,
    variational_flow,
    zvonkin_transform_1d,
)


# ---------------------------------------------------------------------------
# Brownian sampling
# ---------------------------------------------------------------------------

def test_brownian_moments_within_band(small_grid):
    inc = sample_brownian(small_grid, 20000, 1, seed=5)
    ens = euler_maruyama(
        _zero_drift_problem(1), small_grid, inc)
    report = validate_ensemble(ens)
    assert report["passed"], report


def test_brownian_deterministic(small_grid):
    a = sample_brownian(small_grid, 300, 2, seed=42)
    b = sample_brownian(small_grid, 300, 2, seed=42)
    assert np.array_equal(a, b)
    c = sample_brownian(small_grid, 300, 2, seed=43)
    assert not np.array_equal(a, c)


def test_brownian_prefix_invariant_in_path_count(small_grid):
    # block-keyed substreams: path i gets the same numbers no matter how
    # many paths are requested in total (crucial for truncation bit-identity
    # across reruns with different M)
    few = sample_brownian(small_grid, 100, 1, seed=9)
    many = sample_brownian(small_grid, 9000, 1, seed=9)
    assert np.array_equal(few, many[:100])


def test_brownian_rejects_bad_args(small_grid):
    with pytest.raises(ValidationError):
        sample_brownian(small_grid, 0, 1, seed=1)
    with pytest.raises(ValidationError):
        sample_brownian(small_grid, 10, 0, seed=1)


# ---------------------------------------------------------------------------
# Euler-Maruyama
# ---------------------------------------------------------------------------

def _zero_drift_problem(dim, horizon=1.0):
    return build_problem(dim=dim, x0=np.zeros(dim), horizon=horizon,
                         drift="zero", terminal="tanh", driver="zero")


def test_zero_drift_paths_are_cumulative_sums(small_grid):
    inc = sample_brownian(small_grid, 50, 2, seed=3)
    ens = euler_maruyama(_zero_drift_problem(2), small_grid, inc)
    manual = np.concatenate(
        [np.zeros((50, 1, 2)), np.cumsum(inc, axis=1)], axis=1)
    assert np.array_equal(ens.paths, manual)


def test_constant_drift_adds_time(small_grid):
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="constant", terminal="tanh", driver="zero")
    inc = sample_brownian(small_grid, 20, 1, seed=8)
    ens = euler_maruyama(prob, small_grid, inc)
    drift_part = ens.paths - np.concatenate(
        [np.zeros((20, 1, 1)), np.cumsum(inc, axis=1)], axis=1)
    expected = small_grid.times[None, :, None] * np.ones((20, 1, 1))
    assert np.allclose(drift_part, expected, atol=1e-14)


def test_euler_rejects_mismatched_shapes(small_grid):
    prob = _zero_drift_problem(1)
    bad_steps = np.zeros((5, small_grid.n_steps + 1, 1))
    with pytest.raises(ValidationError):
        euler_maruyama(prob, small_grid, bad_steps)
    bad_dim = np.zeros((5, small_grid.n_steps, 3))
    with pytest.raises(ValidationError):
        euler_maruyama(prob, small_grid, bad_dim)


def test_euler_flags_nonfinite_drift(small_grid):
    def bad(t, x):
        out = np.zeros_like(x)
        out[0, 0] = np.nan
        return out

    prob = FBSDEProblem(dim=1, x0=np.zeros(1), drift=bad,
                        terminal=lambda x: np.tanh(x[:, 0]),
                        driver=_zero_drift_problem(1).driver, horizon=1.0)
    inc = sample_brownian(small_grid, 4, 1, seed=2)
    with pytest.raises(DriftEvaluationError):
        euler_maruyama(prob, small_grid, inc)


def test_euler_x0_override_per_path(small_grid):
    prob = _zero_drift_problem(1)
    inc = sample_brownian(small_grid, 3, 1, seed=11)
    starts = np.array([[0.0], [1.0], [-2.0]])
    ens = euler_maruyama(prob, small_grid, inc, x0=starts)
    assert np.array_equal(ens.paths[:, 0, :], starts)
    # zero drift: the start shifts the whole path rigidly
    base = euler_maruyama(prob, small_grid, inc)
    assert np.allclose(ens.paths - starts[:, None, :], base.paths, atol=0)


def test_simulate_bundles_seed(small_grid):
    ens = simulate(_zero_drift_problem(1), small_grid, 10, seed=77)
    assert ens.seed == 77
    again = simulate(_zero_drift_problem(1), small_grid, 10, seed=77)
    assert np.array_equal(ens.paths, again.paths)


# ---------------------------------------------------------------------------
# Mollification
# ---------------------------------------------------------------------------

def test_mollified_sign_bounded_and_odd():
    sign, _, bound = make_drift("sign")
    moll = mollify_drift(sign, 0.1, quad_points=64)
    xs = np.linspace(-3, 3, 401)[:, None]
    vals = moll.value(0.0, xs)
    assert np.abs(vals).max() <= bound + 1e-12
    assert abs(float(moll.value(0.0, np.zeros((1, 1)))[0, 0])) < 1e-12
    # odd symmetry of the smoothed kernel
    assert np.allclose(vals, -moll.value(0.0, -xs), atol=1e-12)


def test_mollified_sign_jacobian_peak():
    # d/dx E[sign(x + eps G)] at 0 is the Gaussian density value 2/(eps*sqrt(2pi))
    eps = 0.1
    sign, _, _ = make_drift("sign")
    moll = mollify_drift(sign, eps, quad_points=64)
    peak = float(moll.jacobian(0.0, np.zeros((1, 1)))[0, 0, 0])
    exact = math.sqrt(2.0 / math.pi) / eps
    assert abs(peak - exact) / exact < 0.01
    assert peak > 0


def test_mollify_rejects_bad_args():
    sign, _, _ = make_drift("sign")
    with pytest.raises(ValidationError):
        mollify_drift(sign, 0.0)
    with pytest.raises(ValidationError):
        mollify_drift(sign, -1.0)
    with pytest.raises(ValidationError):
        mollify_drift(sign, 0.1, quad_points=1)
    with pytest.raises(ValidationError):
        mollify_drift(sign, 0.1, dim=4, quad_points=64)


def test_build_problem_wires_mollified_gradient():
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="sign", terminal="tanh", driver="colehopf",
                         mollify_eps=0.1)
    assert prob.drift_gradient is not None
    j = np.asarray(prob.drift_gradient(0.0, np.zeros((1, 1))))
    assert j.shape == (1, 1, 1) and j[0, 0, 0] > 0


# ---------------------------------------------------------------------------
# First-variation flow
# ---------------------------------------------------------------------------

def test_flow_is_identity_without_drift(small_grid, small_config):
    prob = _zero_drift_problem(1)
    zero_jac = lambda t, x: np.zeros((x.shape[0], 1, 1))
    prob = prob.with_drift(prob.drift, gradient=zero_jac, bound=0.0)
    ens = simulate(prob, small_grid, 20, seed=1)
    flow = variational_flow(prob, ens)
    assert np.array_equal(flow.nabla_x, np.ones_like(flow.nabla_x))
    assert np.array_equal(flow.nabla_x_inv, np.ones_like(flow.nabla_x_inv))
    assert flow.product_deviation() == 0.0


def test_flow_inverse_tracks_flow(small_grid):
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="smooth_sin", terminal="tanh", driver="zero")
    ens = simulate(prob, small_grid, 50, seed=4)
    flow = variational_flow(prob, ens)
    assert flow.product_deviation() < 1e-12
    # one Euler factor by hand at the first step
    jac = prob.drift_gradient(0.0, ens.paths[:, 0, :])
    step = 1.0 + small_grid.deltas[0] * jac[:, 0, 0]
    assert np.allclose(flow.nabla_x[:, 1, 0, 0], step, atol=1e-15)


def test_flow_requires_gradient(small_grid):
    sign, _, bound = make_drift("sign")
    prob = FBSDEProblem(dim=1, x0=np.zeros(1), drift=sign,
                        terminal=lambda x: np.tanh(x[:, 0]),
                        driver=_zero_drift_problem(1).driver,
                        horizon=1.0, drift_bound=bound)
    ens = simulate(prob, small_grid, 5, seed=6)
    with pytest.raises(ValidationError):
        variational_flow(prob, ens)


def test_flow_uses_mollified_jacobian_automatically(small_grid):
    sign, _, bound = make_drift("sign")
    moll = mollify_drift(sign, 0.2, quad_points=32)
    prob = FBSDEProblem(dim=1, x0=np.zeros(1), drift=moll,
                        terminal=lambda x: np.tanh(x[:, 0]),
                        driver=_zero_drift_problem(1).driver,
                        horizon=1.0, drift_bound=bound)
    ens = simulate(prob, small_grid, 10, seed=6)
    flow = variational_flow(prob, ens)
    assert flow.product_deviation() < 1e-10


def test_malliavin_forward_identity_and_validation(small_grid):
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="smooth_sin", terminal="tanh", driver="zero")
    ens = simulate(prob, small_grid, 8, seed=13)
    flow = variational_flow(prob, ens)
    n = small_grid.n_steps
    ds_same = malliavin_forward(flow, 5, 5)
    assert np.allclose(ds_same, np.eye(1)[None], atol=1e-12)
    # semigroup property D_s X_t = D_u X_t * D_s X_u for s <= u <= t
    a = malliavin_forward(flow, 2, n)
    b = np.einsum("mij,mjk->mik", malliavin_forward(flow, 5, n),
                  malliavin_forward(flow, 2, 5))
    assert np.allclose(a, b, atol=1e-12)
    with pytest.raises(ValidationError):
        malliavin_forward(flow, 6, 5)
    with pytest.raises(ValidationError):
        malliavin_forward(flow, 0, n + 1)


# ---------------------------------------------------------------------------
# Zvonkin transform
# ---------------------------------------------------------------------------

def test_zvonkin_residual_and_margin():
    drift, _, _ = make_drift("holder_sqrt")
    xs = np.linspace(-2.0, 2.0, 129)
    ts = np.linspace(0.0, 1.0, 65)
    zt = zvonkin_transform_1d(drift, 10.0, xs, ts)
    assert zt.residual() < 1e-10
    assert zt.diffeomorphism_margin() > 0.0


def test_zvonkin_psi_inverse_roundtrip():
    drift, _, _ = make_drift("holder_sqrt")
    xs = np.linspace(-2.0, 2.0, 129)
    ts = np.linspace(0.0, 1.0, 17)
    zt = zvonkin_transform_1d(drift, 10.0, xs, ts)
    probe = np.linspace(-1.5, 1.5, 31)
    recovered = zt.psi_inverse(0, zt.psi(0, probe))
    assert np.abs(recovered - probe).max() < 1e-9
    # transformed coefficients stay bounded on the box
    assert np.all(np.isfinite(zt.drift_tilde(0, zt.psi(0, probe))))
    assert np.all(zt.sigma_tilde(0, zt.psi(0, probe)) > 0)


def test_zvonkin_psi_inverse_is_exact_and_needs_monotone_knots():
    drift, _, _ = make_drift("holder_sqrt")
    xs = np.linspace(-2.0, 2.0, 129)
    zt = zvonkin_transform_1d(drift, 10.0, xs, np.linspace(0.0, 1.0, 17))
    for t in (0, 8, 16):
        assert np.array_equal(zt.psi_inverse(t, zt.xs + zt.u[t]), zt.xs)
    folded = zt.u.copy()
    folded[0, 64] = folded[0, 65] + 1.0  # one grid step is 1/32
    bad = replace(zt, u=folded)
    with pytest.raises(ValidationError, match="strictly increasing"):
        bad.psi_inverse(0, np.zeros(3))


def test_zvonkin_rejects_bad_grids():
    drift, _, _ = make_drift("holder_sqrt")
    with pytest.raises(ValidationError):
        zvonkin_transform_1d(drift, 10.0, np.array([0.0, 1.0, 3.0, 4.0, 5.0]),
                             np.linspace(0, 1, 5))
    with pytest.raises(ValidationError):
        zvonkin_transform_1d(drift, 10.0, np.linspace(0, 1, 3),
                             np.linspace(0, 1, 5))
    with pytest.raises(ValidationError):
        zvonkin_transform_1d(drift, 0.0, np.linspace(0, 1, 9),
                             np.linspace(0, 1, 5))
    with pytest.raises(ValidationError):
        zvonkin_transform_1d(drift, 10.0, np.linspace(0, 1, 9),
                             np.array([0.0, 0.5, 0.5]))


# ---------------------------------------------------------------------------
# Continuity diagnostic
# ---------------------------------------------------------------------------

def test_continuity_diagnostic_smoke():
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="sign", terminal="tanh", driver="colehopf",
                         mollify_eps=0.1)
    pairs = [
        (0.0, 0.5, np.zeros(1), np.zeros(1)),
        (0.25, 0.25, np.zeros(1), np.ones(1)),
        (0.1, 0.9, -np.ones(1), np.ones(1)),
    ]
    rep = continuity_diagnostic(prob, pairs, n_steps=32, n_paths=2000, seed=5)
    assert rep.ratios.shape == (3,)
    assert np.all(np.isfinite(rep.ratios)) and np.all(rep.ratios > 0)
    assert rep.max_ratio >= rep.ratios[0]
    # pure time separation of Brownian-plus-bounded-drift: ratio near 1, not huge
    assert rep.ratios[0] < 10.0


def test_continuity_diagnostic_rejects_degenerate_pairs():
    prob = _zero_drift_problem(1)
    with pytest.raises(ValidationError):
        continuity_diagnostic(prob, [(0.3, 0.3, np.zeros(1), np.zeros(1))],
                              n_steps=8, n_paths=50, seed=1)
    with pytest.raises(ValidationError):
        continuity_diagnostic(prob, [], n_steps=8, n_paths=50, seed=1)
    with pytest.raises(ValidationError):
        continuity_diagnostic(prob, [(0.0, 2.0, np.zeros(1), np.ones(1))],
                              n_steps=8, n_paths=50, seed=1)
    with pytest.raises(ValidationError):
        continuity_diagnostic(prob, [(0.0, 0.5, np.zeros(2), np.ones(2))],
                              n_steps=8, n_paths=50, seed=1)
