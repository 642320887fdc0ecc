"""Forward-leg tests: sampling, integration, mollification, flow, Zvonkin."""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from qfbsde import forward
from qfbsde import (
    DriftEvaluationError,
    FBSDEProblem,
    TimeGrid,
    ValidationError,
    build_problem,
    continuity_diagnostic,
    euler_maruyama,
    make_drift,
    mollify_drift,
    sample_brownian,
    simulate,
    variational_flow,
    zvonkin_transform_1d,
)


# ---------------------------------------------------------------------------
# Brownian sampling
# ---------------------------------------------------------------------------

def test_brownian_moments_within_band(small_grid):
    m = 20000
    inc = sample_brownian(small_grid, m, 1, seed=5)
    dt = small_grid.deltas[:, None]
    # per (step, coord): mean within 6 sigma of 0, variance within 6 sigma
    # of dt in the normal approximation of the sample variance
    mean_sigma = np.abs(inc.mean(axis=0)) / np.sqrt(dt / m)
    var_sigma = (np.abs(inc.var(axis=0, ddof=1) - dt)
                 / (dt * math.sqrt(2.0 / (m - 1))))
    assert mean_sigma.max() <= 6.0
    assert var_sigma.max() <= 6.0


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


def test_brownian_is_the_path_major_philox_draw_stored_step_major(small_grid):
    # reference: each 4096-path block drawn path-major from its own Philox
    # key and scaled in place; 4096 + 300 paths cover a partial block and
    # a partial transpose sub-block
    m, d, seed = 4396, 2, 17
    ref = np.empty((m, small_grid.n_steps, d))
    for start in range(0, m, 4096):
        key = ((start // 4096) << 64) | seed
        gen = np.random.Generator(np.random.Philox(key=key))
        take = min(4096, m - start)
        ref[start:start + take] = gen.standard_normal(
            (take, small_grid.n_steps, d))
    ref *= np.sqrt(small_grid.deltas)[None, :, None]
    inc = sample_brownian(small_grid, m, d, seed)
    assert np.swapaxes(inc, 0, 1).flags.c_contiguous
    assert inc.shape == ref.shape and inc.tobytes() == ref.tobytes()


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


def test_flow_flags_nonfinite_drift_jacobian(small_grid):
    prob = build_problem(dim=1, drift="smooth_sin")
    jac = prob.drift_gradient

    def bad_jac(t, x):
        out = np.array(jac(t, x))
        if t > 0.5:
            out[3, 0, 0] = np.inf
        return out

    bad = prob.with_drift(prob.drift, gradient=bad_jac)
    ens = simulate(bad, small_grid, 20, seed=4)
    with pytest.raises(DriftEvaluationError, match="jacobian"):
        variational_flow(bad, ens)


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
    value, _ = mollify_drift(sign, 0.1, quad_points=64)
    xs = np.linspace(-3, 3, 401)[:, None]
    vals = value(0.0, xs)
    assert np.abs(vals).max() <= bound + 1e-12
    assert abs(float(value(0.0, np.zeros((1, 1)))[0, 0])) < 1e-12
    # odd symmetry of the smoothed kernel
    assert np.allclose(vals, -value(0.0, -xs), atol=1e-12)


def test_mollified_sign_jacobian_peak():
    # d/dx E[sign(x + eps G)] at 0 is the Gaussian density value 2/(eps*sqrt(2pi))
    eps = 0.1
    sign, _, _ = make_drift("sign")
    _, jacobian = mollify_drift(sign, eps, quad_points=64)
    peak = float(jacobian(0.0, np.zeros((1, 1)))[0, 0, 0])
    exact = math.sqrt(2.0 / math.pi) / eps
    assert abs(peak - exact) / exact < 0.01
    assert peak > 0


def test_node_average_blocks_rows_without_changing_bits(monkeypatch):
    # value and Jacobian over many blocks equal the one-block evaluation
    sign, _, _ = make_drift("sign")
    value, jacobian = mollify_drift(sign, 0.1, dim=2, quad_points=8)
    x = np.random.Generator(np.random.Philox(key=4)).normal(size=(37, 2))
    val, jac = value(0.3, x), jacobian(0.3, x)
    assert jac.shape == (37, 2, 2)
    for points in (1, 64 * 5, 64 * 36):  # one row, five rows, 36 rows
        monkeypatch.setattr(forward, "_NODE_AVERAGE_POINTS", points)
        assert np.array_equal(value(0.3, x), val)
        assert np.array_equal(jacobian(0.3, x), jac)


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


@pytest.mark.parametrize("eps", [np.nan, -0.1])
def test_build_problem_refuses_a_bad_smoothing_scale(eps):
    # NaN fails `eps > 0` as well as `eps >= 0`; it must not fall through
    # to the unsmoothed drift, which has no gradient
    with pytest.raises(ValidationError, match="mollify_eps"):
        build_problem(drift="sign", mollify_eps=eps)


def _smoothed_sign_problem(dim=1, eps=0.1):
    return build_problem(dim=dim, x0=np.zeros(dim), horizon=1.0,
                         drift="sign", terminal="tanh", driver="colehopf",
                         mollify_eps=eps)


def test_smoothed_sign_is_erf_to_four_ulp():
    eps = 0.1
    xs = np.concatenate([np.linspace(-2.0, 2.0, 400_001),
                         [1e300, -1e300, np.inf, -np.inf, -0.0, 0.0]])
    vals = _smoothed_sign_problem(eps=eps).drift(0.0, xs[:, None])[:, 0]
    exact = np.array([math.erf(x / (eps * math.sqrt(2.0))) for x in xs])
    ulps = np.abs(vals - exact) / np.spacing(np.abs(exact))
    assert ulps.max() <= 4.0
    assert np.signbit(vals[-2]) and not np.signbit(vals[-1])


def _erf_two_forms(x):
    """The reference: both rational forms on every (clipped) element,
    then selected."""
    x = np.clip(x, -6.0, 6.0)
    a = np.abs(x)
    z = x * x
    inner = (x * forward._horner(forward._ERF_T, z)
             / forward._horner(forward._ERF_U, z))
    outer = np.copysign(1.0 - np.exp(-z) * forward._horner(forward._ERFC_P, a)
                        / forward._horner(forward._ERFC_Q, a), x)
    return np.where(a < 1.0, inner, outer)


def _erf_probe_points():
    edges = np.array([1.0, 6.0])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0),
                            np.nextafter(edges, np.inf)])
    tiny = np.array([5e-324, 1e-310, np.finfo(float).tiny,
                     np.nextafter(np.finfo(float).tiny, 0.0)])
    spread = np.random.Generator(np.random.Philox(key=3)).uniform(
        -8.0, 8.0, size=2000)
    special = np.array([0.0, np.nan, np.inf, 1e300])
    half = np.concatenate([edges, tiny, special, np.linspace(0.0, 7.0, 701)])
    return np.concatenate([half, -half, spread])


@pytest.mark.parametrize("layout", ["flat", "column", "two-columns",
                                    "strided", "fortran", "column-view"])
def test_erf_skips_only_what_saturates_bit_for_bit(layout):
    # the gathered evaluation equals the two-form one on every bit: at
    # +-1 and +-6 and their neighbours, signed zeros, NaN, infinities,
    # subnormals, and for every input shape and layout
    x = _erf_probe_points()
    x = {"flat": x,
         "column": x[:, None],
         "two-columns": x.reshape(-1, 2),
         "strided": x[::3],
         "fortran": np.asfortranarray(x.reshape(-1, 2)),
         "column-view": x.reshape(-1, 2)[:, 1:]}[layout]
    got, ref = forward._erf(x), _erf_two_forms(x)
    assert got.shape == ref.shape == x.shape
    assert got.tobytes() == ref.tobytes()
    flat = np.ravel(got)
    assert np.array_equal(np.signbit(flat[np.ravel(x) == 0.0]),
                          np.signbit(np.ravel(x)[np.ravel(x) == 0.0]))
    assert np.all(np.isnan(flat[np.isnan(np.ravel(x))]))


def test_smoothed_sign_is_odd_and_bounded():
    drift = _smoothed_sign_problem().drift
    xs = np.linspace(-3.0, 3.0, 6001)[:, None]
    vals = drift(0.0, xs)
    assert np.abs(vals).max() <= 1.0
    assert np.array_equal(vals, -drift(0.0, -xs))


def test_smoothed_sign_nan_state_is_a_drift_error(small_grid):
    prob = _smoothed_sign_problem()
    inc = sample_brownian(small_grid, 3, 1, seed=2)
    with pytest.raises(DriftEvaluationError):
        euler_maruyama(prob, small_grid, inc,
                       x0=np.array([[0.0], [np.nan], [1.0]]))


def test_smoothed_sign_jacobian_is_the_derivative_of_its_value():
    # the flow differentiates the simulated drift: a central difference of
    # the value must reproduce the registered Jacobian
    eps, h = 0.1, 1e-6
    prob = _smoothed_sign_problem(eps=eps)
    xs = np.linspace(-1.0, 1.0, 2001)[:, None]
    fd = (prob.drift(0.0, xs + h) - prob.drift(0.0, xs - h)) / (2.0 * h)
    jac = prob.drift_gradient(0.0, xs)
    assert jac.shape == (xs.shape[0], 1, 1)
    peak = math.sqrt(2.0 / math.pi) / eps
    assert jac[1000, 0, 0] == peak  # x = 0
    assert np.abs(fd - jac[:, :, 0]).max() <= 1e-8 * peak


def test_smoothed_sign_jacobian_is_diagonal_in_two_dims():
    x = np.random.Generator(np.random.Philox(key=8)).normal(
        scale=0.2, size=(50, 2))
    jac = _smoothed_sign_problem(dim=2).drift_gradient(0.0, x)
    one_d = _smoothed_sign_problem().drift_gradient
    assert jac.shape == (50, 2, 2)
    assert np.all(jac[:, 0, 1] == 0.0) and np.all(jac[:, 1, 0] == 0.0)
    for k in range(2):
        assert np.array_equal(jac[:, k, k], one_d(0.0, x[:, k:k + 1])[:, 0, 0])


def test_build_problem_smooths_sign_exactly_and_others_by_quadrature():
    x = np.linspace(-0.5, 0.5, 11)[:, None]
    prob = _smoothed_sign_problem()
    exact, exact_jac = forward._smoothed_sign(0.1)
    assert prob.drift(0.0, np.zeros((1, 1)))[0, 0] == 0.0
    assert np.array_equal(prob.drift(0.0, x), exact(0.0, x))
    assert np.array_equal(prob.drift_gradient(0.0, x), exact_jac(0.0, x))
    rough = build_problem(drift="holder_sqrt", mollify_eps=0.1,
                          mollify_quad_points=16)
    value, jacobian = mollify_drift(make_drift("holder_sqrt")[0], 0.1,
                                    quad_points=16)
    assert np.array_equal(rough.drift(0.0, x), value(0.0, x))
    assert np.array_equal(rough.drift_gradient(0.0, x), jacobian(0.0, x))


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


@pytest.mark.parametrize("dim", [1, 2])
def test_flow_steps_are_bitwise_the_shared_factor(small_grid, dim):
    # the tangent inductions apply this same factor, so flow and tangent
    # multiply by identical floats
    prob = build_problem(dim=dim, x0=np.zeros(dim), horizon=1.0,
                         drift="sign", mollify_eps=0.1, terminal="tanh",
                         driver="zero")
    ens = simulate(prob, small_grid, 300, seed=4)
    flow = variational_flow(prob, ens)
    assert np.array_equal(flow.nabla_x[:, 0],
                          np.broadcast_to(np.eye(dim), (300, dim, dim)))
    for i in range(small_grid.n_steps):
        step = forward._step_factor(prob, ens, i)
        assert step.tobytes() == (
            np.eye(dim) + small_grid.deltas[i]
            * prob.drift_gradient(small_grid.times[i], ens.paths[:, i])
        ).tobytes()
        assert flow.nabla_x[:, i + 1].tobytes() == np.einsum(
            "mij,mjk->mik", step, flow.nabla_x[:, i]).tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_flow_inverse_is_the_inverted_flow_computed_once(small_grid, dim):
    # d = 1 divides instead of calling np.linalg.inv; d >= 2 still inverts
    prob = build_problem(dim=dim, x0=np.zeros(dim), horizon=1.0,
                         drift="sign", mollify_eps=0.1, terminal="tanh",
                         driver="zero")
    ens = simulate(prob, small_grid, 300, seed=4)
    flow = variational_flow(prob, ens)
    assert "nabla_x_inv" not in vars(flow)  # nothing inverted up front
    inv = flow.nabla_x_inv
    assert inv is flow.nabla_x_inv
    assert inv.tobytes() == np.linalg.inv(flow.nabla_x).tobytes()
    assert flow.product_deviation() < 1e-12


def test_flow_holds_little_beyond_its_field(traced_peak):
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0, drift="sign",
                         terminal="tanh", driver="zero", mollify_eps=0.1)
    ens = simulate(prob, TimeGrid.uniform(1.0, 64), 2000, seed=5)
    flow, peak = traced_peak(lambda: variational_flow(prob, ens))
    assert peak <= 1.2 * flow.nabla_x.nbytes


def test_one_by_one_reciprocal_is_bitwise_the_inverse():
    gen = np.random.Generator(np.random.Philox(key=9))
    step = 1.0 + 0.5 * gen.standard_normal((5000, 1, 1))
    assert (1.0 / step).tobytes() == np.linalg.inv(step).tobytes()


def test_flow_requires_gradient(small_grid):
    sign, _, bound = make_drift("sign")
    prob = FBSDEProblem(dim=1, x0=np.zeros(1), drift=sign,
                        terminal=lambda x: np.tanh(x[:, 0]),
                        driver=_zero_drift_problem(1).driver,
                        horizon=1.0, drift_bound=bound)
    ens = simulate(prob, small_grid, 5, seed=6)
    with pytest.raises(ValidationError):
        variational_flow(prob, ens)


# ---------------------------------------------------------------------------
# Zvonkin transform
# ---------------------------------------------------------------------------

def test_import_leaves_scipy_linalg_unloaded():
    # only the Zvonkin solve needs scipy.linalg, and loading it costs more
    # than the rest of the package
    src = os.path.dirname(os.path.dirname(forward.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, qfbsde; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_smoothed_sign_leaves_scipy_special_unloaded():
    # scipy.special adds about 19 MB of resident memory on import; the
    # closed-form erf is plain numpy
    src = os.path.dirname(os.path.dirname(forward.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, numpy as np, qfbsde\n"
            "p = qfbsde.build_problem(drift='sign', mollify_eps=0.1)\n"
            "x = np.linspace(-1.0, 1.0, 11)[:, None]\n"
            "p.drift(0.0, x); p.drift_gradient(0.0, x)\n"
            "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


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
    # distinct times that snap to one node (19 of 64) are degenerate too
    with pytest.raises(ValidationError, match="node 19"):
        continuity_diagnostic(prob, [(0.30, 0.301, [0.5], [0.5])],
                              n_steps=64, n_paths=50, seed=1)
    with pytest.raises(ValidationError):
        continuity_diagnostic(prob, [], n_steps=8, n_paths=50, seed=1)
    with pytest.raises(ValidationError):
        continuity_diagnostic(prob, [(0.0, 2.0, np.zeros(1), np.ones(1))],
                              n_steps=8, n_paths=50, seed=1)
    with pytest.raises(ValidationError):
        continuity_diagnostic(prob, [(0.0, 0.5, np.zeros(2), np.ones(2))],
                              n_steps=8, n_paths=50, seed=1)


def _probe_problem(kind):
    if kind == "quadrature":
        return build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                             drift="holder_sqrt", mollify_eps=0.1,
                             mollify_quad_points=16)
    return _smoothed_sign_problem(dim=2 if kind == "sign-2d" else 1)


def _probe_pairs(d, seed):
    """c08's generator: 20 pairs, then pairs read at node 0 and node N and
    repeated starts written over the first ones."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    pairs = []
    for _ in range(20):
        s, t = np.sort(rng.uniform(0.0, 1.0, size=2))
        x, y = rng.uniform(-2.0, 2.0, size=(2, d))
        pairs.append((float(s), float(t), x, y))
    s, t, x, y = pairs[0]
    pairs[0] = (0.0, t, x, y)                    # s at node 0
    pairs[1] = (0.01, 1.0) + pairs[1][2:]        # s rounds to 0, t at N
    pairs[2] = (0.0, 1.0) + pairs[2][2:]         # nodes 0 and N
    pairs[3] = pairs[3][:2] + (y, x)             # pair 0's starts, swapped
    pairs[4] = (0.25, 0.75, x, x)                # x == y, distinct times
    pairs[5] = pairs[6]                          # a repeated pair
    return pairs


def test_continuity_diagnostic_matches_full_grid_paths(monkeypatch):
    # one sweep advances every start up to the node it is read at; the
    # ratios equal the ones read off per-start full-grid paths bit for bit,
    # node 0 and node N included, in one block of pairs or in blocks of 3
    # (2000 // (2 * 300) pairs), for the closed-form smoothed sign in one
    # and two dimensions and for a quadrature-smoothed drift
    n_steps, n_paths, seed = 16, 300, 8
    grid = TimeGrid.uniform(1.0, n_steps)
    for kind in ("sign-1d", "sign-2d", "quadrature"):
        prob = _probe_problem(kind)
        pairs = _probe_pairs(prob.dim, seed)
        inc = sample_brownian(grid, n_paths, prob.dim, seed)
        ref = np.empty((2, len(pairs)))
        for idx, (s, t, x, y) in enumerate(pairs):
            i_s, i_t = round(s * n_steps), round(t * n_steps)
            xt = euler_maruyama(prob, grid, inc, x0=x).paths[:, i_t, :]
            ys = euler_maruyama(prob, grid, inc, x0=y).paths[:, i_s, :]
            sq = np.sum((xt - ys) ** 2, axis=1)
            denom = abs(grid.times[i_t] - grid.times[i_s]) + float(
                np.sum((x - y) ** 2))
            ref[:, idx] = (sq.mean() / denom,
                           sq.std(ddof=1) / math.sqrt(n_paths) / denom)
        for points in (forward._NODE_AVERAGE_POINTS, 2000):
            monkeypatch.setattr(forward, "_NODE_AVERAGE_POINTS", points)
            rep = continuity_diagnostic(prob, pairs, n_steps=n_steps,
                                        n_paths=n_paths, seed=seed)
            assert rep.ratios.tobytes() == ref[0].tobytes(), (kind, points)
            assert rep.std_errors.tobytes() == ref[1].tobytes(), (kind, points)
        monkeypatch.undo()
        assert rep.ratios[5] == rep.ratios[6]


def test_continuity_diagnostic_fails_loudly_on_one_bad_start():
    # the drift turns NaN from t = 0.25 on, and only above x = 50, which
    # one start of one pair reaches; the batched call still raises
    def drift(t, x):
        out = np.zeros_like(x)
        if t >= 0.25:
            out[x[:, 0] > 50.0] = np.nan
        return out

    prob = _zero_drift_problem(1).with_drift(drift)
    pairs = [(0.1, 0.9, [0.0], [0.5]), (0.2, 0.5, [100.0], [0.0])]
    with pytest.raises(DriftEvaluationError, match=r"t=0\.25$"):
        continuity_diagnostic(prob, pairs, n_steps=8, n_paths=50, seed=1)
    inc = sample_brownian(TimeGrid.uniform(1.0, 8), 50, 1, seed=1)
    with pytest.raises(DriftEvaluationError, match=r"t=0\.25$"):
        euler_maruyama(prob, TimeGrid.uniform(1.0, 8), inc, x0=[100.0])


def test_continuity_diagnostic_refuses_a_misshapen_drift():
    prob = _zero_drift_problem(1).with_drift(
        lambda t, x: np.zeros(x.shape[0]))
    with pytest.raises(ValidationError, match="drift returned shape"):
        continuity_diagnostic(prob, [(0.1, 0.9, [0.0], [0.5])],
                              n_steps=8, n_paths=50, seed=1)


@pytest.mark.parametrize("times, lam", [
    ([0.0, np.nan, 1.0], 10.0),
    ([0.0, 0.5, np.inf], 10.0),
    ([0.0, 0.5, 1.0], np.nan),
    ([0.0, 0.5, 1.0], np.inf),
], ids=["nan-time", "inf-time", "nan-lam", "inf-lam"])
def test_zvonkin_refuses_nonfinite_input(times, lam):
    drift, _, _ = make_drift("holder_sqrt")
    with pytest.raises(ValidationError):
        zvonkin_transform_1d(drift, lam, np.linspace(-2.0, 2.0, 9),
                             np.array(times))
