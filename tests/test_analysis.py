"""Analysis-layer tests: rate fits, Zhang statistics, truncation, stability."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qfbsde import backward
from qfbsde import (
    BackwardSolution,
    ConvergenceReport,
    DriverSpec,
    PicardDivergenceError,
    RegressionBasis,
    RunConfig,
    TimeGrid,
    ValidationError,
    build_problem,
    lsmc_solve,
    path_regularity_stat,
    rate_fit,
    simulate,
    stability_experiment,
    truncation_error_curve,
    zhang_zbar,
)


@pytest.fixture(scope="module")
def fine_solution(poly_basis):
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="zero", terminal="tanh", driver="colehopf")
    fine = TimeGrid.uniform(1.0, 32)
    rc = RunConfig(seed=11, n_paths=10000)
    ens = simulate(prob, fine, rc.n_paths, rc.seed)
    sol = lsmc_solve(prob, ens, poly_basis, 8, rc)
    return prob, ens, sol


# ---------------------------------------------------------------------------
# Reports and fits
# ---------------------------------------------------------------------------

def test_convergence_report_validation():
    a = np.array([1.0, 2.0, 4.0])
    e = np.array([0.4, 0.1, 0.0])  # exact zeros are legitimate plateaus
    s = np.zeros(3)
    rep = ConvergenceReport(experiment="x", abscissae=a, errors=e, stderrs=s,
                            slope=-2.0, r2=1.0)
    with pytest.raises(ValidationError):
        ConvergenceReport(experiment="x", abscissae=a[::-1], errors=e,
                          stderrs=s, slope=0.0, r2=0.0)
    with pytest.raises(ValidationError):
        ConvergenceReport(experiment="x", abscissae=np.array([0.0, 1.0, 2.0]),
                          errors=e, stderrs=s, slope=0.0, r2=0.0)
    with pytest.raises(ValidationError):
        ConvergenceReport(experiment="x", abscissae=a,
                          errors=np.array([0.1, -0.2, 0.3]), stderrs=s,
                          slope=0.0, r2=0.0)
    with pytest.raises(ValidationError):
        ConvergenceReport(experiment="x", abscissae=a, errors=e[:2],
                          stderrs=s, slope=0.0, r2=0.0)


def test_rate_fit_recovers_exact_power_law():
    a = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    e = 3.0 * a ** -2.0
    slope, intercept, r2 = rate_fit(a, e)
    assert abs(slope + 2.0) < 1e-12
    assert abs(intercept - math.log(3.0)) < 1e-12
    assert abs(r2 - 1.0) < 1e-12


def test_rate_fit_validation():
    with pytest.raises(ValidationError):
        rate_fit([1.0, 2.0], [0.1, 0.2])
    with pytest.raises(ValidationError):
        rate_fit([1.0, 2.0, 3.0], [0.1, 0.0, 0.2])
    with pytest.raises(ValidationError):
        rate_fit([-1.0, 2.0, 3.0], [0.1, 0.1, 0.2])
    with pytest.raises(ValidationError):
        rate_fit([1.0, 2.0, 3.0], [[0.1, 0.1, 0.2]])


# ---------------------------------------------------------------------------
# Zhang statistics
# ---------------------------------------------------------------------------

def test_zbar_never_beats_left_endpoint(fine_solution):
    # the block average is the L2-optimal block-constant approximation, so
    # its statistic sits below the left-endpoint one on every partition
    prob, ens, sol = fine_solution
    for k in (4, 8, 16):
        part = TimeGrid.uniform(1.0, k)
        left, left_se = path_regularity_stat(
            sol, part, 2.0, "left_endpoint", ensemble=ens)
        zbar, zbar_se = path_regularity_stat(
            sol, part, 2.0, "zbar", ensemble=ens)
        assert zbar <= left
        assert left > 0 and zbar > 0
        assert left_se > 0 and zbar_se > 0


def test_regularity_stat_decays_with_mesh(fine_solution):
    prob, ens, sol = fine_solution
    vals = [path_regularity_stat(sol, TimeGrid.uniform(1.0, k),
                                 ensemble=ens)[0]
            for k in (4, 8, 16)]
    assert vals[0] > vals[1] > vals[2]


def test_zhang_zbar_field_shape(fine_solution):
    prob, ens, sol = fine_solution
    part = TimeGrid.uniform(1.0, 8)
    zb = zhang_zbar(sol, part, ensemble=ens)
    assert zb.shape == (ens.n_paths, 8, 1)
    with pytest.raises(ValidationError):
        zhang_zbar(sol, part)  # no ensemble


def test_regularity_stat_validation(fine_solution):
    prob, ens, sol = fine_solution
    part = TimeGrid.uniform(1.0, 8)
    with pytest.raises(ValidationError):
        path_regularity_stat(sol, part, 1.0, ensemble=ens)
    with pytest.raises(ValidationError):
        path_regularity_stat(sol, part, 2.0, "midpoint", ensemble=ens)
    with pytest.raises(ValidationError):
        # 7 does not divide 32: partition nodes fall between fine nodes
        path_regularity_stat(sol, TimeGrid.uniform(1.0, 7), ensemble=ens)


# ---------------------------------------------------------------------------
# Truncation error curve
# ---------------------------------------------------------------------------

def test_truncation_curve_plateaus_at_exact_zero(quad_problem, poly_basis):
    grid = TimeGrid.uniform(1.0, 20)
    rc = RunConfig(seed=11, n_paths=10000)
    ens = simulate(quad_problem, grid, rc.n_paths, rc.seed)
    rep = truncation_error_curve(quad_problem, ens, poly_basis,
                                 [1, 2, 3, 4, 5, 6], rc)
    assert rep.metadata["stabilization_level"] == 3
    assert rep.metadata["reference_level"] == 6
    # below stabilization the truncation bites and the error decays ...
    assert rep.errors[0] > rep.errors[1] > 0.0
    # ... at and past it, the reference solve is bit-identical: exact zeros
    assert np.array_equal(rep.errors[2:], np.zeros(4))
    assert np.array_equal(np.asarray(rep.metadata["z_errors"])[2:],
                          np.zeros(4))
    # fit is nan: fewer than three strictly positive points survive
    assert math.isnan(rep.slope)


@pytest.mark.parametrize("basis", [
    RegressionBasis(kind="polynomial", degree=4),
    RegressionBasis(kind="piecewise_linear", bins=16, support=(-4.5, 4.5)),
], ids=["polynomial", "hat"])
@pytest.mark.parametrize("reference_level", [None, 7])
def test_truncation_curve_cache_equals_level_by_level_solves(
        quad_problem, basis, reference_level):
    grid = TimeGrid.uniform(1.0, 20)
    rc = RunConfig(seed=11, n_paths=4000)
    ens = simulate(quad_problem, grid, rc.n_paths, rc.seed)
    held = {lv: lsmc_solve(quad_problem, ens, basis, lv, rc) for lv in (2, 5)}
    cache = dict(held)
    rep = truncation_error_curve(quad_problem, ens, basis, [1, 2, 3, 4, 5, 6],
                                 rc, reference_level=reference_level,
                                 _cache=cache)
    assert all(cache[lv] is sol for lv, sol in held.items())
    ref = rep.metadata["reference_level"]
    assert {1, 2, 3, 4, 5, 6, ref} <= set(cache) <= {1, 2, 3, 4, 5, 6, 7, ref}
    for level, sol in cache.items():
        alone = lsmc_solve(quad_problem, ens, basis, level, rc)
        assert sol.truncation_n == level
        assert sol.y.tobytes() == alone.y.tobytes()
        assert sol.z.tobytes() == alone.z.tobytes()
        for key, value in alone.diagnostics.items():
            assert np.array_equal(sol.diagnostics[key], value), key
    # levels 1..2 bind and the top of the ladder has settled on this ensemble
    assert rep.errors[0] > 0.0 and rep.errors[-1] == 0.0


def test_truncation_ladder_builds_one_regressor_per_step(monkeypatch,
                                                         quad_problem,
                                                         poly_basis):
    # eleven levels, reference included, share each step's design and Gram
    built = []

    class Counting(backward._StepRegressor):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(backward, "_StepRegressor", Counting)
    grid = TimeGrid.uniform(1.0, 12)
    rc = RunConfig(seed=5, n_paths=2000)
    ens = simulate(quad_problem, grid, rc.n_paths, rc.seed)
    cache = {}
    truncation_error_curve(quad_problem, ens, poly_basis,
                           [1, 2, 3, 4, 5, 6, 7, 8, 16, 32], rc,
                           reference_level=64, _cache=cache)
    assert len(built) == grid.n_steps
    assert sorted(cache) == [1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 64]
    assert all(isinstance(s, BackwardSolution) for s in cache.values())


def test_truncation_curve_reference_shares_the_stable_fields(quad_problem,
                                                             poly_basis):
    # the reference 2 * 3 lies past the walk [1..5], so it is the stable
    # level's solve relabelled: the same read-only arrays, its own records
    grid = TimeGrid.uniform(1.0, 20)
    rc = RunConfig(seed=11, n_paths=10000)
    ens = simulate(quad_problem, grid, rc.n_paths, rc.seed)
    cache = {}
    rep = truncation_error_curve(quad_problem, ens, poly_basis, [1, 2, 3, 4],
                                 rc, _cache=cache)
    assert rep.metadata["stabilization_level"] == 3
    assert rep.metadata["reference_level"] == 6
    ref, stable = cache[6], cache[3]
    assert ref.truncation_n == 6
    assert ref.y is stable.y and ref.z is stable.z
    for key, value in stable.diagnostics.items():
        assert np.array_equal(ref.diagnostics[key], value), key
        if isinstance(value, np.ndarray):
            assert ref.diagnostics[key] is not value, key
    assert np.array_equal(rep.errors[2:], np.zeros(2))
    assert np.array_equal(rep.stderrs[2:], np.zeros(2))


def test_ladder_that_never_binds_holds_one_store(quad_problem, poly_basis,
                                                 traced_peak):
    # eight levels and the reference all lie above every |y| and |z| the
    # driver sees, so they share one y/z pair; one pair per level was 9x
    grid = TimeGrid.uniform(1.0, 40)
    rc = RunConfig(seed=11, n_paths=4000)
    ens = simulate(quad_problem, grid, rc.n_paths, rc.seed)
    cache = {}
    rep, peak = traced_peak(lambda: truncation_error_curve(
        quad_problem, ens, poly_basis, list(range(4, 12)), rc,
        reference_level=16, _cache=cache))
    ref = cache[16]
    assert ref.diagnostics["realized_driver_y_max"] <= 4
    assert ref.diagnostics["realized_driver_z_max"] <= 4
    assert sorted(cache) == list(range(4, 12)) + [16]
    assert all(s.y is ref.y and s.z is ref.z for s in cache.values())
    assert np.array_equal(rep.errors, np.zeros(8))
    assert np.array_equal(np.asarray(rep.metadata["z_errors"]), np.zeros(8))
    assert peak < 2 * (ref.y.nbytes + ref.z.nbytes)


def test_polynomial_truncation_curve_leaves_scipy_unloaded():
    # scipy.linalg alone raises resident memory from about 33 to 56 MB
    src = os.path.dirname(os.path.dirname(backward.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, qfbsde as q\n"
        "p = q.build_problem(drift='zero', terminal='tanh', driver='colehopf')\n"
        "rc = q.RunConfig(seed=1, n_paths=500)\n"
        "ens = q.simulate(p, q.TimeGrid.uniform(1.0, 4), 500, 1)\n"
        "b = q.RegressionBasis(kind='polynomial', degree=4)\n"
        "q.truncation_error_curve(p, ens, b, [1, 2, 3, 4], rc)\n"
        "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_regularity_statistics_and_storage_leave_scipy_unloaded(tmp_path):
    # the path of the fine-regularity benchmark: a polynomial solve, both
    # statistics and an artifact round trip; scipy would cost set-up time
    # and resident memory there
    src = os.path.dirname(os.path.dirname(backward.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, qfbsde as q\n"
        "from qfbsde import storage\n"
        "p = q.build_problem(drift='zero', terminal='tanh', driver='colehopf')\n"
        "rc = q.RunConfig(seed=1, n_paths=500)\n"
        "ens = q.simulate(p, q.TimeGrid.uniform(1.0, 8), 500, 1)\n"
        "b = q.RegressionBasis(kind='polynomial', degree=4)\n"
        "sol = q.lsmc_solve(p, ens, b, 8, rc)\n"
        "part = q.TimeGrid.uniform(1.0, 4)\n"
        "for mode in ('left_endpoint', 'zbar'):\n"
        "    q.path_regularity_stat(sol, part, mode=mode, ensemble=ens)\n"
        f"d = {str(tmp_path)!r}\n"
        "storage.save_ensemble(d + '/e.bin', ens)\n"
        "storage.save_solution(d + '/s.bin', sol)\n"
        "storage.load_ensemble(d + '/e.bin')\n"
        "storage.load_solution(d + '/s.bin')\n"
        "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_truncation_curve_raises_only_what_it_reaches(poly_basis):
    # levels 1, 2, 4 and 6 settle; 3 diverges at step 1 and 8, 12 at step 3
    prob = build_problem(drift="zero", terminal="tanh", driver="linear",
                         driver_params={"a": 8.0})
    rc = RunConfig(seed=1, n_paths=1000)
    ens = simulate(prob, TimeGrid.uniform(1.0, 4), rc.n_paths, rc.seed)
    basis = RegressionBasis(kind="polynomial", degree=3)
    with pytest.raises(PicardDivergenceError) as alone:
        lsmc_solve(prob, ens, basis, 8, rc)
    # the reference is solved first, so its divergence is what surfaces
    cache = {}
    with pytest.raises(PicardDivergenceError) as err:
        truncation_error_curve(prob, ens, basis, [1, 2, 4, 6], rc,
                               reference_level=8, _cache=cache)
    assert (str(err.value), err.value.step, err.value.residuals) == (
        str(alone.value), alone.value.step, alone.value.residuals)
    assert cache == {}
    # every level binds, so the walk ends without a stabilization level;
    # the candidate references 8 and 12 diverge but are never reached
    cache = {}
    with pytest.raises(ValidationError, match="no stabilization level"):
        truncation_error_curve(prob, ens, basis, [1, 2, 4, 6], rc,
                               _cache=cache)
    assert sorted(cache) == [1, 2, 4, 6]


def test_truncation_curve_validation(quad_problem, poly_basis, small_ensemble,
                                     small_config):
    with pytest.raises(ValidationError):
        truncation_error_curve(quad_problem, small_ensemble, poly_basis,
                               [], small_config)
    with pytest.raises(ValidationError):
        truncation_error_curve(quad_problem, small_ensemble, poly_basis,
                               [0, 2], small_config)
    # int() would run 2.5 as level 2, True as level 1 and "3" as level 3
    for bad in (2.5, 3.0, True, "3", np.float64(3.0)):
        with pytest.raises(ValidationError):
            truncation_error_curve(quad_problem, small_ensemble, poly_basis,
                                   [1, bad], small_config)
        with pytest.raises(ValidationError):
            truncation_error_curve(quad_problem, small_ensemble, poly_basis,
                                   [1, 2], small_config, reference_level=bad)


# ---------------------------------------------------------------------------
# Stability ladders
# ---------------------------------------------------------------------------

def test_stability_exact_law_for_flat_data():
    # degree-0 basis + flat terminal + zero driver: every solve collapses to
    # the exact mean, so scaling the terminal by 1/k (k a power of two)
    # leaves squared errors of exactly (1 - 1/k)^2 — and the exact law
    # dY = d(xi) makes each error equal its a-priori right-hand side
    flat = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="zero", terminal="constant", driver="zero")
    deg0 = RegressionBasis(kind="polynomial", degree=0)
    grid = TimeGrid.uniform(1.0, 10)
    rc = RunConfig(seed=7, n_paths=2000)
    ens = simulate(flat, grid, rc.n_paths, rc.seed)
    ladder = [
        (lambda x, _k=k: np.full(np.atleast_2d(x).shape[0], 1.0 / _k), None)
        for k in (2.0, 4.0, 8.0)
    ]
    rep = stability_experiment(flat, ladder, ens, deg0, rc)
    assert np.array_equal(rep.errors, np.array([0.25, 0.5625, 0.765625]))
    assert rep.metadata["apriori_rhs"] == [0.25, 0.5625, 0.765625]
    assert rep.metadata["error_to_rhs"] == [1.0, 1.0, 1.0]


def test_stability_driver_cap_ladder(quad_problem, poly_basis):
    grid = TimeGrid.uniform(1.0, 20)
    rc = RunConfig(seed=11, n_paths=10000)
    ens = simulate(quad_problem, grid, rc.n_paths, rc.seed)
    base = quad_problem.driver
    ladder = []
    for cap in (0.1, 0.3, 1.0):
        def capped(t, x, y, z, _g=base.g, _c=cap):
            return np.clip(_g(t, x, y, z), -_c, _c)

        ladder.append((None, DriverSpec(
            g=capped, lambda0=base.lambda0, lambda_y=base.lambda_y,
            lambda_z=base.lambda_z, f=base.f, name=f"cap{cap}")))
    rep = stability_experiment(quad_problem, ladder, ens, poly_basis, rc,
                               truncation=8)
    # loosening the cap brings the perturbed solutions back to the limit
    assert np.all(np.diff(rep.errors) < 0)
    assert np.all(rep.errors > 0)
    assert all(np.isfinite(r) and r > 0
               for r in rep.metadata["error_to_rhs"])
    assert len(rep.metadata["z_errors"]) == 3


def test_stability_empty_ladder_rejected(quad_problem, poly_basis,
                                         small_ensemble, small_config):
    with pytest.raises(ValidationError):
        stability_experiment(quad_problem, [], small_ensemble, poly_basis,
                             small_config)
