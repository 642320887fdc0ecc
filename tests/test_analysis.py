"""Analysis-layer tests: rate fits, Zhang statistics, truncation, stability."""

import math

import numpy as np
import pytest

from qfbsde import (
    ConvergenceReport,
    DriverSpec,
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
    y_increment_stat,
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
                            slope=-2.0, intercept=0.0, r2=1.0)
    assert rep.as_dict()["experiment"] == "x"
    with pytest.raises(ValidationError):
        ConvergenceReport(experiment="x", abscissae=a[::-1], errors=e,
                          stderrs=s, slope=0.0, intercept=0.0, r2=0.0)
    with pytest.raises(ValidationError):
        ConvergenceReport(experiment="x", abscissae=np.array([0.0, 1.0, 2.0]),
                          errors=e, stderrs=s, slope=0.0, intercept=0.0,
                          r2=0.0)
    with pytest.raises(ValidationError):
        ConvergenceReport(experiment="x", abscissae=a,
                          errors=np.array([0.1, -0.2, 0.3]), stderrs=s,
                          slope=0.0, intercept=0.0, r2=0.0)
    with pytest.raises(ValidationError):
        ConvergenceReport(experiment="x", abscissae=a, errors=e[:2],
                          stderrs=s, slope=0.0, intercept=0.0, r2=0.0)


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


def test_y_increment_ratios(fine_solution):
    prob, ens, sol = fine_solution
    rows = y_increment_stat(sol, 2.0, lags=[1 / 32, 2 / 32, 4 / 32])
    assert [r["lag"] for r in rows] == [1 / 32, 2 / 32, 4 / 32]
    ratios = [r["ratio"] for r in rows]
    assert all(r > 0 for r in ratios)
    # half-order modulus: the ratio stays within a factor 2 across lags
    assert max(ratios) / min(ratios) < 2.0
    with pytest.raises(ValidationError):
        y_increment_stat(sol, 2.0, lags=[1 / 64])
    with pytest.raises(ValidationError):
        y_increment_stat(sol, 2.0, lags=[2.0])
    with pytest.raises(ValidationError):
        y_increment_stat(sol, 1.5, lags=[1 / 32])


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


def test_truncation_curve_oracle_reference(quad_problem, poly_basis):
    grid = TimeGrid.uniform(1.0, 10)
    rc = RunConfig(seed=3, n_paths=2000)
    ens = simulate(quad_problem, grid, rc.n_paths, rc.seed)
    field = np.zeros((2000, 11))
    with pytest.raises(ValidationError):
        truncation_error_curve(quad_problem, ens, poly_basis, [2, 4], rc,
                               reference="oracle")
    with pytest.raises(ValidationError):
        truncation_error_curve(quad_problem, ens, poly_basis, [2, 4], rc,
                               reference="oracle", oracle_field=field[:, :5])
    rep = truncation_error_curve(quad_problem, ens, poly_basis, [2, 4], rc,
                                 reference="oracle", oracle_field=field)
    # against an all-zero "oracle" the error is just the solution magnitude
    assert np.all(rep.errors > 0)
    assert "z_errors" not in rep.metadata


def test_truncation_curve_validation(quad_problem, poly_basis, small_ensemble,
                                     small_config):
    with pytest.raises(ValidationError):
        truncation_error_curve(quad_problem, small_ensemble, poly_basis,
                               [], small_config)
    with pytest.raises(ValidationError):
        truncation_error_curve(quad_problem, small_ensemble, poly_basis,
                               [0, 2], small_config)
    with pytest.raises(ValidationError):
        truncation_error_curve(quad_problem, small_ensemble, poly_basis,
                               [2, 4], small_config, reference="median")


# ---------------------------------------------------------------------------
# Stability ladders
# ---------------------------------------------------------------------------

def test_stability_exact_law_for_flat_data():
    # degree-0 basis + flat terminal + zero driver: every solve collapses to
    # the exact mean, so scaling the terminal by 1/k (k a power of two)
    # leaves errors of exactly 1 - 1/k
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
    assert np.array_equal(rep.errors, np.array([0.5, 0.75, 0.875]))
    assert rep.metadata["apriori_rhs"] == [0.25, 0.5625, 0.765625]


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
