"""Acceptance gates: every shipped guarantee, at production size.

One test per gate, one ``pytest -v`` line per gate.  Unlike the module
suites these run the full-size configurations (10^5 paths and up), so the
whole file takes on the order of five minutes and is memory-conscious by
construction: builders that need multi-gigabyte ensembles keep them local
and hand back only derived scalars, and the one bundle that *is* shared
(the degree-4 reference solve reused by six gates) stays ~120 MB.

The representation identity (``test_c09``) is checked two ways.  On the
mollified rough drift both routes are estimated and must agree within 5
percent.  On the closed-form problem the tangent route is bitwise exact,
while the base solver's control is a least-squares regression; there the
gap between the two must be positive and within 1.5 times the
regression's predicted O(M^-1/2) sampling noise at three sample sizes.
README ("Representation identity on the closed-form problem") carries the
derivation.
"""

import math
import time

import numpy as np
import pytest

from qfbsde import (
    UNTRUNCATED,
    DerivativeSolution,
    RegressionBasis,
    RunConfig,
    TimeGrid,
    apriori_check,
    build_problem,
    continuity_diagnostic,
    domination_oracle,
    estimate_bmo,
    fd_gradient,
    lsmc_solve,
    make_drift,
    path_regularity_stat,
    rate_fit,
    representation_check,
    rho_truncate,
    rho_truncate_deriv,
    simulate,
    solve_gradient_bsde,
    solve_malliavin_bsde,
    transform_tables,
    transform_residual,
    truncation_error_curve,
    upsilon1,
    upsilon2,
    variational_flow,
    zvonkin_transform_1d,
)

pytestmark = pytest.mark.acceptance

SEED = 20260816

# The piecewise-linear audit basis: hat-function fits are convex
# combinations of their targets, so fitted values cannot escape the range
# of the data.  Sup-norm audits use this; a global polynomial overshoots
# the unit sup in the thin-data tails (measured sup|Y| up to 1.8 at 10^5
# paths with degree 4) for reasons that have nothing to do with the
# solution itself.
AUDIT_BASIS = RegressionBasis(kind="piecewise_linear", bins=16,
                              support=(-4.5, 4.5))


@pytest.fixture(scope="module")
def lab():
    """Cross-test store.  Builders below fill it lazily, in file order."""
    return {}


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------

def _reference_bundle(lab):
    """Drift-free quadratic problem at N=50, M=1e5: the workhorse solve.

    Shared by the oracle match, the bound audit, the truncation curve,
    the gradient cross-check and the BMO gate.
    """
    if "ref" not in lab:
        problem = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                                drift="zero", terminal="tanh",
                                driver="colehopf")
        grid = TimeGrid.uniform(1.0, 50)
        rc = RunConfig(seed=SEED, n_paths=100_000)
        basis = RegressionBasis(kind="polynomial", degree=4)
        t0 = time.perf_counter()
        ens = simulate(problem, grid, rc.n_paths, rc.seed)
        sol = lsmc_solve(problem, ens, basis, 8, rc)
        oracle = domination_oracle(problem, quad_points=64)
        seconds = time.perf_counter() - t0
        lab["ref"] = dict(problem=problem, grid=grid, rc=rc, basis=basis,
                          ensemble=ens, solution=sol, oracle=oracle,
                          seconds=seconds)
    return lab["ref"]


def _truncation_curve(lab):
    """Level-by-level solves on the reference ensemble; cache freed after.

    Keeps the (small) report plus the bitwise verdict comparing the
    stabilization-level solution against the one five levels higher.
    """
    if "trunc" not in lab:
        ref = _reference_bundle(lab)
        cache = {}
        report = truncation_error_curve(
            ref["problem"], ref["ensemble"], ref["basis"],
            list(range(1, 9)), ref["rc"], _cache=cache)
        stab = report.metadata["stabilization_level"]
        twin = lsmc_solve(ref["problem"], ref["ensemble"], ref["basis"],
                          stab + 5, ref["rc"])
        bit_y = bool(np.array_equal(cache[stab].y, twin.y))
        bit_z = bool(np.array_equal(cache[stab].z, twin.z))
        cache.clear()
        lab["trunc"] = dict(report=report, stab=stab,
                            bit_y=bit_y, bit_z=bit_z)
    return lab["trunc"]


def _regularity_stats(lab):
    """Fine solve (N=384, M=2e5) plus per-partition statistics.

    The ~3 GB of arrays stay local to this builder; only the statistic
    table, the fitted rate and the wall time survive.
    """
    if "reg" not in lab:
        problem = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                                drift="zero", terminal="tanh",
                                driver="colehopf")
        grid = TimeGrid.uniform(1.0, 384)
        rc = RunConfig(seed=SEED, n_paths=200_000)
        basis = RegressionBasis(kind="polynomial", degree=4)
        t0 = time.perf_counter()
        ens = simulate(problem, grid, rc.n_paths, rc.seed)
        sol = lsmc_solve(problem, ens, basis, 8, rc)
        rows = []
        for k in (128, 64, 32, 16, 8):
            part = TimeGrid.uniform(1.0, k)
            left, se = path_regularity_stat(sol, part, 2.0, "left_endpoint",
                                            ensemble=ens)
            zbar, _ = path_regularity_stat(sol, part, 2.0, "zbar",
                                           ensemble=ens)
            rows.append((k, left, se, zbar))
        seconds = time.perf_counter() - t0
        widths = [1.0 / k for k, *_ in rows]
        lefts = [left for _, left, _, _ in rows]
        slope, _, r2 = rate_fit(widths, lefts)
        lab["reg"] = dict(rows=rows, slope=slope, r2=r2, seconds=seconds)
    return lab["reg"]


# ---------------------------------------------------------------------------
# The gates
# ---------------------------------------------------------------------------

def test_c01_lsmc_matches_transform_oracle(lab):
    """Y_0 from the degree-4 solve sits within 0.02 of the quadrature
    oracle, and the whole run (paths + solve + oracle) stays under 60 s."""
    ref = _reference_bundle(lab)
    gap = abs(ref["solution"].y0 - ref["oracle"].y0)
    assert ref["oracle"].stderr == 0.0
    assert gap <= 0.02, f"|Y0_lsmc - Y0_oracle| = {gap:.6f} > 0.02"
    assert ref["seconds"] <= 60.0, f"run took {ref['seconds']:.1f} s > 60 s"


def test_c02_linear_driver_matches_exponential(lab):
    """Driver -y with unit terminal: Y_0 must be e^-1 within 2 percent."""
    ref = _reference_bundle(lab)
    problem = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                            drift="zero", terminal="constant",
                            driver="linear")
    ens = simulate(problem, ref["grid"], ref["rc"].n_paths, ref["rc"].seed)
    sol = lsmc_solve(problem, ens, ref["basis"], 8, ref["rc"])
    rel = abs(sol.y0 - math.exp(-1.0)) / math.exp(-1.0)
    assert rel <= 0.02, f"relative gap to exp(-1) is {rel:.4f} > 0.02"


def test_c03_value_stays_inside_apriori_budget(lab):
    """Sup-node |Y| <= 1.01 * Upsilon^(1) on the quadratic-driver problem
    and on its driver-free variant, with the budget exactly ||phi||_inf."""
    ref = _reference_bundle(lab)
    flat = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                         drift="zero", terminal="tanh", driver="zero")
    for problem in (ref["problem"], flat):
        sol = lsmc_solve(problem, ref["ensemble"], AUDIT_BASIS, 8, ref["rc"])
        audit = apriori_check(sol, ref["ensemble"], problem)
        assert audit.y_bound == 1.0
        assert audit.y_ok, (
            f"{problem.label}: sup-node |Y| = {audit.y_observed:.6f} "
            f"> 1.01 * {audit.y_bound}")


def test_c04_truncation_stabilizes_bitwise(lab):
    """Past the stabilization level the clamp is provably inactive: the
    solve at that level equals the one five levels up float-for-float,
    and the error curve reports exact zeros from there on."""
    tr = _truncation_curve(lab)
    assert isinstance(tr["stab"], int) and tr["stab"] >= 1
    assert tr["bit_y"], "Y fields differ between level n and n+5"
    assert tr["bit_z"], "Z fields differ between level n and n+5"
    rep = tr["report"]
    settled = rep.abscissae >= tr["stab"]
    assert np.all(rep.errors[settled] == 0.0), (
        f"nonzero value errors at levels {rep.abscissae[settled]}: "
        f"{rep.errors[settled]}")
    z_errors = np.asarray(rep.metadata["z_errors"])
    assert np.all(z_errors[settled] == 0.0)


def test_c05_truncation_error_decays_monotonically(lab):
    """Error at level 8 is at most a tenth of level 1, and the curve is
    monotone to within twice the Monte Carlo standard error."""
    tr = _truncation_curve(lab)
    rep = tr["report"]
    assert rep.errors[0] > 0.0
    ratio = rep.errors[-1] / rep.errors[0]
    assert ratio <= 0.1, f"error(8)/error(1) = {ratio:.4f} > 0.1"
    for i in range(len(rep.errors) - 1):
        slack = 2.0 * math.hypot(rep.stderrs[i], rep.stderrs[i + 1])
        assert rep.errors[i + 1] <= rep.errors[i] + slack, (
            f"errors rise from level {int(rep.abscissae[i])} to "
            f"{int(rep.abscissae[i + 1])} beyond 2 standard errors")


def test_c06_control_regularity_rate_is_first_order(lab):
    """The p=2 path-regularity statistic decays like the mesh width:
    log-log slope in [0.7, 1.3] with R^2 >= 0.9, within ten minutes."""
    reg = _regularity_stats(lab)
    assert 0.7 <= reg["slope"] <= 1.3, f"slope = {reg['slope']:.3f}"
    assert reg["r2"] >= 0.9, f"R^2 = {reg['r2']:.4f}"
    assert reg["seconds"] <= 600.0, f"run took {reg['seconds']:.0f} s"


def test_c07_block_average_beats_left_endpoint(lab):
    """On every partition the conditional-block-average statistic is at
    most the left-endpoint one — in-sample projection optimality, so the
    comparison is exact, not a tolerance."""
    reg = _regularity_stats(lab)
    for k, left, _, zbar in reg["rows"]:
        assert zbar <= left, (
            f"partition {k}: zbar stat {zbar:.6g} > left stat {left:.6g}")


def test_c08_rough_drift_flow_continuity_is_grid_stable():
    """Two-point moment ratios for the mollified sign drift move by at
    most 20 percent when the simulation grid doubles from 64 to 128."""
    rng = np.random.Generator(np.random.Philox(key=SEED))
    pairs = []
    for _ in range(100):
        s, t = np.sort(rng.uniform(0.0, 1.0, size=2))
        x, y = rng.uniform(-2.0, 2.0, size=2)
        pairs.append((float(s), float(t), np.array([x]), np.array([y])))
    problem = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                            drift="sign", terminal="tanh",
                            driver="colehopf", mollify_eps=0.1)
    coarse = continuity_diagnostic(problem, pairs, n_steps=64,
                                   n_paths=4000, seed=SEED)
    fine = continuity_diagnostic(problem, pairs, n_steps=128,
                                 n_paths=4000, seed=SEED)
    change = abs(fine.max_ratio - coarse.max_ratio) / coarse.max_ratio
    assert change <= 0.20, (
        f"max ratio moved {100 * change:.1f}% (={coarse.max_ratio:.3f} -> "
        f"{fine.max_ratio:.3f}) on grid doubling")


def test_c09_control_equals_gradient_representation():
    """Z (nabla X) = nabla Y: within 5 percent on the mollified sign
    drift, and up to the regression's sampling noise on the closed-form
    case.

    On the closed-form problem nabla X == nabla Y == 1 bitwise, so the
    gap is the base solver's own error mean_m |Z_i - 1|.  Z_i is the fit of
    (Y_next - E[Y_next | X]) dB / dt ~ dB^2 / dt, a target with mean 1 and
    variance 2, on K basis columns; its fitted values miss 1 by
    sqrt(2K/M) in root mean square, and by sqrt(2/pi) of that in mean
    absolute value for Gaussian errors.  The step-averaged gap times
    sqrt(M) is thus predicted as sqrt(4K/pi), about 2.52 for K = 5, and
    must lie in (0, 1.5 times that] at M = 5000, 20000 and 80000.
    """
    # Rough clause: mollified sign drift, fine grid, knots clustered at
    # the mollification scale where the drift actually varies.
    mags = (0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.45, 0.65, 0.9,
            1.2, 1.6, 2.1, 2.7, 3.5, 4.5)
    knots = tuple(sorted({s * m for m in mags for s in (-1.0, 1.0)}))
    rough_basis = RegressionBasis(kind="piecewise_linear", knots=knots)
    problem = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                            drift="sign", terminal="tanh",
                            driver="colehopf", mollify_eps=0.1)
    grid = TimeGrid.uniform(1.0, 256)
    rc = RunConfig(seed=SEED, n_paths=100_000)
    anchors = (0, 128, 255)
    ens = simulate(problem, grid, rc.n_paths, rc.seed)
    base = lsmc_solve(problem, ens, rough_basis, 8, rc)
    flow = variational_flow(problem, ens)
    ny, nz = solve_gradient_bsde(problem, ens, flow, base, rough_basis, rc)
    dy, dz = solve_malliavin_bsde(problem, ens, flow, base, anchors,
                                  rough_basis, rc)
    deriv = DerivativeSolution(anchors=anchors, nabla_y=ny, nabla_z=nz,
                               dy=dy, dz=dz)
    rep = representation_check(base, deriv, flow)
    stat = rep.max_deviation("control_gradient")
    assert stat <= 0.05, f"mean relative deviation {stat:.4f} > 0.05"
    del ens, base, flow, ny, nz, dy, dz, deriv, rep

    # Closed-form clause: zero drift, coordinate terminal, zero driver.
    trivial = build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                            drift="zero", terminal="coordinate",
                            driver="zero")
    grid = TimeGrid.uniform(1.0, 20)
    basis = RegressionBasis(kind="polynomial", degree=4)
    # sqrt(4K/pi), derived in the docstring
    predicted = math.sqrt(4.0 * basis.n_features(trivial.dim) / math.pi)
    for n_paths in (5000, 20000, 80000):
        rc = RunConfig(seed=SEED, n_paths=n_paths)
        ens = simulate(trivial, grid, rc.n_paths, rc.seed)
        base = lsmc_solve(trivial, ens, basis, UNTRUNCATED, rc)
        flow = variational_flow(trivial, ens)
        ny, nz = solve_gradient_bsde(trivial, ens, flow, base, basis, rc)
        dy, dz = solve_malliavin_bsde(trivial, ens, flow, base, (0, 10),
                                      basis, rc)
        deriv = DerivativeSolution(anchors=(0, 10), nabla_y=ny, nabla_z=nz,
                                   dy=dy, dz=dz)
        rep = representation_check(base, deriv, flow)
        # The tangent route is exact here, bitwise: nabla_Y == 1, nabla_Z == 0,
        # and both Malliavin identities hold at literal zero.
        assert np.all(ny == 1.0) and np.all(nz == 0.0)
        assert rep.max_deviation("malliavin_value") == 0.0
        assert rep.max_deviation("malliavin_control") == 0.0
        # The control is a regression output, so its gap to the exact
        # gradient is sampling noise of the predicted size; a bias b would
        # add about b * sqrt(M).  An exact zero would mean Z had been
        # defined through nabla_Y, merging the two routes under audit.
        profile = rep.identities["control_gradient"]["profile"]
        scaled = float(profile.mean()) * math.sqrt(n_paths)
        assert 0.0 < scaled <= 1.5 * predicted, (
            f"M={n_paths}: mean control-vs-gradient gap x sqrt(M) is "
            f"{scaled:.3f}, predicted {predicted:.3f} from regression "
            f"sampling noise (accepted range (0, {1.5 * predicted:.3f}])")


def test_c10_gradient_bsde_matches_finite_differences(lab):
    """nabla Y_0 from the tangent solve agrees with the common-random-
    number central difference (h = 1e-2) within 5 percent."""
    ref = _reference_bundle(lab)
    flow = variational_flow(ref["problem"], ref["ensemble"])
    ny, _ = solve_gradient_bsde(ref["problem"], ref["ensemble"], flow,
                                ref["solution"], ref["basis"], ref["rc"])
    grad = float(ny[:, 0, :].mean())
    fd = fd_gradient(ref["problem"], 1e-2, ref["rc"], grid=ref["grid"],
                     basis=ref["basis"], truncation=8)
    rel = abs(grad - float(fd.value[0])) / abs(float(fd.value[0]))
    assert rel <= 0.05, (
        f"tangent {grad:.5f} vs central difference {float(fd.value[0]):.5f} "
        f"(rel {rel:.4f})")


def test_c11_transform_ode_tables_solve_the_ode():
    """With f1(u) = 1 + u and 4096 steps the tabulated map satisfies
    0.5 v'' - f1 v' = 0.5 to 1e-6 at every interior node."""
    tables = transform_tables(lambda u: 1.0 + u, 0.5, 4096)
    residual = float(transform_residual(tables).max())
    assert residual <= 1e-6, f"max interior residual {residual:.2e} > 1e-6"


def test_c12_zvonkin_transform_removes_the_drift():
    """At lambda = 10 on a 512 x 256 space-time grid the square-root
    drift's transform has PDE residual <= 1e-4 and stays a
    diffeomorphism (1 + u_x > 0 everywhere)."""
    drift, _, _ = make_drift("holder_sqrt")
    zt = zvonkin_transform_1d(drift, 10.0, np.linspace(-2.0, 2.0, 512),
                              np.linspace(0.0, 1.0, 256))
    assert zt.residual() <= 1e-4, f"PDE residual {zt.residual():.2e}"
    assert zt.diffeomorphism_margin() > 0.0


def test_c13_truncation_map_invariants_hold_exhaustively():
    """For every level 1..20 on a 10^4-point grid: identity inside
    [-n, n] (exact), |rho| <= min(|x|, n+1), derivative in [0, 1],
    and oddness — all bitwise where stated."""
    xs = np.linspace(-30.0, 30.0, 10_000)
    for n in range(1, 21):
        r = rho_truncate(xs, n)
        dr = rho_truncate_deriv(xs, n)
        inner = np.abs(xs) <= n
        assert np.array_equal(r[inner], xs[inner]), f"n={n}: not identity"
        assert np.all(np.abs(r) <= n + 1.0), f"n={n}: cap violated"
        assert np.all(np.abs(r) <= np.abs(xs)), f"n={n}: |rho| > |x|"
        assert np.all((dr >= 0.0) & (dr <= 1.0)), f"n={n}: derivative range"
        assert np.array_equal(r, -rho_truncate(-xs, n)), f"n={n}: not odd"


def test_c14_bmo_estimate_respects_closed_form_budget(lab):
    """The regression-based tail-energy estimate stays below the
    closed-form Upsilon^(2) budget for the quadratic driver."""
    ref = _reference_bundle(lab)
    driver = ref["problem"].driver
    u1 = upsilon1(1.0, 0.0, 0.0, 1.0)
    assert u1 == 1.0
    budget = upsilon2(u1, 0.0, 0.0, 1.0, 1.0, driver.f)
    observed = estimate_bmo(ref["solution"], ref["ensemble"])
    assert observed <= budget, f"BMO {observed:.4f} > budget {budget:.4f}"
