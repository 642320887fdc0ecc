"""Convergence and regularity experiments on top of the backward solver.

The statistics here are the quantitative side of the package: the path
regularity modulus of the control (whose decay in the mesh is the rate that
makes time discretization work), the block-average projection that is
provably the best piecewise-constant approximation of ``Z``, truncation
error curves with their exact stabilization plateau, and log-log rate fits.

A note on exactness: the projection inequality (block-average statistic
below left-endpoint statistic) is asserted per run, not on average.  The
block averages are therefore fitted *without* ridge — the pure least-squares
projection is what the minimality argument is about — and constant targets
short-circuit to themselves inside the regression layer, so degenerate
fields do not acquire round-off noise that could flip the comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .core import (
    DriverSpec,
    FBSDEProblem,
    RunConfig,
    TimeGrid,
    UNTRUNCATED,
    ValidationError,
    _nested_indices,
)
from .backward import (
    BackwardSolution,
    RegressionBasis,
    _StepRegressor,
    _solve_cached,
    lsmc_solve,
    stabilization_level,
    NOT_FOUND,
)
from .forward import PathEnsemble

__all__ = [
    "ConvergenceReport",
    "path_regularity_stat",
    "rate_fit",
    "stability_experiment",
    "truncation_error_curve",
    "y_increment_stat",
    "zhang_zbar",
]


# ---------------------------------------------------------------------------
# Report container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceReport:
    """Error curve with its log-log fit and experiment metadata.

    ``errors`` may contain exact zeros (truncation curves plateau at zero
    once the level stops binding); the fit is computed on the strictly
    positive entries and is ``nan`` when fewer than three remain.
    """

    experiment: str
    abscissae: np.ndarray
    errors: np.ndarray
    stderrs: np.ndarray
    slope: float
    intercept: float
    r2: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        a = np.asarray(self.abscissae, dtype=float)
        e = np.asarray(self.errors, dtype=float)
        s = np.asarray(self.stderrs, dtype=float)
        if a.ndim != 1 or np.any(a <= 0.0):
            raise ValidationError("abscissae must be positive")
        if np.any(np.diff(a) <= 0.0):
            raise ValidationError("abscissae must be strictly increasing")
        if e.shape != a.shape or s.shape != a.shape:
            raise ValidationError("errors/stderrs must match the abscissae")
        if np.any(e < 0.0) or not np.all(np.isfinite(e)):
            raise ValidationError("errors must be finite and nonnegative")
        object.__setattr__(self, "abscissae", a)
        object.__setattr__(self, "errors", e)
        object.__setattr__(self, "stderrs", s)

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "abscissae": self.abscissae.tolist(),
            "errors": self.errors.tolist(),
            "stderrs": self.stderrs.tolist(),
            "slope": self.slope,
            "intercept": self.intercept,
            "r2": self.r2,
            **{k: v for k, v in self.metadata.items()},
        }


def rate_fit(abscissae, errors) -> tuple[float, float, float]:
    """Ordinary least squares on ``(log a, log e)``.

    Returns ``(slope, intercept, r2)``.  Requires at least three strictly
    positive points — rates fitted through two points are not rates.
    """
    a = np.asarray(abscissae, dtype=float)
    e = np.asarray(errors, dtype=float)
    if a.shape != e.shape or a.ndim != 1:
        raise ValidationError("abscissae and errors must be 1-d and aligned")
    if a.size < 3:
        raise ValidationError("rate fit needs at least 3 points")
    if np.any(a <= 0.0) or np.any(e <= 0.0):
        raise ValidationError("rate fit needs strictly positive data")
    la, le = np.log(a), np.log(e)
    slope, intercept = np.polyfit(la, le, 1)
    fitted = slope * la + intercept
    ss_res = float(np.sum((le - fitted) ** 2))
    ss_tot = float(np.sum((le - le.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


# ---------------------------------------------------------------------------
# Zhang statistics
# ---------------------------------------------------------------------------

def zhang_zbar(
    base: BackwardSolution,
    partition: TimeGrid,
    basis: RegressionBasis | None = None,
    *,
    ensemble: PathEnsemble | None = None,
) -> np.ndarray:
    """Best block-constant approximation of the control, per coarse interval.

    For each interval of ``partition`` the dt-weighted time average of the
    fine-grid ``Z`` is regressed on the state at the interval's left node;
    the fitted values are the conditional block averages.  The fit is pure
    least squares (no ridge): what is asserted downstream is its in-sample
    optimality over the span, and a penalty would trade exactly that away.

    ``ensemble`` supplies the regression states and is required.  Returns
    an ``(M, N_coarse, d)`` field.
    """
    if basis is None:
        basis = base.basis
    basis = replace(basis, ridge=0.0)
    if ensemble is None:
        raise ValidationError("zhang_zbar needs the solution's ensemble")
    x = ensemble.paths
    idx = _nested_indices(base.grid, partition)
    z = base.z
    deltas = base.grid.deltas
    m, _, d = z.shape
    out = np.empty((m, partition.n_steps, d))
    for k in range(partition.n_steps):
        lo, hi = idx[k], idx[k + 1]
        w = deltas[lo:hi]
        target = np.einsum("mjd,j->md", z[:, lo:hi, :], w) / w.sum()
        out[:, k, :] = _StepRegressor(basis, x[:, lo, :]).project(target)
    return out


def path_regularity_stat(
    base: BackwardSolution,
    partition: TimeGrid,
    p: float = 2.0,
    mode: str = "left_endpoint",
    *,
    basis: RegressionBasis | None = None,
    ensemble: PathEnsemble | None = None,
) -> tuple[float, float]:
    """Monte Carlo estimate of the control's path-regularity modulus.

    Computes ``sum_k E[(sum_{j in k} |Z_j - ref_k|^2 dt_j)^{p/2}]`` over the
    coarse intervals, where ``ref_k`` is the fine solution at the interval's
    left node (``mode="left_endpoint"``) or the conditional block average
    from :func:`zhang_zbar` (``mode="zbar"``).  Returns the estimate and the
    standard error of the per-path statistic.
    """
    if p < 2.0:
        raise ValidationError("p must be at least 2")
    if mode not in ("left_endpoint", "zbar"):
        raise ValidationError(f"unknown mode {mode!r}")
    idx = _nested_indices(base.grid, partition)
    z = base.z
    deltas = base.grid.deltas
    m = z.shape[0]
    if mode == "zbar":
        zb = zhang_zbar(base, partition, basis, ensemble=ensemble)
    per_path = np.zeros(m)
    for k in range(partition.n_steps):
        lo, hi = idx[k], idx[k + 1]
        ref = z[:, lo, :] if mode == "left_endpoint" else zb[:, k, :]
        block = np.zeros(m)
        for j in range(lo, hi):
            diff = z[:, j, :] - ref
            block += np.einsum("md,md->m", diff, diff) * deltas[j]
        per_path += block ** (0.5 * p)
    value = float(per_path.mean())
    stderr = float(per_path.std(ddof=1) / math.sqrt(m))
    return value, stderr


def y_increment_stat(
    base: BackwardSolution,
    p: float = 2.0,
    lags: Sequence[float] = (),
) -> list[dict]:
    """Increment modulus of the value process per lag window.

    For each lag the estimator averages, over all window positions and
    paths, ``sup_{s <= r <= s+lag} |Y_r - Y_s|^p``, and reports the ratio to
    ``lag^{p/2}`` — flat ratios across lags are the half-order modulus.
    """
    if p < 2.0:
        raise ValidationError("p must be at least 2")
    deltas = base.grid.deltas
    mesh = float(deltas.max())
    if np.abs(deltas - deltas[0]).max() > 1e-12 * mesh:
        raise ValidationError("increment statistics expect a uniform grid")
    dt = float(deltas[0])
    y = base.y
    n = y.shape[1] - 1
    rows = []
    for lag in lags:
        w = int(round(lag / dt))
        if w < 1 or w > n:
            raise ValidationError(f"lag {lag} does not fit the grid")
        sup_p = np.zeros((y.shape[0], n - w + 1))
        for off in range(1, w + 1):
            gap = np.abs(y[:, off:off + n - w + 1] - y[:, : n - w + 1])
            np.maximum(sup_p, gap, out=sup_p)
        val = float((sup_p ** p).mean())
        rows.append({
            "lag": float(w * dt),
            "value": val,
            "ratio": val / (w * dt) ** (0.5 * p),
        })
    return rows


# ---------------------------------------------------------------------------
# Truncation error curves
# ---------------------------------------------------------------------------

def truncation_error_curve(
    problem: FBSDEProblem,
    ensemble: PathEnsemble,
    basis: RegressionBasis,
    n_list: Sequence[int],
    config: RunConfig,
    *,
    reference: str = "large_n",
    reference_level: int | None = None,
    oracle_field: np.ndarray | None = None,
    _cache: dict | None = None,
) -> ConvergenceReport:
    """Error of the level-``n`` solutions against a reference solve.

    ``reference="large_n"`` (default) solves once at
    ``reference_level`` — twice the stabilization level unless given — on
    the *same* ensemble, so Monte Carlo noise cancels and levels past
    stabilization report exact zeros.  ``reference="oracle"`` compares the
    value process against a per-node oracle field instead (transform-form
    drivers only; pass ``oracle_field`` of shape ``(M, N+1)``), whose own
    noise floors the curve.

    Per level the report carries the sup-over-nodes mean squared value gap
    (with the standard error at the maximizing node) and, for the large-n
    reference, the time-integrated control gap in ``metadata["z_errors"]``.
    """
    levels = sorted(set(int(v) for v in n_list))
    if not levels:
        raise ValidationError("n_list is empty")
    if levels[0] < 1:
        raise ValidationError("truncation levels must be positive")
    cache = _cache if _cache is not None else {}
    meta: dict = {"reference": reference, "n_paths": ensemble.n_paths,
                  "seed": ensemble.seed, "basis": basis.kind}
    if reference == "large_n":
        if reference_level is None:
            stab = stabilization_level(
                problem, ensemble, basis,
                list(levels) + [levels[-1] + 1], config, _cache=cache)
            if stab is NOT_FOUND:
                raise ValidationError(
                    "no stabilization level found below "
                    f"{levels[-1] + 1}; pass reference_level explicitly")
            reference_level = 2 * stab
            meta["stabilization_level"] = stab
        ref = _solve_cached(cache, problem, ensemble, basis,
                            int(reference_level), config)
        ref_y, ref_z = ref.y, ref.z
        meta["reference_level"] = int(reference_level)
    elif reference == "oracle":
        if oracle_field is None:
            raise ValidationError(
                "oracle reference needs the per-node oracle field")
        ref_y = np.asarray(oracle_field, dtype=float)
        if ref_y.shape != (ensemble.n_paths, ensemble.grid.n_steps + 1):
            raise ValidationError("oracle field has the wrong shape")
        ref_z = None
    else:
        raise ValidationError(f"unknown reference {reference!r}")

    deltas = ensemble.grid.deltas
    m = ensemble.n_paths
    errors, stderrs, z_errors, z_stderrs = [], [], [], []
    for n in levels:
        sol = _solve_cached(cache, problem, ensemble, basis, n, config)
        sq = (sol.y - ref_y) ** 2
        node_means = sq.mean(axis=0)
        i_star = int(node_means.argmax())
        errors.append(float(node_means[i_star]))
        stderrs.append(float(sq[:, i_star].std(ddof=1) / math.sqrt(m)))
        if ref_z is not None:
            zgap = np.einsum("mjd,j->m", (sol.z - ref_z) ** 2, deltas)
            z_errors.append(float(zgap.mean()))
            z_stderrs.append(float(zgap.std(ddof=1) / math.sqrt(m)))
    if ref_z is not None:
        meta["z_errors"] = z_errors
        meta["z_stderrs"] = z_stderrs

    slope, intercept, r2 = _fit_positive(levels, errors)
    return ConvergenceReport(
        experiment="truncation", abscissae=np.asarray(levels, dtype=float),
        errors=np.asarray(errors), stderrs=np.asarray(stderrs),
        slope=slope, intercept=intercept, r2=r2, metadata=meta)


def _fit_positive(abscissae, errors):
    a = np.asarray(abscissae, dtype=float)
    e = np.asarray(errors, dtype=float)
    keep = e > 0.0
    if keep.sum() < 3:
        return float("nan"), float("nan"), float("nan")
    return rate_fit(a[keep], e[keep])


# ---------------------------------------------------------------------------
# Stability under perturbations of the data
# ---------------------------------------------------------------------------

def stability_experiment(
    problem: FBSDEProblem,
    ladder: Sequence[tuple[Callable | None, DriverSpec | None]],
    ensemble: PathEnsemble,
    basis: RegressionBasis,
    config: RunConfig,
    *,
    truncation=None,
) -> ConvergenceReport:
    """Solve a ladder of perturbed data against the limit problem.

    Each rung is a ``(terminal, driver)`` pair (``None`` inherits the limit
    problem's own field).  Errors are worst-case over grid nodes and paths
    for the value process; the time-integrated control gap, the a-priori
    right-hand side built from ``|xi_k - xi|`` and the realized driver
    differences, and the error/bound ratios land in the metadata.  The
    ratios are reported, not asserted — the stability estimate's constant is
    not explicit, so a stable ratio profile is the checkable content.
    """
    if truncation is None:
        truncation = UNTRUNCATED
    if not ladder:
        raise ValidationError("ladder is empty")
    limit = lsmc_solve(problem, ensemble, basis, truncation, config)
    xi = np.asarray(problem.terminal(ensemble.paths[:, -1, :]), dtype=float)
    times, deltas = ensemble.grid.times, ensemble.grid.deltas

    errors, stderrs, z_errors, rhs_list = [], [], [], []
    for terminal_k, driver_k in ladder:
        pk = problem
        if terminal_k is not None:
            pk = replace(pk, terminal=terminal_k, terminal_gradient=None)
        if driver_k is not None:
            pk = replace(pk, driver=driver_k)
        sol = lsmc_solve(pk, ensemble, basis, truncation, config)
        gap = np.abs(sol.y - limit.y)
        errors.append(float(gap.max()))
        node_means = (gap ** 2).mean(axis=0)
        i_star = int(node_means.argmax())
        stderrs.append(float(
            (gap[:, i_star] ** 2).std(ddof=1) / math.sqrt(gap.shape[0])))
        zgap = np.einsum("mjd,j->m", (sol.z - limit.z) ** 2, deltas)
        z_errors.append(float(zgap.mean()))

        # a-priori right-hand side along the realized limit solution
        xi_k = xi if terminal_k is None else np.asarray(
            terminal_k(ensemble.paths[:, -1, :]), dtype=float)
        term_gap = float(np.abs(xi_k - xi).max()) ** 2
        if driver_k is None:
            drv_gap = 0.0
        else:
            acc = np.zeros(gap.shape[0])
            for i in range(deltas.size):
                dg = (np.asarray(driver_k.g(times[i], ensemble.paths[:, i, :],
                                            limit.y[:, i], limit.z[:, i, :]),
                                 dtype=float)
                      - np.asarray(problem.driver.g(
                          times[i], ensemble.paths[:, i, :],
                          limit.y[:, i], limit.z[:, i, :]), dtype=float))
                acc += dg ** 2 * deltas[i]
            drv_gap = float(acc.mean())
        rhs_list.append(term_gap + drv_gap)

    meta = {
        "z_errors": z_errors,
        "apriori_rhs": rhs_list,
        "error_to_rhs": [e / r if r > 0.0 else float("inf") if e > 0.0
                         else 0.0 for e, r in zip(errors, rhs_list)],
        "n_paths": ensemble.n_paths,
        "seed": ensemble.seed,
    }
    rungs = np.arange(1.0, len(ladder) + 1.0)
    slope, intercept, r2 = _fit_positive(rungs, errors)
    return ConvergenceReport(
        experiment="stability", abscissae=rungs,
        errors=np.asarray(errors), stderrs=np.asarray(stderrs),
        slope=slope, intercept=intercept, r2=r2, metadata=meta)
