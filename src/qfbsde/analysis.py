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
    _check_level,
    _nested_indices,
    _step_major,
)
from .backward import (
    BackwardSolution,
    RegressionBasis,
    _StepRegressor,
    _relabel,
    _solve_cached,
    _sweep_uncached,
    _walk_stable,
    lsmc_solve,
    NOT_FOUND,
)
from .forward import PathEnsemble

__all__ = [
    "ConvergenceReport",
    "path_regularity_stat",
    "rate_fit",
    "stability_experiment",
    "truncation_error_curve",
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
    *,
    ensemble: PathEnsemble | None = None,
) -> np.ndarray:
    """Best block-constant approximation of the control, per coarse interval.

    For each interval of ``partition`` the dt-weighted time average of the
    fine-grid ``Z`` is regressed on the state at the interval's left node,
    in the solution's own basis; the fitted values are the conditional
    block averages.  The fit is pure least squares (no ridge): what is
    asserted downstream is its in-sample optimality over the span, and a
    penalty would trade exactly that away.

    ``ensemble`` supplies the regression states and is required.  Returns
    an ``(M, N_coarse, d)`` field, step-major in memory.
    """
    basis = replace(base.basis, ridge=0.0)
    if ensemble is None:
        raise ValidationError("zhang_zbar needs the solution's ensemble")
    x = ensemble.paths
    idx = _nested_indices(base.grid, partition)
    deltas = base.grid.deltas
    m, n, d = base.z.shape
    # z is step-major: steps lo..hi-1 are one contiguous (hi-lo, M*d) slab
    slabs = np.moveaxis(base.z, 1, 0).reshape(n, m * d)
    out = _step_major(m, partition.n_steps, d)
    for k in range(partition.n_steps):
        lo, hi = idx[k], idx[k + 1]
        w = deltas[lo:hi]
        target = (w @ slabs[lo:hi]).reshape(m, d)
        target /= w.sum()
        out[:, k, :] = _StepRegressor(basis, x[:, lo, :]).project(target)
    return out


def path_regularity_stat(
    base: BackwardSolution,
    partition: TimeGrid,
    p: float = 2.0,
    mode: str = "left_endpoint",
    *,
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
    m, _, d = z.shape
    if mode == "zbar":
        zb = zhang_zbar(base, partition, ensemble=ensemble)
    per_path = np.zeros(m)
    # one buffer each for a block's sum, a step's gap and its square norm
    block, diff, sq = np.empty(m), np.empty((m, d)), np.empty(m)
    for k in range(partition.n_steps):
        lo, hi = idx[k], idx[k + 1]
        ref = z[:, lo, :] if mode == "left_endpoint" else zb[:, k, :]
        block[:] = 0.0
        for j in range(lo, hi):
            np.subtract(z[:, j, :], ref, out=diff)
            np.einsum("md,md->m", diff, diff, out=sq)
            sq *= deltas[j]
            block += sq
        block **= 0.5 * p
        per_path += block
    value = float(per_path.mean())
    stderr = float(per_path.std(ddof=1) / math.sqrt(m))
    return value, stderr


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
    reference_level: int | None = None,
    _cache: dict | None = None,
) -> ConvergenceReport:
    """Error of the level-``n`` solutions against a reference solve.

    The reference is one solve at ``reference_level`` — twice the
    stabilization level unless given — on the *same* ensemble, so Monte
    Carlo noise cancels and levels past stabilization report exact zeros.

    Per level the report carries the sup-over-nodes (before the terminal)
    mean squared value gap, with its stderr, and the time-integrated
    control gap in ``metadata["z_errors"]``.
    """
    levels = sorted(set(_check_level(v) for v in n_list))
    if not levels:
        raise ValidationError("n_list is empty")
    if reference_level is not None:
        reference_level = _check_level(reference_level)
    cache = _cache if _cache is not None else {}
    meta: dict = {"n_paths": ensemble.n_paths, "seed": ensemble.seed,
                  "basis": basis.kind}
    if reference_level is None:
        walk = levels + [levels[-1] + 1]
        pending = _sweep_uncached(cache, problem, ensemble, basis, walk,
                                  config)
        stab = _walk_stable(cache, pending, walk)
        if stab is NOT_FOUND:
            raise ValidationError(
                "no stabilization level found below "
                f"{levels[-1] + 1}; pass reference_level explicitly")
        reference_level = 2 * stab
        meta["stabilization_level"] = stab
        if reference_level not in cache and reference_level not in pending:
            cache[reference_level] = _relabel(cache[stab], reference_level)
    else:
        pending = _sweep_uncached(cache, problem, ensemble, basis,
                                  [reference_level] + levels, config)
    ref = _solve_cached(cache, pending, reference_level)
    meta["reference_level"] = reference_level

    deltas = ensemble.grid.deltas
    m = ensemble.n_paths
    errors, stderrs, z_errors, z_stderrs = [], [], [], []
    for n in levels:
        sol = _solve_cached(cache, pending, n)
        if sol.y is ref.y and sol.z is ref.z:
            # the reference's own arrays: the gaps below are exact zeros
            for acc in (errors, stderrs, z_errors, z_stderrs):
                acc.append(0.0)
            continue
        err, se = _worst_node((sol.y - ref.y) ** 2)
        errors.append(err)
        stderrs.append(se)
        zgap = np.einsum("mjd,j->m", (sol.z - ref.z) ** 2, deltas)
        z_errors.append(float(zgap.mean()))
        z_stderrs.append(float(zgap.std(ddof=1) / math.sqrt(m)))
    meta["z_errors"] = z_errors
    meta["z_stderrs"] = z_stderrs

    slope, r2 = _fit_positive(levels, errors)
    return ConvergenceReport(
        experiment="truncation", abscissae=np.asarray(levels, dtype=float),
        errors=np.asarray(errors), stderrs=np.asarray(stderrs),
        slope=slope, r2=r2, metadata=meta)


def _worst_node(sq: np.ndarray) -> tuple[float, float]:
    """Largest node mean of the ``(M, N+1)`` squared value gaps, with its
    stderr, before the terminal node, where ``Y_N = xi`` by construction."""
    node_means = sq[:, :-1].mean(axis=0)
    i_star = int(node_means.argmax())
    return (float(node_means[i_star]),
            float(sq[:, i_star].std(ddof=1) / math.sqrt(sq.shape[0])))


def _fit_positive(abscissae, errors):
    """``(slope, r2)`` of :func:`rate_fit` on the strictly positive errors,
    NaN when fewer than three remain."""
    a = np.asarray(abscissae, dtype=float)
    e = np.asarray(errors, dtype=float)
    keep = e > 0.0
    if keep.sum() < 3:
        return float("nan"), float("nan")
    slope, _, r2 = rate_fit(a[keep], e[keep])
    return slope, r2


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
    problem's own field).  Each error is the largest node mean of the
    squared value gap before the terminal node, with its stderr, as in
    :func:`truncation_error_curve`.  The time-integrated control gap, the
    a-priori right-hand side in the same squared units (the path mean of
    ``|xi_k - xi|^2`` plus that of the time-integrated squared driver
    difference along the limit solution) and the error/bound ratios land
    in the metadata.  The ratios are reported, not asserted — the stability
    estimate's constant is not explicit, so a stable ratio profile is the
    checkable content.
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
        err, se = _worst_node((sol.y - limit.y) ** 2)
        errors.append(err)
        stderrs.append(se)
        zgap = np.einsum("mjd,j->m", (sol.z - limit.z) ** 2, deltas)
        z_errors.append(float(zgap.mean()))

        # a-priori right-hand side along the realized limit solution
        xi_k = xi if terminal_k is None else np.asarray(
            terminal_k(ensemble.paths[:, -1, :]), dtype=float)
        term_gap = float(((xi_k - xi) ** 2).mean())
        if driver_k is None:
            drv_gap = 0.0
        else:
            acc = np.zeros(ensemble.n_paths)
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
    slope, r2 = _fit_positive(rungs, errors)
    return ConvergenceReport(
        experiment="stability", abscissae=rungs,
        errors=np.asarray(errors), stderrs=np.asarray(stderrs),
        slope=slope, r2=r2, metadata=meta)
