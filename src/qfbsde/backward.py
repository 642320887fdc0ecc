"""Least-squares Monte-Carlo backward solver and its audits.

The scheme is the usual explicit-in-``Z``, implicit-in-``Y`` one-step
backward induction on a path ensemble:

* ``Z_{t_i}`` comes from regressing the conditionally-centered product
  ``(Y_{t_{i+1}} - E[Y_{t_{i+1}}|X_{t_i}]) * dB_i / dt_i`` on the
  time-``t_i`` state.  The centering term has conditional expectation
  exactly zero, so the estimator targets the same quantity as the plain
  product ``Y_{t_{i+1}} * dB_i / dt_i`` while removing the ``O(dt^{-1/2})``
  noise that otherwise buries small-mesh regularity statistics.
* ``Y_{t_i}`` solves the implicit fixed point
  ``y = E[Y_{t_{i+1}}|X_{t_i}] + dt * g_n(t_i, X_{t_i}, y, Z_{t_i})``
  by Picard iteration started at the conditional-expectation term.

``g_n`` is the driver with both arguments passed through the smooth
truncation at level ``n`` (or the raw driver for ``UNTRUNCATED``).  The
terminal condition is written into the value array verbatim, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    DriverSpec,
    FBSDEProblem,
    QfbsdeError,
    RunConfig,
    TimeGrid,
    UNTRUNCATED,
    ValidationError,
)
from .forward import PathEnsemble

__all__ = [
    "RegressionBasis",
    "regress_conditional",
    "PicardDivergenceError",
    "BackwardSolution",
    "lsmc_solve",
    "estimate_bmo",
    "BoundsReport",
    "apriori_check",
    "NOT_FOUND",
    "stabilization_level",
]


class PicardDivergenceError(QfbsdeError):
    """The implicit fixed-point iteration failed to contract."""

    def __init__(self, message: str, *, step: int, residuals: list):
        super().__init__(message)
        self.step = step
        self.residuals = residuals


class _NotFound:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NOT_FOUND"

    def __bool__(self) -> bool:
        return False


NOT_FOUND = _NotFound()


# ---------------------------------------------------------------------------
# Regression bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegressionBasis:
    """Finite-dimensional regression space for conditional expectations.

    ``kind='polynomial'`` spans all monomials of total degree <= ``degree``
    in the state coordinates.  ``kind='piecewise_linear'`` spans hat
    functions on ``bins`` equally spaced nodes over ``support`` (states are
    clamped to the support, so fitted values extend constantly outside);
    it is one-dimensional only.  Both spans contain the constants, which is
    what makes regression-fitted conditional expectations preserve sample
    means.  Normal equations carry a ridge floor ``ridge`` on unit-scaled
    columns to keep rank-deficient designs solvable.

    ``knots`` optionally replaces the uniform hat layout with an explicit
    strictly increasing node vector (``bins``/``support`` are then ignored).
    Non-uniform knots buy resolution where the problem is actually rough —
    e.g. clustered at a drift's mollification scale — without paying the
    feature count of uniform refinement everywhere.
    """

    kind: str = "polynomial"
    degree: int = 4
    bins: int = 8
    support: tuple = (-4.0, 4.0)
    ridge: float = 1e-10
    knots: tuple = ()

    def __post_init__(self):
        if self.kind not in ("polynomial", "piecewise_linear"):
            raise ValidationError(f"unknown basis kind {self.kind!r}")
        if self.kind == "polynomial" and self.degree < 0:
            raise ValidationError("degree must be >= 0")
        if self.knots and self.kind != "piecewise_linear":
            raise ValidationError("knots apply to the piecewise_linear kind only")
        if self.kind == "piecewise_linear":
            if self.knots:
                k = np.asarray(self.knots, dtype=float)
                if k.size < 2 or np.any(np.diff(k) <= 0):
                    raise ValidationError(
                        "knots must be >= 2 strictly increasing values")
            else:
                if self.bins < 2:
                    raise ValidationError("piecewise_linear needs bins >= 2")
                lo, hi = self.support
                if not lo < hi:
                    raise ValidationError("support must satisfy lo < hi")
        if self.ridge < 0:
            raise ValidationError("ridge must be nonnegative")

    def n_features(self, dim: int) -> int:
        if self.kind == "polynomial":
            return math.comb(self.degree + dim, dim)
        return len(self.knots) if self.knots else self.bins

    def design(self, states: np.ndarray) -> np.ndarray:
        """Design matrix of shape ``(M, n_features)``, feature-major.

        The result is Fortran-ordered: each column is contiguous.  Polynomial
        columns are the constant followed by the monomials in
        :func:`_monomials` order; hat columns follow the node order, and each
        row has at most two nonzeros (the hats of the cell holding the
        clamped state).
        """
        x = np.atleast_2d(np.asarray(states, dtype=float))
        m, d = x.shape
        if self.kind == "polynomial":
            a = np.empty((m, self.n_features(d)), order="F")
            a[:, 0] = 1.0
            # the pure-power columns are the power table: x_j^e is written
            # as x_j^(e-1) * x_j, and a mixed monomial multiplies pure
            # powers of lower total degree, so every factor is written first
            power = {}  # (j, e) -> column holding x_j^e
            for c, exps in enumerate(_monomials(d, self.degree), start=1):
                col = a[:, c]
                factors = [(j, e) for j, e in enumerate(exps) if e]
                if len(factors) == 1:
                    j, e = factors[0]
                    power[j, e] = c
                    if e == 1:
                        col[:] = x[:, j]
                        continue
                    factors = [(j, e - 1), (j, 1)]
                (j0, e0), (j1, e1), *rest = factors
                np.multiply(a[:, power[j0, e0]], a[:, power[j1, e1]], out=col)
                for j, e in rest:
                    col *= a[:, power[j, e]]
            return a
        if d != 1:
            raise ValidationError("piecewise_linear basis is one-dimensional only")
        if self.knots:
            nodes = np.asarray(self.knots, dtype=float)
        else:
            lo, hi = self.support
            nodes = np.linspace(lo, hi, self.bins)
        xs = np.clip(x[:, 0], nodes[0], nodes[-1])
        # cell [nodes[k], nodes[k+1]] holding each clamped state; a state on
        # an interior knot opens the cell to its right, the last knot closes
        # the last cell
        k = np.clip(np.searchsorted(nodes, xs, side="right") - 1,
                    0, nodes.size - 2)
        h = np.diff(nodes)[k]
        a = np.zeros((m, nodes.size), order="F")
        flat = a.reshape(-1, order="F")  # a view: a[r, c] is flat[c*m + r]
        at = k * m + np.arange(m)
        flat[at] = 1.0 - (xs - nodes[k]) / h
        flat[at + m] = 1.0 - (nodes[k + 1] - xs) / h
        return a


def _monomials(dim: int, degree: int):
    """Multi-indices with total degree 1..degree, in a fixed order."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix) + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)

    for total in range(1, degree + 1):
        rec([], total, dim)
    return out


class _StepRegressor:
    """The one per-step projector: a design and Gram factor on the states.

    Every backward pass builds one per step and projects all of its targets
    there in sample.  Designs with no more paths than basis functions are
    rejected: they interpolate instead of regress.

    The design is stored unscaled.  The unit-column scaling that the ridge
    floor refers to lives on the Gram: ``gram`` is ``S AᵀA S + ridge·I``
    with ``S = diag(scale)`` the inverse column norms, and ``project``
    applies ``scale`` to the right-hand side and to the coefficients.
    ``lstsq_fallbacks`` counts the solves that found ``gram`` singular and
    fell back to least squares.
    """

    def __init__(self, basis: RegressionBasis, states: np.ndarray):
        m, dim = states.shape
        if m <= basis.n_features(dim):
            raise ValidationError(
                f"need more paths ({m}) than basis functions "
                f"({basis.n_features(dim)})")
        self.lstsq_fallbacks = 0
        a = basis.design(states)
        # collapse designs with no usable variation to a pure mean fit
        ptp = a.max(axis=0) - a.min(axis=0)
        nonconst = ptp > 0.0
        self.mean_only = not bool(nonconst.any())
        if self.mean_only:
            return
        g = a.T @ a
        norms = np.sqrt(np.diag(g))
        kept = nonconst.copy()
        # keep a single intercept column in front of the varying ones
        const_cols = np.flatnonzero(~nonconst)
        live_const = const_cols[norms[const_cols] > 0.0]
        if live_const.size:
            kept[live_const[0]] = True
        if not kept.all():
            a, g, norms = a[:, kept], g[np.ix_(kept, kept)], norms[kept]
        norms[norms == 0.0] = 1.0
        self.a = a
        self.scale = 1.0 / norms
        g = g * np.outer(self.scale, self.scale)
        if basis.ridge > 0.0:
            g = g + basis.ridge * np.eye(g.shape[0])
        self.gram = g

    def project(self, targets: np.ndarray) -> np.ndarray:
        """In-sample fitted values for ``(M,)`` or ``(M, k)`` targets."""
        y = np.asarray(targets, dtype=float)
        squeeze = y.ndim == 1
        y2 = y[:, None] if squeeze else y
        # the projection of a constant column is that constant (the span
        # always reproduces constants here); returning it directly keeps
        # degenerate chains — constant terminals, zero increments — exact
        # instead of polluted by solver round-off
        lo, hi = y2.min(axis=0), y2.max(axis=0)
        const = lo == hi
        if const.all():
            out = np.broadcast_to(lo, y2.shape).copy()
            return out[:, 0] if squeeze else out
        if self.mean_only:
            out = np.broadcast_to(y2.mean(axis=0), y2.shape).copy()
        else:
            scale = self.scale[:, None]
            rhs = scale * (self.a.T @ y2)
            try:
                coef = np.linalg.solve(self.gram, rhs)
            except np.linalg.LinAlgError:
                self.lstsq_fallbacks += 1
                coef = np.linalg.lstsq(self.gram, rhs, rcond=None)[0]
            out = self.a @ (scale * coef)
        if const.any():
            out[:, const] = lo[const]
        return out[:, 0] if squeeze else out

    def ce_and_control(self, nxt: np.ndarray, db: np.ndarray, dt: float):
        """``E[nxt|X_i]`` and the centered control for ``(M, k)`` targets.

        The control is ``E[(nxt - E[nxt|X_i]) dB_i | X_i] / dt``, shape
        ``(M, k, d)`` for ``(M, d)`` increments ``db``.
        """
        m, k = nxt.shape
        ce = self.project(nxt)
        prod = (nxt - ce)[:, :, None] * db[:, None, :]
        control = self.project(prod.reshape(m, -1)) / dt
        return ce, control.reshape(m, k, -1)


def regress_conditional(
    targets: np.ndarray, states: np.ndarray, basis: RegressionBasis
) -> np.ndarray:
    """In-sample least-squares projection of ``targets`` on ``basis``.

    Fitted values are invariant under affine rescaling of the states for
    the polynomial basis (the span is), and collapse to the exact sample
    mean when the states carry no variation at all — that is what ties the
    backward induction at the (deterministic) initial state to a plain
    average.  Raises :class:`ValidationError` unless there are more paths
    than basis functions.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    y = np.asarray(targets, dtype=float)
    if y.shape[0] != states.shape[0]:
        raise ValidationError("targets and states disagree on the path count")
    return _StepRegressor(basis, states).project(y)


# ---------------------------------------------------------------------------
# Backward solution container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BackwardSolution:
    """LSMC approximation of ``(Y, Z)`` on a path ensemble.

    ``y`` has shape ``(M, N+1)``; ``z`` has shape ``(M, N, d)`` (the control
    lives on steps, not nodes).  ``diagnostics`` records per-step Picard
    behaviour, per-step counts of singular Grams solved by least squares
    (``lstsq_fallbacks``), realized input magnitudes seen by the driver,
    and the sup-node value bound.
    """

    grid: TimeGrid
    y: np.ndarray
    z: np.ndarray
    truncation_n: object
    basis: RegressionBasis
    config: RunConfig
    diagnostics: dict = field(default_factory=dict)

    @property
    def y0(self) -> float:
        return float(self.y[:, 0].mean())

    @property
    def n_paths(self) -> int:
        return self.y.shape[0]


def lsmc_solve(
    problem: FBSDEProblem,
    ensemble: PathEnsemble,
    basis: RegressionBasis,
    truncation_n,
    config: RunConfig,
) -> BackwardSolution:
    """Backward induction for the (truncated) quadratic BSDE.

    ``truncation_n`` is a positive integer truncation level or the
    ``UNTRUNCATED`` sentinel.  Raises :class:`PicardDivergenceError` when
    the per-step fixed point stops contracting (three consecutive residual
    increases) or fails to reach ``config.picard_tol`` within
    ``config.picard_max`` sweeps.
    """
    x = ensemble.paths
    db = ensemble.increments
    m, n1, d = x.shape
    n = n1 - 1
    grid = ensemble.grid
    gdriver = problem.driver.truncated(truncation_n)
    times, deltas = grid.times, grid.deltas

    y = np.empty((m, n + 1))
    z = np.zeros((m, n, d))
    y[:, n] = np.asarray(problem.terminal(x[:, n, :]), dtype=float)
    if not np.all(np.isfinite(y[:, n])):
        raise ValidationError("terminal condition produced non-finite values")

    picard_iters = np.zeros(n, dtype=int)
    picard_residuals = np.zeros(n)
    lstsq_fallbacks = np.zeros(n, dtype=int)
    realized_y_max = 0.0
    realized_z_max = 0.0

    for i in range(n - 1, -1, -1):
        reg = _StepRegressor(basis, x[:, i, :])
        ce, control = reg.ce_and_control(y[:, i + 1, None], db[:, i, :],
                                         deltas[i])
        lstsq_fallbacks[i] = reg.lstsq_fallbacks
        ce = ce[:, 0]
        z[:, i, :] = control[:, 0, :]
        realized_z_max = max(realized_z_max, float(np.abs(z[:, i, :]).max()))

        yk = ce
        prev_res = math.inf
        grow = 0
        residuals = []
        for sweep in range(config.picard_max):
            realized_y_max = max(realized_y_max, float(np.abs(yk).max()))
            gval = np.asarray(gdriver.g(times[i], x[:, i, :], yk, z[:, i, :]),
                              dtype=float)
            if not np.all(np.isfinite(gval)):
                raise ValidationError(
                    f"driver produced non-finite values at step {i}")
            y_new = ce + deltas[i] * gval
            res = float(np.abs(y_new - yk).max())
            residuals.append(res)
            yk = y_new
            if res <= config.picard_tol:
                picard_iters[i] = sweep + 1
                picard_residuals[i] = res
                break
            grow = grow + 1 if res > prev_res else 0
            prev_res = res
            if grow >= 3:
                raise PicardDivergenceError(
                    f"Picard residual grew three times in a row at step {i}",
                    step=i, residuals=residuals)
        else:
            raise PicardDivergenceError(
                f"Picard did not reach tol={config.picard_tol} within "
                f"{config.picard_max} sweeps at step {i} "
                f"(last residual {residuals[-1]:.3e})",
                step=i, residuals=residuals)
        y[:, i] = yk

    diagnostics = {
        "picard_iters": picard_iters,
        "picard_residuals": picard_residuals,
        "lstsq_fallbacks": lstsq_fallbacks,
        "sup_y_node": float(np.abs(y).max()),
        "realized_driver_y_max": realized_y_max,
        "realized_driver_z_max": realized_z_max,
    }
    return BackwardSolution(
        grid=grid, y=y, z=z, truncation_n=truncation_n, basis=basis,
        config=config, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# BMO-type estimator and bound audits
# ---------------------------------------------------------------------------

def estimate_bmo(
    solution: BackwardSolution,
    ensemble: PathEnsemble,
    basis: RegressionBasis | None = None,
) -> float:
    """Grid-proxy BMO estimator of the control process.

    For each node ``t_i`` the tail energy ``sum_{j>=i} |Z_j|^2 dt_j`` is
    regressed on the state ``X_{t_i}``; the estimator is the square root of
    the largest fitted value over all nodes and paths (negative fitted
    values are floored at zero before the root).

    Bias note: this is a *grid* proxy — the supremum runs over grid nodes
    and simulated states only, and the conditional expectation is a
    finite-dimensional projection, so the estimate can sit below the true
    BMO norm (coarse grids, small bases) or above it (regression noise in
    sparsely visited states).  It is an audit statistic, not an estimator
    with a proven rate.
    """
    if basis is None:
        basis = solution.basis
    x = ensemble.paths
    z = solution.z
    deltas = solution.grid.deltas
    n = z.shape[1]
    tail = np.zeros(z.shape[0])
    worst = 0.0
    for i in range(n - 1, -1, -1):
        tail = tail + np.sum(z[:, i, :] ** 2, axis=1) * deltas[i]
        fitted = _StepRegressor(basis, x[:, i, :]).project(tail)
        worst = max(worst, float(fitted.max()))
    return math.sqrt(max(worst, 0.0))


@dataclass(frozen=True)
class BoundsReport:
    """Observed solution magnitudes against their closed-form budgets."""

    y_bound: float
    y_observed: float
    y_slack: float
    y_ok: bool
    bmo_bound: float
    bmo_observed: float
    bmo_slack: float
    bmo_ok: bool

    @property
    def passed(self) -> bool:
        return self.y_ok and self.bmo_ok


def apriori_check(
    solution: BackwardSolution,
    ensemble: PathEnsemble,
    problem: FBSDEProblem,
    *,
    y_slack: float = 0.01,
    bmo_slack: float = 0.10,
    use_proof_integrand: bool = False,
) -> BoundsReport:
    """Audit the solved fields against the closed-form a-priori budgets.

    ``sup-node |Y|`` must not exceed the upsilon1 budget by more than the
    relative ``y_slack``; the grid-proxy BMO estimate must not exceed the
    upsilon2 budget by more than ``bmo_slack``.  The slacks absorb Monte
    Carlo and projection noise: the budgets themselves bound the exact
    solution, not its simulation.
    """
    y_bound = problem.y_sup_bound()
    bmo_sq_bound = problem.z_bmo_bound(use_proof_integrand=use_proof_integrand)
    y_obs = float(solution.diagnostics["sup_y_node"])
    bmo_obs = estimate_bmo(solution, ensemble)
    bmo_bound = math.sqrt(bmo_sq_bound)
    return BoundsReport(
        y_bound=y_bound,
        y_observed=y_obs,
        y_slack=y_slack,
        y_ok=bool(y_obs <= y_bound * (1.0 + y_slack)),
        bmo_bound=bmo_bound,
        bmo_observed=bmo_obs,
        bmo_slack=bmo_slack,
        bmo_ok=bool(bmo_obs <= bmo_bound * (1.0 + bmo_slack)),
    )


def stabilization_level(
    problem: FBSDEProblem,
    ensemble: PathEnsemble,
    basis: RegressionBasis,
    n_list: Sequence[int],
    config: RunConfig,
    *,
    _cache: dict | None = None,
):
    """Smallest truncation level the realized solution never touches.

    Walks ``n_list`` in increasing order and returns the first ``n`` whose
    solution (a) is bit-identical to the solution at the next level in the
    list and (b) only ever evaluated the driver at ``|y| <= n`` and
    ``|z_k| <= n`` — i.e. the truncation was provably inactive on the
    realized paths.  Returns the ``NOT_FOUND`` sentinel when no level in
    the list qualifies.  ``_cache`` (level -> solution) lets callers reuse
    the solves.
    """
    levels = sorted(set(int(v) for v in n_list))
    if len(levels) < 2:
        raise ValidationError("n_list needs at least two distinct levels")
    if levels[0] < 1:
        raise ValidationError("truncation levels must be positive integers")
    cache = _cache if _cache is not None else {}
    for lo, hi in zip(levels[:-1], levels[1:]):
        sol_lo = _solve_cached(cache, problem, ensemble, basis, lo, config)
        if (sol_lo.diagnostics["realized_driver_y_max"] > lo
                or sol_lo.diagnostics["realized_driver_z_max"] > lo):
            continue
        sol_hi = _solve_cached(cache, problem, ensemble, basis, hi, config)
        if np.array_equal(sol_lo.y, sol_hi.y) and np.array_equal(sol_lo.z, sol_hi.z):
            return lo
    return NOT_FOUND


def _solve_cached(cache, problem, ensemble, basis, level, config):
    """``lsmc_solve`` at ``level``, memoized in ``cache`` (level -> solution)."""
    if level not in cache:
        cache[level] = lsmc_solve(problem, ensemble, basis, level, config)
    return cache[level]
