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
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .core import (
    FBSDEProblem,
    QfbsdeError,
    RunConfig,
    TimeGrid,
    UNTRUNCATED,
    ValidationError,
    _check_level,
    _step_major,
    rho_truncate,
)
from .forward import PathEnsemble

__all__ = [
    "RegressionBasis",
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
                if not (k.size >= 2 and np.all(np.isfinite(k))
                        and np.all(np.diff(k) > 0)):
                    raise ValidationError(
                        "knots must be >= 2 finite, strictly increasing values")
            else:
                if self.bins < 2:
                    raise ValidationError("piecewise_linear needs bins >= 2")
                lo, hi = self.support
                if not -math.inf < lo < hi < math.inf:
                    raise ValidationError(
                        "support must be finite with lo < hi")
        if not 0 <= self.ridge < math.inf:
            raise ValidationError(
                f"ridge must be finite and nonnegative, got {self.ridge}")

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
        k, w0, w1 = _hat_cells(self, x)
        a = np.zeros((m, self.n_features(d)), order="F")
        flat = a.reshape(-1, order="F")  # a view: a[r, c] is flat[c*m + r]
        at = k * m + np.arange(m)
        flat[at] = w0
        flat[at + m] = w1
        return a

    @cached_property
    def _hat_grid(self):
        """``(nodes, upper, table, scale)`` for :func:`_hat_cells`.

        ``table[b]`` is the cell holding ``nodes[0] + b / scale``, the left
        edge of bucket ``b`` of a uniform grid over the knots' span, and its
        last entry is the cell of the last knot.  The buckets are no wider
        than the narrowest cell unless that takes more than
        ``_MAX_BUCKETS`` of them.  ``upper`` is each cell's right knot, with
        the last cell open to the right.
        """
        if self.knots:
            nodes = np.asarray(self.knots, dtype=float)
        else:
            lo, hi = self.support
            nodes = np.linspace(lo, hi, self.bins)
        span = nodes[-1] - nodes[0]
        n_buckets = math.ceil(min(_MAX_BUCKETS, span / np.diff(nodes).min()))
        edges = nodes[0] + span * (np.arange(n_buckets + 1) / n_buckets)
        edges[-1] = nodes[-1]
        table = np.clip(np.searchsorted(nodes, edges, side="right") - 1,
                        0, nodes.size - 2)
        upper = np.append(nodes[1:-1], math.inf)
        return nodes, upper, table, n_buckets / span


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


@lru_cache(maxsize=None)
def _moment_table(dim: int, degree: int):
    """Where each entry of a polynomial design's Gram comes from.

    Entry ``(a, b)`` of ``AᵀA`` is ``Σ_m x_m^(e_a + e_b)``, so it depends
    only on the sum of the two columns' exponent vectors.  Returns
    ``(p, q, table)``: moment ``t`` is ``A[:, p[t]] · A[:, q[t]]`` and
    ``table[a, b]`` is the moment of entry ``(a, b)``.  A moment that sits
    on the diagonal is taken from that column with itself, so the Gram's
    diagonal is each column's own sum of squares, zero exactly when the
    column is.
    """
    exps = [(0,) * dim] + _monomials(dim, degree)
    k = len(exps)
    first = {}  # exponent sum -> moment number
    p, q = [], []
    table = np.empty((k, k), dtype=np.intp)
    for a in range(k):
        for b in range(a, k):
            s = tuple(u + v for u, v in zip(exps[a], exps[b]))
            if s not in first:
                first[s] = len(p)
                p.append(a)
                q.append(b)
            elif a == b:
                p[first[s]] = q[first[s]] = a
            table[a, b] = table[b, a] = first[s]
    out = np.array(p), np.array(q), table
    for arr in out:
        arr.flags.writeable = False
    return out


_MAX_BUCKETS = 4096


def _hat_cells(basis: RegressionBasis, states: np.ndarray):
    """The hat design of ``states`` as each state's cell and two weights.

    Returns ``(k, w0, w1)``: the state, clamped to the knots' span, lies in
    cell ``[nodes[k], nodes[k+1]]`` and has weight ``w0`` on hat ``k`` and
    ``w1`` on hat ``k + 1``; every other hat is zero there.  ``k`` is
    bitwise ``clip(searchsorted(nodes, xs, side="right") - 1, 0, K - 2)``:
    a state on an interior knot opens the cell to its right, and the last
    knot closes the last cell.  The bucket table gives a first guess, and
    each guess moves one cell at a time until no state lies outside its
    cell, so the result is exact for any knot vector.
    """
    if states.shape[1] != 1:
        raise ValidationError("piecewise_linear basis is one-dimensional only")
    nodes, upper, table, scale = basis._hat_grid
    xs = np.clip(states[:, 0], nodes[0], nodes[-1])
    b = xs - nodes[0]
    b *= scale
    np.fmin(b, table.size - 1, out=b)  # a NaN state takes the last entry
    k = table[b.astype(np.intp)]
    while True:
        lo, hi = nodes[k], upper[k]
        up, down = xs >= hi, xs < lo
        if not (up.any() or down.any()):
            break
        k += up
        k -= down
    np.minimum(hi, nodes[-1], out=hi)  # close the last cell
    h = hi - lo  # bitwise np.diff(nodes)[k]
    # the weights overwrite lo and hi, so the dense formula's temporaries
    # are never held
    w0 = np.subtract(xs, lo, out=lo)
    w0 /= h
    np.subtract(1.0, w0, out=w0)
    w1 = np.subtract(hi, xs, out=hi)
    w1 /= h
    np.subtract(1.0, w1, out=w1)
    return k, w0, w1


class _StepRegressor:
    """The one per-step projector: a design and Gram factor on the states.

    Every backward pass builds one per step and projects all of its targets
    there in sample.  Designs with no more paths than basis functions are
    rejected: they interpolate instead of regress.

    A polynomial design is stored as its dense ``(M, K)`` matrix, and its
    Gram is assembled from the design's distinct moments
    (:func:`_moment_table`).  A hat design is stored as :func:`_hat_cells`
    gives it, each state's cell and two weights, so its Gram (tridiagonal),
    ``Aᵀy`` and fitted values cost O(M) each.  Both kinds then follow the
    same rules.  Columns that do not vary are dropped, except one intercept
    (``dropped_columns`` counts the rest), and with no varying column the
    fit is the sample mean.  The unit-column scaling that the ridge floor
    refers to lives on the Gram: ``gram`` is ``S AᵀA S + ridge·I`` with
    ``S = diag(scale)`` the inverse column norms, and ``project`` applies
    ``scale`` to the right-hand side and to the coefficients.  A ``gram``
    of lower numerical rank (``np.linalg.matrix_rank``) is decided once, at
    construction: every solve on it goes to least squares and is counted
    in ``lstsq_fallbacks``.  Unit-scaled columns bound the condition number
    by ``(K + ridge) / ridge``, so only a ridge below ``K**2`` machine
    epsilons needs the rank test.
    """

    def __init__(self, basis: RegressionBasis, states: np.ndarray):
        m, dim = states.shape
        n_features = basis.n_features(dim)
        if m <= n_features:
            raise ValidationError(
                f"need more paths ({m}) than basis functions "
                f"({n_features})")
        self.lstsq_fallbacks = 0
        self.n_features = n_features
        if basis.kind == "piecewise_linear":
            a = None
            self.cells = _hat_cells(basis, states)
            nonconst, g = _hat_gram(*self.cells, n_features)
        else:
            a = basis.design(states)
            ptp = a.max(axis=0) - a.min(axis=0)
            nonconst = ptp > 0.0
        # collapse designs with no usable variation to a pure mean fit
        self.mean_only = not bool(nonconst.any())
        if self.mean_only:
            self.dropped_columns = n_features - 1
            return
        if a is not None:
            # the Gram from its distinct moments: BLAS syrk on a skinny
            # (M, K) design runs far below its arithmetic rate
            p, q, table = _moment_table(dim, basis.degree)
            g = np.array([np.dot(a[:, i], a[:, j]) for i, j in zip(p, q)])
            g = g[table]
        norms = np.sqrt(np.diag(g))
        kept = nonconst.copy()
        # keep a single intercept column in front of the varying ones
        const_cols = np.flatnonzero(~nonconst)
        live_const = const_cols[norms[const_cols] > 0.0]
        if live_const.size:
            kept[live_const[0]] = True
        if not kept.all():
            g, norms = g[np.ix_(kept, kept)], norms[kept]
            if a is not None:
                a = a[:, kept]
        norms[norms == 0.0] = 1.0
        self.a = a
        self.kept = kept
        self.dropped_columns = n_features - int(kept.sum())
        self.scale = 1.0 / norms
        g = g * np.outer(self.scale, self.scale)
        k = g.shape[0]
        if basis.ridge > 0.0:
            g = g + basis.ridge * np.eye(k)
        self.gram = g
        self.singular = (basis.ridge < k * k * np.finfo(float).eps
                         and np.linalg.matrix_rank(g) < k)

    def project(self, targets: np.ndarray) -> np.ndarray:
        """In-sample fitted values for ``(M,)`` or ``(M, k)`` targets."""
        y = np.asarray(targets, dtype=float)
        squeeze = y.ndim == 1
        # column-major targets: the reductions below run along contiguous
        # columns (numpy's axis-0 reduction over a C-ordered (M, k >= 2)
        # array is two orders of magnitude slower), and the result does not
        # depend on the caller's memory layout
        y2 = y[:, None] if squeeze else np.asfortranarray(y)
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
            rhs = scale * self._transpose_times(y2)
            if self.singular:
                self.lstsq_fallbacks += 1
                coef = np.linalg.lstsq(self.gram, rhs, rcond=None)[0]
            else:
                coef = np.linalg.solve(self.gram, rhs)
            out = self._times(scale * coef)
        if const.any():
            out[:, const] = lo[const]
        return out[:, 0] if squeeze else out

    def _transpose_times(self, y2: np.ndarray) -> np.ndarray:
        """``Aᵀy`` over the kept columns for ``(M, c)`` targets."""
        if self.a is not None:
            return self.a.T @ y2
        k, w0, w1 = self.cells
        n = self.n_features
        out = np.empty((n, y2.shape[1]))
        for c in range(y2.shape[1]):
            col = y2[:, c]
            out[:, c] = np.bincount(k, w0 * col, minlength=n)
            out[1:, c] += np.bincount(k, w1 * col, minlength=n - 1)
        return out[self.kept]

    def _times(self, coef: np.ndarray) -> np.ndarray:
        """``A @ coef`` for ``(kept, c)`` coefficients."""
        if self.a is not None:
            return self.a @ coef
        k, w0, w1 = self.cells
        full = np.zeros((self.n_features, coef.shape[1]))
        full[self.kept] = coef
        if coef.shape[1] == 1:
            full = full[:, 0]
            out = full[:-1][k]
            out *= w0
            hi = full[1:][k]
            hi *= w1
            out += hi
            return out[:, None]
        return w0[:, None] * full[:-1][k] + w1[:, None] * full[1:][k]

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


def _hat_gram(k, w0, w1, n):
    """Which of the ``n`` hat columns vary, and the hat design's Gram.

    Column ``j`` holds ``w0`` on the states of cell ``j``, ``w1`` on those
    of cell ``j - 1`` and zero elsewhere; the weights lie in ``[0, 1]`` and
    a nonzero one is at least ``2**-53``.  A column with a zero row varies
    exactly when its sum of squares is positive.  A column with no zero
    row (every state in its two cells) is checked value by value, as
    ``ptp`` over the dense column would.
    """
    diag = np.bincount(k, w0 * w0, minlength=n)
    diag[1:] += np.bincount(k, w1 * w1, minlength=n - 1)
    off = np.bincount(k, w0 * w1, minlength=n - 1)
    g = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    nonconst = diag > 0.0
    # columns kmax .. kmin + 1 hold a weight in every row
    for j in range(k.max(), k.min() + 2):
        col = np.where(k == j, w0, w1)
        nonconst[j] = col.max() > col.min()
    return nonconst, g


# ---------------------------------------------------------------------------
# Backward solution container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BackwardSolution:
    """LSMC approximation of ``(Y, Z)`` on a path ensemble.

    ``y`` has shape ``(M, N+1)``; ``z`` has shape ``(M, N, d)`` (the control
    lives on steps, not nodes).  Both are step-major in memory: ``y[:, i]``
    and ``z[:, i]`` are contiguous.  ``diagnostics`` records per-step
    Picard behaviour, per-step counts of singular Grams solved by least
    squares (``lstsq_fallbacks``) and of basis columns the regression
    dropped because they do not vary on the step's states
    (``dropped_columns``), realized input magnitudes seen by the driver,
    and the sup-node value bound.

    ``y`` and ``z`` are read-only: the levels of a truncation ladder whose
    results are bitwise equal share one pair of arrays.
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
    out = _lsmc_sweep(problem, ensemble, basis, (truncation_n,),
                      config)[truncation_n]
    if isinstance(out, Exception):
        raise out
    return out


class _Store:
    """The fields and per-step records of the levels whose results are
    bitwise equal so far; their solutions share its ``y`` and ``z``.

    ``y`` and ``z`` are step-major, so ``put`` writes each step's column
    as one contiguous slab.
    """

    def __init__(self, m: int, n: int, d: int):
        self.y = _step_major(m, n + 1)
        self.z = _step_major(m, n, d)
        self.picard_iters = np.zeros(n, dtype=int)
        self.picard_residuals = np.zeros(n)
        self.lstsq_fallbacks = np.zeros(n, dtype=int)
        self.dropped_columns = np.zeros(n, dtype=int)
        self.realized_y_max = 0.0
        self.realized_z_max = 0.0

    def split(self, i: int) -> "_Store":
        """A new store holding this one's steps ``i+1..N``."""
        m, n1 = self.y.shape
        new = _Store(m, n1 - 1, self.z.shape[2])
        new.y[:, i + 1:] = self.y[:, i + 1:]
        new.z[:, i + 1:] = self.z[:, i + 1:]
        for name in ("picard_iters", "picard_residuals", "lstsq_fallbacks",
                     "dropped_columns"):
            getattr(new, name)[:] = getattr(self, name)
        new.realized_y_max = self.realized_y_max
        new.realized_z_max = self.realized_z_max
        return new

    def put(self, i, result, z_i, fallbacks, dropped, fed, z_max) -> None:
        self.y[:, i], self.picard_iters[i], self.picard_residuals[i] = result
        self.z[:, i] = z_i
        self.lstsq_fallbacks[i] = fallbacks
        self.dropped_columns[i] = dropped
        self.realized_y_max = max([self.realized_y_max, *fed])
        self.realized_z_max = max(self.realized_z_max, z_max)


def _lsmc_sweep(problem, ensemble, basis, levels, config) -> dict:
    """:func:`lsmc_solve` at every level of ``levels`` in one backward loop.

    Returns ``{level: BackwardSolution or the exception its solve raised}``:
    a level whose Picard iteration fails drops out and the others go on.
    Failures that do not depend on the level (a non-finite terminal, a
    design with too few paths) raise at once.

    Each step builds one ``_StepRegressor``.  Finite levels whose next
    values are still bitwise equal form a group, and each group projects
    its own ``(M, 1)`` column (one product over several identical columns
    need not return identical bits).  A group runs Picard at its lowest
    level.  When every ``|y|`` fed to the driver and ``|z|`` stay at or
    below that level, ``rho_truncate`` is the identity bit for bit at every
    level of the group, so all of them take the result, an exception
    included; otherwise the lowest level splits off and the rest rerun
    Picard on the same projection.  ``UNTRUNCATED`` is never grouped: the
    raw driver sees ``-0.0`` where the truncation passes ``+0.0``.

    A group writes each step once, into its one :class:`_Store`; a level
    that splits off takes a copy of the steps after the split.  The levels
    left in a group at the end share its read-only ``y`` and ``z``.
    """
    levels = tuple(dict.fromkeys(levels))
    x = ensemble.paths
    db = ensemble.increments
    m, n1, d = x.shape
    n = n1 - 1
    times, deltas = ensemble.grid.times, ensemble.grid.deltas
    outcome: dict = {}
    # the sort key validates every finite level before any work
    finite = sorted((lv for lv in levels if lv is not UNTRUNCATED),
                    key=_check_level)

    terminal = np.asarray(problem.terminal(x[:, n, :]), dtype=float)
    if not np.all(np.isfinite(terminal)):
        raise ValidationError("terminal condition produced non-finite values")
    # (levels sharing bitwise-equal next values, lowest first; those values;
    # the levels' store)
    groups = []
    for group in [[lv] for lv in levels if lv is UNTRUNCATED] + [finite]:
        if group:
            store = _Store(m, n, d)
            store.y[:, n] = terminal
            groups.append((group, terminal, store))

    for i in range(n - 1, -1, -1):
        x_i = x[:, i, :]
        reg = _StepRegressor(basis, x_i)
        split = []
        for group, y_next, store in groups:
            before = reg.lstsq_fallbacks
            ce, control = reg.ce_and_control(y_next[:, None], db[:, i, :],
                                             deltas[i])
            fallbacks = reg.lstsq_fallbacks - before
            ce = ce[:, 0]
            z_i = control[:, 0, :]
            z_max = float(np.abs(z_i).max())
            while group:
                lo = group[0]
                result, fed = _picard(problem.driver, lo, times[i], x_i, ce,
                                      z_i, z_max, deltas[i], config, i)
                shared = (len(group) > 1 and z_max <= lo
                          and all(v <= lo for v in fed))
                takers, group = (group, []) if shared else (group[:1], group[1:])
                if isinstance(result, Exception):
                    outcome.update(dict.fromkeys(takers, result))
                    continue
                # the last takers keep the store, a level leaving it a copy
                own = store.split(i) if group else store
                own.put(i, result, z_i, fallbacks, reg.dropped_columns, fed,
                        z_max)
                split.append((takers, result[0], own))
        groups = split
        if not groups:
            break

    for group, _, store in groups:
        store.y.flags.writeable = False
        store.z.flags.writeable = False
        # max |y| without an (M, N+1) temporary
        sup_y_node = max(abs(float(store.y.min())), abs(float(store.y.max())))
        for lv in group:
            diagnostics = {
                "picard_iters": store.picard_iters.copy(),
                "picard_residuals": store.picard_residuals.copy(),
                "lstsq_fallbacks": store.lstsq_fallbacks.copy(),
                "dropped_columns": store.dropped_columns.copy(),
                "sup_y_node": sup_y_node,
                "realized_driver_y_max": store.realized_y_max,
                "realized_driver_z_max": store.realized_z_max,
            }
            outcome[lv] = BackwardSolution(
                grid=ensemble.grid, y=store.y, z=store.z, truncation_n=lv,
                basis=basis, config=config, diagnostics=diagnostics)
    return {lv: outcome[lv] for lv in levels}


def _picard(driver, level, t, x_i, ce, z_i, z_max, dt, config, i):
    """Picard iteration for ``y = ce + dt * g_n(t, x_i, y, z_i)`` at step ``i``.

    ``g_n`` is ``driver.truncated(level)``, applied bit for bit: ``z_i``
    (with ``max|z_i| = z_max``) is truncated once, not in every sweep, and
    each iterate's truncation reuses the maximum recorded in ``fed``.
    Returns ``(result, fed)``: ``result`` is ``(y, sweeps, last residual)``
    or the exception that stopped the iteration, and ``fed`` lists
    ``max|y|`` of each iterate passed to the driver.
    """
    fed = []
    yk = ce
    prev_res = math.inf
    grow = 0
    residuals = []
    try:
        zt = _truncate(z_i, level, z_max)
        for sweep in range(config.picard_max):
            fed.append(float(np.abs(yk).max()))
            gval = np.asarray(
                driver.g(t, x_i, _truncate(yk, level, fed[-1]), zt),
                dtype=float)
            if not np.all(np.isfinite(gval)):
                raise ValidationError(
                    f"driver produced non-finite values at step {i}")
            y_new = ce + dt * gval
            res = float(np.abs(y_new - yk).max())
            residuals.append(res)
            yk = y_new
            if res <= config.picard_tol:
                return (yk, sweep + 1, res), fed
            grow = grow + 1 if res > prev_res else 0
            prev_res = res
            if grow >= 3:
                raise PicardDivergenceError(
                    f"Picard residual grew three times in a row at step {i}",
                    step=i, residuals=residuals)
        raise PicardDivergenceError(
            f"Picard did not reach tol={config.picard_tol} within "
            f"{config.picard_max} sweeps at step {i} "
            f"(last residual {residuals[-1]:.3e})",
            step=i, residuals=residuals)
    except Exception as exc:
        return exc, fed


def _truncate(arr, level, amax):
    """``rho_truncate(arr, level)`` bit for bit, given ``amax = max|arr|``;
    ``arr`` itself at ``UNTRUNCATED``."""
    if level is UNTRUNCATED:
        return arr
    return arr + 0.0 if amax <= level else rho_truncate(arr, level)


# ---------------------------------------------------------------------------
# BMO-type estimator and bound audits
# ---------------------------------------------------------------------------

def estimate_bmo(solution: BackwardSolution, ensemble: PathEnsemble) -> float:
    """Grid-proxy BMO estimator of the control process.

    For each node ``t_i`` the tail energy ``sum_{j>=i} |Z_j|^2 dt_j`` is
    regressed on the state ``X_{t_i}`` in the solution's own basis; the
    estimator is the square root of the largest fitted value over all nodes
    and paths (negative fitted values are floored at zero before the root).

    Bias note: this is a *grid* proxy — the supremum runs over grid nodes
    and simulated states only, and the conditional expectation is a
    finite-dimensional projection, so the estimate can sit below the true
    BMO norm (coarse grids, small bases) or above it (regression noise in
    sparsely visited states).  It is an audit statistic, not an estimator
    with a proven rate.
    """
    x = ensemble.paths
    z = solution.z
    deltas = solution.grid.deltas
    n = z.shape[1]
    tail = np.zeros(z.shape[0])
    worst = 0.0
    for i in range(n - 1, -1, -1):
        tail = tail + np.sum(z[:, i, :] ** 2, axis=1) * deltas[i]
        fitted = _StepRegressor(solution.basis, x[:, i, :]).project(tail)
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
) -> BoundsReport:
    """Audit the solved fields against the closed-form a-priori budgets.

    ``sup-node |Y|`` must not exceed the upsilon1 budget by more than the
    relative ``y_slack``; the grid-proxy BMO estimate must not exceed the
    upsilon2 budget by more than ``bmo_slack``.  The slacks absorb Monte
    Carlo and projection noise: the budgets themselves bound the exact
    solution, not its simulation.
    """
    y_bound = problem.y_sup_bound()
    bmo_sq_bound = problem.z_bmo_bound()
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
    the solves; the levels it lacks are solved in one sweep, and only
    those the walk reaches are stored or raise.
    """
    levels = sorted(set(_check_level(v) for v in n_list))
    if len(levels) < 2:
        raise ValidationError("n_list needs at least two distinct levels")
    cache = _cache if _cache is not None else {}
    pending = _sweep_uncached(cache, problem, ensemble, basis, levels, config)
    return _walk_stable(cache, pending, levels)


def _walk_stable(cache, pending, levels):
    """The :func:`stabilization_level` walk over sorted ``levels``."""
    for lo, hi in zip(levels[:-1], levels[1:]):
        sol_lo = _solve_cached(cache, pending, lo)
        if (sol_lo.diagnostics["realized_driver_y_max"] > lo
                or sol_lo.diagnostics["realized_driver_z_max"] > lo):
            continue
        sol_hi = _solve_cached(cache, pending, hi)
        # y and z are finite by construction, so shared arrays are equal
        if ((sol_lo.y is sol_hi.y and sol_lo.z is sol_hi.z)
                or (np.array_equal(sol_lo.y, sol_hi.y)
                    and np.array_equal(sol_lo.z, sol_hi.z))):
            return lo
    return NOT_FOUND


def _relabel(solution: BackwardSolution, level: int) -> BackwardSolution:
    """:func:`lsmc_solve` at ``level`` from a solution at a lower level whose
    driver never saw ``|y|`` or ``|z|`` above that level.

    Below its own level the truncation is the identity bit for bit, so
    every higher level repeats that solve exactly: the read-only fields
    are shared, the diagnostics copied, and only ``truncation_n`` changes.
    """
    diagnostics = {k: v.copy() if isinstance(v, np.ndarray) else v
                   for k, v in solution.diagnostics.items()}
    return replace(solution, truncation_n=level, diagnostics=diagnostics)


def _sweep_uncached(cache, problem, ensemble, basis, levels, config) -> dict:
    """One :func:`_lsmc_sweep` over the ``levels`` that ``cache`` lacks."""
    todo = tuple(lv for lv in dict.fromkeys(levels) if lv not in cache)
    return _lsmc_sweep(problem, ensemble, basis, todo, config) if todo else {}


def _solve_cached(cache, pending, level):
    """The solution at ``level``: from ``cache``, else moved there from ``pending``.

    A pending exception is raised instead, so a walk raises exactly what
    solving its levels one by one, in its own order, would have raised.
    """
    if level not in cache:
        out = pending[level]
        if isinstance(out, Exception):
            raise out
        cache[level] = out
    return cache[level]
