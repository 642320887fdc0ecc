"""Independent ground-truth solvers for validating the LSMC backward solver.

Three routes, deliberately disjoint from the regression machinery:

* :func:`domination_oracle` — drivers of the exact form ``f(y)|z|^2`` admit a
  monotone transform ``u`` with ``u'' = 2 f u'`` under which ``u(Y)`` is a
  martingale, so ``Y_t = u^{-1}(E[u(phi(X_T)) | F_t])``.  With a declared
  zero drift the conditional expectation is a Gaussian integral evaluated
  by Gauss–Hermite quadrature; otherwise it is nested Monte Carlo
  (:func:`nested_mc_ce`).
* :func:`linear_oracle` — drivers ``a y + c·z`` integrate in closed
  form after a measure shift: simulate under drift ``b + c`` and discount.
* :func:`nested_mc_ce` — brute-force conditional expectations by re-simulating
  from each outer state, with deterministic per-state substreams.

None of these ever touches a regression, which is what makes them usable as
oracles for the solver that does.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import FBSDEProblem, TimeGrid, ValidationError, _cumtrapz
from .forward import (PathEnsemble, _gauss_hermite_rule, _node_average,
                      euler_maruyama, sample_brownian)

__all__ = [
    "DominationMap",
    "OracleResult",
    "domination_map",
    "domination_oracle",
    "linear_oracle",
    "nested_mc_ce",
]

_DOMINATION_POINTS = 20001  # odd, so the symmetric table grid contains 0
# the linear oracle's Monte Carlo: Euler steps, paths and seed
_LINEAR_STEPS = 64
_LINEAR_PATHS = 100_000
_LINEAR_SEED = 40961


# ---------------------------------------------------------------------------
# The monotone transform u and its table inverse
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DominationMap:
    """Tabulated transform ``u(x) = int_0^x exp(2 int_0^y f) dy`` on a range.

    ``u`` is strictly increasing with ``u(0) = 0`` (the integrand is a
    positive exponential), so it is invertible on the table range; the
    inverse of the piecewise-linear interpolant is the interpolant with the
    axes swapped, which :meth:`inverse` evaluates exactly.
    """

    xs: np.ndarray        # strictly increasing grid containing 0
    u_values: np.ndarray  # u at xs
    u_prime: np.ndarray   # exp(2 F) at xs

    def __post_init__(self):
        if not np.all(np.isfinite(self.u_values)):
            raise ValidationError("transform table is non-finite; "
                                  "f blew up on the requested range")
        if np.any(np.diff(self.u_values) <= 0.0):
            raise ValidationError("transform table is not strictly increasing")

    @property
    def x_range(self) -> tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])

    def u(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        lo, hi = self.x_range
        if np.any(x < lo) or np.any(x > hi):
            raise ValidationError(
                f"u() evaluated outside the table range [{lo}, {hi}]")
        return np.interp(x, self.xs, self.u_values)

    def inverse(self, values) -> np.ndarray:
        """``u^{-1}``: the exact inverse of the monotone interpolant."""
        v = np.asarray(values, dtype=float)
        if np.any(v < self.u_values[0]) or np.any(v > self.u_values[-1]):
            raise ValidationError("inverse() target outside the table range")
        return np.interp(v, self.u_values, self.xs)


def domination_map(
    f: Callable[[np.ndarray], np.ndarray],
    x_max: float,
) -> DominationMap:
    """Build the transform table for ``f`` on ``[-x_max, x_max]``.

    Integrates outward from 0 (trapezoid on a symmetric grid that contains
    0 exactly), so ``u(0) = 0`` and ``F(0) = 0`` hold without rounding.
    """
    if x_max <= 0.0:
        raise ValidationError("x_max must be positive")
    half = np.linspace(0.0, float(x_max), (_DOMINATION_POINTS + 1) // 2)
    xs = np.concatenate([-half[:0:-1], half])
    fv = np.asarray(f(xs), dtype=float)
    if fv.shape != xs.shape or not np.all(np.isfinite(fv)):
        raise ValidationError("f must return finite values on the range")
    k = half.size - 1  # index of 0 in xs
    big_f = np.empty_like(xs)
    big_f[k:] = _cumtrapz(fv[k:], xs[k:])
    big_f[: k + 1] = -_cumtrapz(fv[k::-1], -xs[k::-1])[::-1]
    up = np.exp(2.0 * big_f)
    u = np.empty_like(xs)
    u[k:] = _cumtrapz(up[k:], xs[k:])
    u[: k + 1] = -_cumtrapz(up[k::-1], -xs[k::-1])[::-1]
    return DominationMap(xs=xs, u_values=u, u_prime=up)


# ---------------------------------------------------------------------------
# Oracle drivers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleResult:
    """Value (and optional per-path field) produced by an oracle solver."""

    y0: float
    stderr: float
    y_field: np.ndarray | None = None       # (M, len(time_indices))
    time_indices: tuple[int, ...] | None = None


def domination_oracle(
    problem: FBSDEProblem,
    *,
    quad_points: int = 64,
    ensemble: PathEnsemble | None = None,
    time_indices: Sequence[int] | None = None,
    inner_paths: int = 4000,
    inner_steps: int = 64,
    seed: int = 90210,
) -> OracleResult:
    """Closed-form-by-transform solution for drivers ``g = f(y) |z|^2``.

    ``f`` is the problem driver's own ``f`` evaluated at ``|y|`` (correct
    whenever the driver really is ``f(|y|)|z|^2`` with the solution staying
    on one side, and for even ``f`` always), tabulated on the terminal's
    bound.

    Value and field are one conditional expectation
    ``E[u(phi(X_T)) | X_{t_i} = x]``: ``y0`` is the field at ``x0`` on node 0
    of ``TimeGrid.uniform(T, inner_steps)``, and with ``ensemble`` and
    ``time_indices`` the field at those nodes is returned per outer path as
    ``y_field``.  The expectation is the tensor Gauss–Hermite rule of
    :func:`~qfbsde.forward.mollify_drift` (``quad_points**d`` terminal
    evaluations per state, at most 300 000) when the problem declares
    ``drift_bound == 0`` and its drift reads zero at ``x0`` and ``x0 +/- 1``
    at times 0, T/2 and T; otherwise it is :func:`nested_mc_ce`
    (``inner_paths >= 100`` branches per state).  The declaration decides:
    a few probe points cannot see a drift that vanishes exactly there, as
    ``tanh(3(x^3 - x))`` does at 0 and +/-1.  The probe stays because
    :meth:`~qfbsde.core.FBSDEProblem.with_drift` keeps the bound of the
    drift it replaces.
    """
    if not math.isfinite(problem.terminal_bound):
        raise ValidationError(
            f"domination oracle needs a bounded terminal, but {problem.label!r} "
            f"has an unbounded one (terminal_bound={problem.terminal_bound})")
    f_raw = problem.driver.f
    if f_raw is None:
        raise ValidationError("driver carries no growth profile f")
    mapping = domination_map(
        lambda y: np.asarray(f_raw(np.abs(y)), dtype=float),
        problem.terminal_bound * 1.000001 + 1e-9)
    x0 = np.asarray(problem.x0, dtype=float)
    drift_free = (problem.drift_bound == 0.0
                  and _is_zero_drift(problem, x0, problem.horizon))

    def y_at(states, i, grid):
        u_cond, se = _conditional_u(states, i, grid, problem, mapping,
                                    drift_free, quad_points, inner_paths, seed)
        return mapping.inverse(np.clip(
            u_cond, mapping.u_values[0], mapping.u_values[-1])), se

    y_start, se = y_at(x0[None, :], 0,
                       TimeGrid.uniform(problem.horizon, inner_steps))
    y0 = float(y_start[0])
    # delta method: d u^{-1} / d v = 1 / u'(u^{-1}(v))
    up = float(np.interp(y0, mapping.xs, mapping.u_prime))
    stderr = float(se[0]) / max(up, 1e-300)

    y_field = None
    idx_out = None
    if ensemble is not None and time_indices is not None:
        idx_out = tuple(int(i) for i in time_indices)
        y_field = np.empty((ensemble.n_paths, len(idx_out)))
        for col, i in enumerate(idx_out):
            y_field[:, col] = y_at(ensemble.paths[:, i, :], i, ensemble.grid)[0]
    return OracleResult(y0=y0, stderr=stderr, y_field=y_field,
                        time_indices=idx_out)


def _is_zero_drift(problem: FBSDEProblem, x0: np.ndarray, t: float) -> bool:
    probe = np.vstack([x0, x0 + 1.0, x0 - 1.0])
    for s in (0.0, 0.5 * t, t):
        if np.any(np.asarray(problem.drift(s, probe), dtype=float) != 0.0):
            return False
    return True


def _conditional_u(states, i, grid, problem, mapping, drift_free,
                   quad_points, inner_paths, seed):
    """``E[u(phi(X_T)) | X_{t_i} = states]`` per row, and standard errors."""
    def u_phi(x):
        return mapping.u(np.asarray(problem.terminal(x), dtype=float))

    if not drift_free:
        return nested_mc_ce(problem, states, i, grid, u_phi,
                            inner_paths=inner_paths, seed=seed)
    if i == grid.n_steps:
        est = u_phi(states)
    else:
        nodes, weights = _gauss_hermite_rule(quad_points, problem.dim)
        tau = grid.horizon - grid.times[i]
        est = _node_average(u_phi, states, math.sqrt(tau), nodes, weights)[:, 0]
    return est, np.zeros_like(est)


def linear_oracle(problem: FBSDEProblem, a: float, c) -> OracleResult:
    """Closed form for linear drivers ``g = a y + c·z``.

    The ``c·z`` term is a Girsanov tilt: simulating the forward state with
    drift ``b + c`` absorbs it, leaving ``Y_0 = E[e^{aT} phi(X~_T)]`` under
    the shifted dynamics, estimated from 100 000 Euler paths on 64 steps
    (seed 40961).
    """
    c_vec = np.zeros(problem.dim) + np.asarray(c, dtype=float)
    shifted = problem.with_drift(
        lambda t, x, _b=problem.drift, _c=c_vec: np.asarray(
            _b(t, x), dtype=float) + _c,
        label=f"{problem.label or 'problem'}+girsanov-shift")
    grid = TimeGrid.uniform(problem.horizon, _LINEAR_STEPS)
    inc = sample_brownian(grid, _LINEAR_PATHS, problem.dim, _LINEAR_SEED)
    paths = euler_maruyama(shifted, grid, inc, seed=_LINEAR_SEED).paths
    per_path = math.exp(a * problem.horizon) * np.asarray(
        problem.terminal(paths[:, -1, :]), dtype=float)
    return OracleResult(
        y0=float(per_path.mean()),
        stderr=float(per_path.std(ddof=1) / math.sqrt(_LINEAR_PATHS)))


def nested_mc_ce(
    problem: FBSDEProblem,
    states: np.ndarray,
    t_index: int,
    grid: TimeGrid,
    functional: Callable[[np.ndarray], np.ndarray],
    *,
    inner_paths: int = 1000,
    seed: int = 7,
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional expectation ``E[functional(X_T) | X_t = x]`` by branching.

    For each outer state, re-simulates ``inner_paths`` trajectories over the
    remaining sub-grid and averages ``functional`` at the terminal state.
    Unbiased; each outer state gets its own deterministic substream, so the
    result is reproducible and independent of the order of outer states.
    Returns per-state estimates and their standard errors.
    """
    if inner_paths < 100:
        raise ValidationError("inner_paths must be at least 100")
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.shape[1] != problem.dim:
        raise ValidationError("state dimension disagrees with the problem")
    times = grid.times[t_index:]
    if times.size < 2:
        # at the terminal node the conditioning is trivial
        vals = np.asarray(functional(states), dtype=float)
        return vals, np.zeros_like(vals)
    sub = TimeGrid(times - times[0])
    est = np.empty(states.shape[0])
    se = np.empty(states.shape[0])
    shifted = problem.with_drift(lambda t, x: problem.drift(times[0] + t, x))
    for k, x in enumerate(states):
        # substreams are keyed on the state value itself (not its position),
        # which is what makes the estimates order-independent
        digest = hashlib.blake2b(
            np.ascontiguousarray(x, dtype=np.float64).tobytes(),
            digest_size=8).digest()
        sub_seed = ((seed * 0x9E3779B9) ^ int.from_bytes(digest, "little")) \
            & (2**63 - 1)
        inc = sample_brownian(sub, inner_paths, problem.dim, sub_seed)
        branch = euler_maruyama(shifted, sub, inc, seed=sub_seed, x0=x)
        vals = np.asarray(functional(branch.paths[:, -1, :]), dtype=float)
        est[k] = vals.mean()
        se[k] = vals.std(ddof=1) / math.sqrt(inner_paths)
    return est, se

