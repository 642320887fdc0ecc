"""Independent ground-truth solvers for validating the LSMC backward solver.

Three routes, deliberately disjoint from the regression machinery:

* :func:`domination_oracle` — drivers of the exact form ``f(y)|z|^2`` admit a
  monotone transform ``u`` with ``u'' = 2 f u'`` under which ``u(Y)`` is a
  martingale, so ``Y_t = u^{-1}(E[u(phi(X_T)) | F_t])``.  With zero drift the
  conditional expectation is a Gaussian integral evaluated by Gauss–Hermite
  quadrature; otherwise it falls back to nested Monte Carlo.
* :func:`linear_oracle` — drivers ``a y + c·z + h(t, x)`` integrate in closed
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
from .forward import (PathEnsemble, _gauss_hermite_rule, euler_maruyama,
                      sample_brownian)

__all__ = [
    "DominationMap",
    "OracleResult",
    "domination_map",
    "domination_oracle",
    "gauss_hermite",
    "linear_oracle",
    "nested_mc_ce",
]


def gauss_hermite(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for expectations against a standard normal.

    The 1-d view of the tensor rule that :func:`~qfbsde.forward.mollify_drift`
    and the zero-drift oracle use: ``sum(w * g(nodes))`` approximates
    ``E[g(G)]`` with ``G ~ N(0, 1)``, and the weights are normalized to sum
    to one, which keeps constants integrated without quadrature error.
    """
    nodes, weights = _gauss_hermite_rule(points, 1)
    return nodes[:, 0], weights


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
    *,
    n_points: int = 20001,
) -> DominationMap:
    """Build the transform table for ``f`` on ``[-x_max, x_max]``.

    Integrates outward from 0 (trapezoid on a symmetric grid that contains
    0 exactly), so ``u(0) = 0`` and ``F(0) = 0`` hold without rounding.
    """
    if x_max <= 0.0:
        raise ValidationError("x_max must be positive")
    if n_points < 3:
        raise ValidationError("n_points must be at least 3")
    half = np.linspace(0.0, float(x_max), (n_points + 1) // 2)
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
    mapping: DominationMap | None = None


def domination_oracle(
    problem: FBSDEProblem,
    *,
    f: Callable[[np.ndarray], np.ndarray] | None = None,
    quad_points: int = 64,
    table_range: float | None = None,
    table_points: int = 20001,
    ensemble: PathEnsemble | None = None,
    time_indices: Sequence[int] | None = None,
    inner_paths: int = 4000,
    inner_steps: int = 64,
    seed: int = 90210,
) -> OracleResult:
    """Closed-form-by-transform solution for drivers ``g = f(y) |z|^2``.

    ``f`` defaults to the problem driver's own ``f`` evaluated at ``|y|``
    (correct whenever the driver really is ``f(|y|)|z|^2`` with the solution
    staying on one side, and for even ``f`` always); pass it explicitly for
    signed variants.  With ``b == 0`` the terminal state is exactly Gaussian
    and the expectation is Gauss–Hermite quadrature; otherwise the forward
    marginal is sampled with an Euler scheme and the expectation is a plain
    (or, for mid-grid fields, nested) Monte Carlo average.

    When ``ensemble`` and ``time_indices`` are given, the conditional
    expectations at those nodes are evaluated per outer path and returned as
    ``y_field``.  With zero drift both the value and the field use the tensor
    Gauss–Hermite rule of :func:`~qfbsde.forward.mollify_drift` (at most
    300 000 nodes), so the field costs ``quad_points**d`` terminal
    evaluations per node.
    """
    if not math.isfinite(problem.terminal_bound):
        raise ValidationError(
            f"domination oracle needs a bounded terminal, but {problem.label!r} "
            f"has an unbounded one (terminal_bound={problem.terminal_bound})")
    if f is None:
        if problem.driver.f is None:
            raise ValidationError(
                "driver carries no f; pass one explicitly")
        f_raw = problem.driver.f
        f = lambda y: np.asarray(f_raw(np.abs(y)), dtype=float)  # noqa: E731
    rng_bound = problem.terminal_bound * 1.000001 + 1e-9
    mapping = domination_map(
        f, table_range if table_range is not None else rng_bound,
        n_points=table_points)

    phi = problem.terminal
    t_total = problem.horizon
    x0 = np.asarray(problem.x0, dtype=float)
    d = problem.dim
    drift_free = _is_zero_drift(problem, x0, t_total)

    if drift_free:
        u_mean, se = _gh_expectation(mapping, phi, x0, t_total, d, quad_points)
    else:
        u_mean, se = _mc_expectation(
            mapping, phi, problem, inner_paths, inner_steps, seed)
    y0 = float(mapping.inverse(np.array([u_mean]))[0])
    # delta method: d u^{-1} / d v = 1 / u'(u^{-1}(v))
    up = float(np.interp(y0, mapping.xs, mapping.u_prime))
    stderr = se / max(up, 1e-300)

    y_field = None
    idx_out = None
    if ensemble is not None and time_indices is not None:
        idx_out = tuple(int(i) for i in time_indices)
        y_field = _oracle_field(
            mapping, phi, problem, ensemble, idx_out,
            drift_free, quad_points, inner_paths, inner_steps, seed)
    return OracleResult(y0=y0, stderr=float(stderr), y_field=y_field,
                        time_indices=idx_out, mapping=mapping)


def _is_zero_drift(problem: FBSDEProblem, x0: np.ndarray, t: float) -> bool:
    probe = np.vstack([x0, x0 + 1.0, x0 - 1.0])
    for s in (0.0, 0.5 * t, t):
        if np.any(np.asarray(problem.drift(s, probe), dtype=float) != 0.0):
            return False
    return True


def _gh_expectation(mapping, phi, x0, t_total, d, quad_points):
    nodes, weights = _gauss_hermite_rule(quad_points, d)
    states = x0[None, :] + math.sqrt(t_total) * nodes
    vals = mapping.u(np.asarray(phi(states), dtype=float))
    return float(np.sum(weights * vals)), 0.0


def _mc_expectation(mapping, phi, problem, n_paths, n_steps, seed):
    grid = TimeGrid.uniform(problem.horizon, n_steps)
    inc = sample_brownian(grid, n_paths, problem.dim, seed)
    ens = euler_maruyama(problem, grid, inc, seed=seed)
    vals = mapping.u(np.asarray(phi(ens.paths[:, -1, :]), dtype=float))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_paths))


def _oracle_field(mapping, phi, problem, ensemble, idx_out, drift_free,
                  quad_points, inner_paths, inner_steps, seed):
    grid = ensemble.grid
    t_total = grid.horizon
    out = np.empty((ensemble.paths.shape[0], len(idx_out)))
    for col, i in enumerate(idx_out):
        states = ensemble.paths[:, i, :]
        tau = t_total - grid.times[i]
        if tau <= 0.0:
            u_cond = mapping.u(np.asarray(phi(states), dtype=float))
        elif drift_free:
            nodes, weights = _gauss_hermite_rule(quad_points, states.shape[1])
            u_cond = np.zeros(states.shape[0])
            for g_node, w in zip(nodes, weights):
                shifted = states + math.sqrt(tau) * g_node
                u_cond += w * mapping.u(np.asarray(phi(shifted), dtype=float))
        else:
            u_cond, _ = nested_mc_ce(
                problem, states, i, grid,
                lambda xt: mapping.u(np.asarray(phi(xt), dtype=float)),
                inner_paths=inner_paths, seed=seed)
        out[:, col] = mapping.inverse(
            np.clip(u_cond, mapping.u_values[0], mapping.u_values[-1]))
    return out


def linear_oracle(
    problem: FBSDEProblem,
    a: float,
    c,
    h: Callable[[float, np.ndarray], np.ndarray] | None,
    *,
    n_steps: int = 64,
    n_paths: int = 100_000,
    seed: int = 40961,
) -> OracleResult:
    """Closed form for linear drivers ``g = a y + c·z + h(t, x)``.

    The ``c·z`` term is a Girsanov tilt: simulating the forward state with
    drift ``b + c`` absorbs it, leaving
    ``Y_0 = E[e^{aT} phi(X~_T) + int_0^T e^{as} h(s, X~_s) ds]``
    under the shifted dynamics.  The time integral is a trapezoid along each
    path, so a deterministic ``h`` is integrated at quadrature accuracy.
    """
    c_vec = np.zeros(problem.dim) + np.asarray(c, dtype=float)
    shifted = problem.with_drift(
        lambda t, x, _b=problem.drift, _c=c_vec: np.asarray(
            _b(t, x), dtype=float) + _c,
        label=f"{problem.label or 'problem'}+girsanov-shift")
    grid = TimeGrid.uniform(problem.horizon, n_steps)
    inc = sample_brownian(grid, n_paths, problem.dim, seed)
    paths = euler_maruyama(shifted, grid, inc, seed=seed).paths

    t_total = problem.horizon
    per_path = math.exp(a * t_total) * np.asarray(
        problem.terminal(paths[:, -1, :]), dtype=float)
    if h is not None:
        times = grid.times
        hv = np.stack(
            [np.exp(a * t) * np.asarray(h(t, paths[:, i, :]), dtype=float)
             for i, t in enumerate(times)], axis=1)
        per_path = per_path + np.trapezoid(hv, times, axis=1)
    return OracleResult(
        y0=float(per_path.mean()),
        stderr=float(per_path.std(ddof=1) / math.sqrt(n_paths)))


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

