"""Forward SDE machinery: sampling, flows, mollification, drift transforms.

The forward model is ``X_t = x0 + int_0^t b(s, X_s) ds + B_t`` with identity
diffusion.  Everything downstream (LSMC, derivative processes, diagnostics)
consumes the :class:`PathEnsemble` produced here, so path generation is kept
strictly deterministic: increments come from counter-based Philox streams
keyed by ``(seed, path-block)``, which makes the numbers for any given path
independent of how many paths are requested and of any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import solve_banded

from .core import FBSDEProblem, QfbsdeError, TimeGrid, ValidationError

__all__ = [
    "PathEnsemble",
    "sample_brownian",
    "euler_maruyama",
    "simulate",
    "validate_ensemble",
    "MollifiedDrift",
    "mollify_drift",
    "FlowFields",
    "variational_flow",
    "malliavin_forward",
    "ZvonkinTransform",
    "zvonkin_transform_1d",
    "ContinuityReport",
    "continuity_diagnostic",
]

_BLOCK = 4096
_SCHEME = f"philox4x64-block{_BLOCK}"
_MASK64 = (1 << 64) - 1


class DriftEvaluationError(QfbsdeError):
    """The drift produced non-finite values along the simulation."""


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated forward paths together with their driving increments.

    ``increments`` has shape ``(M, N, d)`` (Brownian increments per step),
    ``paths`` has shape ``(M, N+1, d)``.  ``scheme`` records the substream
    convention used to draw the noise so persisted ensembles are
    self-describing.
    """

    grid: TimeGrid
    increments: np.ndarray
    paths: np.ndarray
    seed: int
    x0: np.ndarray
    scheme: str = _SCHEME

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def dim(self) -> int:
        return self.paths.shape[2]


def sample_brownian(grid: TimeGrid, n_paths: int, dim: int, seed: int) -> np.ndarray:
    """Brownian increments of shape ``(n_paths, N, dim)`` on ``grid``.

    Paths are drawn in blocks of ``4096`` from ``Philox`` streams keyed by
    ``(seed, block index)``; the numbers attached to a given path therefore
    do not depend on the total number of paths requested, and identical
    arguments always reproduce the identical array.
    """
    if n_paths < 1:
        raise ValidationError("n_paths must be >= 1")
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    n = grid.n_steps
    out = np.empty((n_paths, n, dim), dtype=np.float64)
    for start in range(0, n_paths, _BLOCK):
        block = start // _BLOCK
        key = ((block & _MASK64) << 64) | (int(seed) & _MASK64)
        gen = np.random.Generator(np.random.Philox(key=key))
        take = min(_BLOCK, n_paths - start)
        out[start:start + take] = gen.standard_normal((take, n, dim))
    out *= np.sqrt(grid.deltas)[None, :, None]
    return out


def euler_maruyama(
    problem: FBSDEProblem, grid: TimeGrid, increments: np.ndarray,
    *, seed: int = -1, x0=None,
) -> PathEnsemble:
    """Euler–Maruyama forward paths driven by the given increments.

    ``seed`` only labels the resulting ensemble (use :func:`simulate` to draw
    and simulate in one step); ``-1`` marks externally supplied noise.
    ``x0`` overrides the problem's initial state — a single point or one row
    per path — which is how conditional (branching) simulations restart from
    interior states.  Raises :class:`DriftEvaluationError` as soon as the
    drift returns a non-finite value (rough drifts that were not mollified
    can do this when fed pathological states).
    """
    m, n, d = increments.shape
    if n != grid.n_steps:
        raise ValidationError(
            f"increments have {n} steps but the grid has {grid.n_steps}")
    if d != problem.dim:
        raise ValidationError(f"increments dim {d} != problem dim {problem.dim}")
    start = problem.x0 if x0 is None else np.asarray(x0, dtype=float)
    paths = np.empty((m, n + 1, d), dtype=np.float64)
    paths[:, 0, :] = start
    deltas = grid.deltas
    times = grid.times
    for i in range(n):
        bval = np.asarray(problem.drift(times[i], paths[:, i, :]), dtype=float)
        if bval.shape != (m, d):
            raise ValidationError(
                f"drift returned shape {bval.shape}, expected {(m, d)}")
        if not np.all(np.isfinite(bval)):
            raise DriftEvaluationError(
                f"drift produced non-finite values at t={times[i]:.6g}")
        paths[:, i + 1, :] = paths[:, i, :] + bval * deltas[i] + increments[:, i, :]
    return PathEnsemble(
        grid=grid, increments=increments, paths=paths,
        seed=int(seed), x0=np.asarray(start, dtype=float),
    )


def simulate(
    problem: FBSDEProblem, grid: TimeGrid, n_paths: int, seed: int
) -> PathEnsemble:
    """Sample increments and run Euler–Maruyama in one deterministic call."""
    inc = sample_brownian(grid, n_paths, problem.dim, seed)
    return euler_maruyama(problem, grid, inc, seed=int(seed))


def validate_ensemble(ensemble: PathEnsemble, *, n_sigma: float = 6.0) -> dict:
    """Moment audit of the increments: mean and variance per (step, coord).

    Sample means should sit within ``n_sigma * sqrt(dt/M)`` of zero and
    sample variances within the matching normal-approximation band of
    ``dt``.  Returns a report dict with the worst standardized deviations.
    """
    inc = ensemble.increments
    m = inc.shape[0]
    dt = ensemble.grid.deltas[None, :, None]
    mean_dev = np.abs(inc.mean(axis=0, keepdims=True)) / np.sqrt(dt / m)
    var = inc.var(axis=0, ddof=1, keepdims=True)
    var_dev = np.abs(var - dt) / (dt * math.sqrt(2.0 / max(m - 1, 1)))
    report = {
        "worst_mean_sigma": float(mean_dev.max()),
        "worst_var_sigma": float(var_dev.max()),
        "n_sigma": float(n_sigma),
        "passed": bool(mean_dev.max() <= n_sigma and var_dev.max() <= n_sigma),
    }
    return report


# ---------------------------------------------------------------------------
# Gaussian mollification of rough drifts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MollifiedDrift:
    """Gaussian smoothing ``b_eps(t,x) = E[b(t, x + eps*G)]``, ``G ~ N(0, I)``.

    Values and Jacobians are Gauss–Hermite quadratures; the Jacobian uses the
    Gaussian integration-by-parts identity

        ``grad b_eps(x) = E[b(t, x + eps*G) G^T] / eps``

    so it never differentiates ``b`` itself — exactly what rough drifts need.
    Quadrature weights are normalized to sum to one, hence
    ``|b_eps| <= sup|b|`` holds exactly node-by-node.
    """

    raw: Callable
    eps: float
    nodes: np.ndarray    # (K, d) standard-normal quadrature points
    weights: np.ndarray  # (K,), sums to 1

    def __call__(self, t, x):
        return self.value(t, x)

    def value(self, t, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        m, d = x.shape
        k = self.nodes.shape[0]
        shifted = (x[:, None, :] + self.eps * self.nodes[None, :, :]).reshape(m * k, d)
        vals = np.asarray(self.raw(t, shifted), dtype=float).reshape(m, k, d)
        return np.einsum("mkd,k->md", vals, self.weights)

    def jacobian(self, t, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        m, d = x.shape
        k = self.nodes.shape[0]
        shifted = (x[:, None, :] + self.eps * self.nodes[None, :, :]).reshape(m * k, d)
        vals = np.asarray(self.raw(t, shifted), dtype=float).reshape(m, k, d)
        w_nodes = self.weights[:, None] * self.nodes  # (K, d)
        return np.einsum("mki,kj->mij", vals, w_nodes) / self.eps


def mollify_drift(drift: Callable, eps: float, *, dim: int = 1,
                  quad_points: int = 64) -> MollifiedDrift:
    """Build the Gaussian-smoothed version of a (possibly rough) drift.

    ``quad_points`` Gauss–Hermite nodes are used per dimension; the tensor
    grid grows like ``quad_points**dim``, so high dimensions should lower
    the per-axis count.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ValidationError(f"eps must be positive, got {eps}")
    nodes, weights = _gauss_hermite_rule(quad_points, dim)
    return MollifiedDrift(raw=drift, eps=float(eps), nodes=nodes, weights=weights)


def _gauss_hermite_rule(quad_points: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss–Hermite rule for ``E[g(G)]``, ``G ~ N(0, I_dim)``.

    Returns nodes ``(quad_points**dim, dim)`` and weights normalized to sum
    to one, so constants integrate without quadrature error.  The grid is
    capped at 300 000 nodes.
    """
    if quad_points < 2:
        raise ValidationError("quad_points must be >= 2")
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    if quad_points ** dim > 300_000:
        raise ValidationError("tensor quadrature grid too large; lower quad_points")
    t_nodes, t_weights = np.polynomial.hermite.hermgauss(quad_points)
    axis_nodes = math.sqrt(2.0) * t_nodes
    axis_weights = t_weights / math.sqrt(math.pi)
    grids = np.meshgrid(*([axis_nodes] * dim), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([axis_weights] * dim), indexing="ij")
    weights = np.ones(nodes.shape[0])
    for wg in wgrids:
        weights = weights * wg.ravel()
    return nodes, weights / weights.sum()


# ---------------------------------------------------------------------------
# First-variation flow and Malliavin forward derivative
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowFields:
    """First-variation flow ``nablaX`` and its inverse along each path.

    ``nablaX[:, i]`` solves the forward Euler recursion
    ``nablaX_{i+1} = (I + dt * Jb(t_i, X_i)) nablaX_i`` with identity start;
    the inverse multiplies by the exact inverse of each one-step factor, so
    it discretizes ``d(nablaX)^{-1} = -(nablaX)^{-1} Jb dt`` while keeping
    ``nablaX_inv @ nablaX = I`` at round-off level on every node.
    """

    grid: TimeGrid
    nabla_x: np.ndarray      # (M, N+1, d, d)
    nabla_x_inv: np.ndarray  # (M, N+1, d, d)

    def product_deviation(self) -> float:
        d = self.nabla_x.shape[-1]
        eye = np.eye(d)
        prod = np.einsum("mnij,mnjk->mnik", self.nabla_x_inv, self.nabla_x)
        return float(np.abs(prod - eye).max())


def variational_flow(problem: FBSDEProblem, ensemble: PathEnsemble) -> FlowFields:
    """Pathwise first-variation flow of the forward map ``x0 -> X``.

    Requires a drift Jacobian on the problem (``drift_gradient``); rough
    drifts must be mollified first.  The Jacobian callable maps
    ``(t, x (M,d))`` to ``(M, d, d)``.
    """
    jac = problem.drift_gradient
    if jac is None:
        if isinstance(problem.drift, MollifiedDrift):
            jac = problem.drift.jacobian
        else:
            raise ValidationError(
                "problem has no drift gradient; mollify the drift or supply one")
    m, n1, d = ensemble.paths.shape
    n = n1 - 1
    eye = np.eye(d)
    nabla = np.empty((m, n + 1, d, d))
    nabla_inv = np.empty((m, n + 1, d, d))
    nabla[:, 0] = eye
    nabla_inv[:, 0] = eye
    deltas = ensemble.grid.deltas
    times = ensemble.grid.times
    for i in range(n):
        a = np.asarray(jac(times[i], ensemble.paths[:, i, :]), dtype=float)
        if a.shape != (m, d, d):
            raise ValidationError(f"drift jacobian shape {a.shape} != {(m, d, d)}")
        step = eye + deltas[i] * a
        nabla[:, i + 1] = np.einsum("mij,mjk->mik", step, nabla[:, i])
        # inverse of the exact one-step factor keeps the product identity
        step_inv = np.linalg.inv(step)
        nabla_inv[:, i + 1] = np.einsum("mij,mjk->mik", nabla_inv[:, i], step_inv)
    return FlowFields(grid=ensemble.grid, nabla_x=nabla, nabla_x_inv=nabla_inv)


def malliavin_forward(flow: FlowFields, s_index: int, t_index: int) -> np.ndarray:
    """Malliavin derivative ``D_s X_t = nablaX_t (nablaX_s)^{-1}``, per path."""
    if s_index > t_index:
        raise ValidationError(
            f"anchor index {s_index} exceeds target index {t_index}")
    n = flow.nabla_x.shape[1] - 1
    if not (0 <= s_index <= n and 0 <= t_index <= n):
        raise ValidationError("indices out of range")
    return np.einsum("mij,mjk->mik", flow.nabla_x[:, t_index],
                     flow.nabla_x_inv[:, s_index])


# ---------------------------------------------------------------------------
# Zvonkin-type drift removal (one-dimensional)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZvonkinTransform:
    """Solution of the resolvent PDE and the induced change of coordinates.

    ``u`` solves ``u_t + u_xx/2 + b u_x - lam*u = -b`` backward in time with
    zero terminal data and reflecting (Neumann) sides, on the rectangle
    ``[0,T] x [x_lo, x_hi]``.  The map ``Psi(t,x) = x + u(t,x)`` straightens
    the drift: in the new coordinate the diffusion becomes
    ``sigma_tilde = Psi_x(Psi^{-1})`` with drift ``-lam*u(t, Psi^{-1})``,
    both Lipschitz in space even when ``b`` is merely bounded.
    """

    lam: float
    xs: np.ndarray        # (S,)
    times: np.ndarray     # (K+1,)
    u: np.ndarray         # (K+1, S)
    u_x: np.ndarray       # (K+1, S) central differences
    b_values: np.ndarray  # (K+1, S)

    def psi(self, t_index: int, x) -> np.ndarray:
        return np.asarray(x, dtype=float) + np.interp(x, self.xs, self.u[t_index])

    def psi_x(self, t_index: int, x) -> np.ndarray:
        return 1.0 + np.interp(x, self.xs, self.u_x[t_index])

    def psi_inverse(self, t_index: int, y) -> np.ndarray:
        """Exact inverse of the piecewise-linear ``Psi(t, .)``.

        ``Psi`` interpolates the knot values ``xs + u[t]`` linearly, so its
        inverse interpolates ``xs`` against them; targets beyond the end
        knots clamp to the box.  Raises :class:`ValidationError` when the
        knot values are not strictly increasing (``Psi`` is then not
        invertible).
        """
        knots = self.xs + self.u[t_index]
        if np.any(np.diff(knots) <= 0.0):
            raise ValidationError(
                f"Psi(t_{t_index}, .) is not strictly increasing on the grid")
        return np.interp(np.asarray(y, dtype=float), knots, self.xs)

    def drift_tilde(self, t_index: int, y) -> np.ndarray:
        x = self.psi_inverse(t_index, y)
        return -self.lam * np.interp(x, self.xs, self.u[t_index])

    def sigma_tilde(self, t_index: int, y) -> np.ndarray:
        x = self.psi_inverse(t_index, y)
        return self.psi_x(t_index, x)

    def diffeomorphism_margin(self) -> float:
        """min over the grid of ``1 + u_x``; positive means invertible."""
        return float((1.0 + self.u_x).min())

    def residual(self) -> float:
        """Max interior residual of the implicit-Euler discrete operator.

        For each step: ``(u_{k+1}-u_k)/dt + D2 u_k/2 + b D1 u_k - lam*u_k + b``
        with the same centered stencils used in the solve; a correct assembly
        leaves only round-off here.
        """
        h = self.xs[1] - self.xs[0]
        worst = 0.0
        for k in range(len(self.times) - 1):
            dt = self.times[k + 1] - self.times[k]
            uk, uk1 = self.u[k], self.u[k + 1]
            d2 = (uk[2:] - 2.0 * uk[1:-1] + uk[:-2]) / (h * h)
            d1 = (uk[2:] - uk[:-2]) / (2.0 * h)
            b_mid = self.b_values[k][1:-1]
            r = ((uk1[1:-1] - uk[1:-1]) / dt + 0.5 * d2 + b_mid * d1
                 - self.lam * uk[1:-1] + b_mid)
            worst = max(worst, float(np.abs(r).max()))
        return worst


def zvonkin_transform_1d(
    drift: Callable,
    lam: float,
    space_grid: np.ndarray,
    time_grid: np.ndarray,
) -> ZvonkinTransform:
    """Solve the 1-d resolvent PDE for a bounded drift and package the map.

    ``drift`` takes ``(t, x)`` with ``x`` of shape ``(S, 1)`` and returns
    ``(S, 1)`` (the common drift signature).  ``space_grid`` must be uniform.
    Implicit Euler in time, centered differences in space, reflecting sides.
    """
    xs = np.asarray(space_grid, dtype=float)
    ts = np.asarray(time_grid, dtype=float)
    if xs.ndim != 1 or xs.size < 5:
        raise ValidationError("space_grid needs at least 5 nodes")
    if ts.ndim != 1 or ts.size < 2:
        raise ValidationError("time_grid needs at least 2 nodes")
    hs = np.diff(xs)
    if np.any(hs <= 0) or not np.allclose(hs, hs[0], rtol=1e-12, atol=0):
        raise ValidationError("space_grid must be uniform and increasing")
    if np.any(np.diff(ts) <= 0):
        raise ValidationError("time_grid must be strictly increasing")
    if not (lam > 0):
        raise ValidationError("lam must be positive")

    s = xs.size
    h = float(hs[0])
    kmax = ts.size - 1
    u = np.zeros((ts.size, s))
    u_x = np.zeros((ts.size, s))
    b_values = np.empty((ts.size, s))
    for k in range(ts.size):
        b_values[k] = np.asarray(drift(float(ts[k]), xs[:, None]), dtype=float).reshape(s)

    for k in range(kmax - 1, -1, -1):
        dt = float(ts[k + 1] - ts[k])
        b = b_values[k]
        # rows of I - dt*(L - lam): tridiagonal, Neumann via mirrored ghosts
        main = np.empty(s)
        lower = np.empty(s - 1)
        upper = np.empty(s - 1)
        main[:] = 1.0 + dt * (1.0 / (h * h) + lam)
        upper[:] = -dt * (0.5 / (h * h) + b[:-1] / (2.0 * h))
        lower[:] = -dt * (0.5 / (h * h) - b[1:] / (2.0 * h))
        # mirror ghost: at the left node u_{-1} = u_1, so the off-diagonal
        # doubles and the advective term cancels; symmetrically on the right
        upper[0] = -dt / (h * h)
        lower[-1] = -dt / (h * h)
        rhs = u[k + 1] + dt * b
        ab = np.zeros((3, s))
        ab[0, 1:] = upper
        ab[1, :] = main
        ab[2, :-1] = lower
        u[k] = solve_banded((1, 1), ab, rhs)

    for k in range(ts.size):
        u_x[k, 1:-1] = (u[k, 2:] - u[k, :-2]) / (2.0 * h)
        u_x[k, 0] = 0.0
        u_x[k, -1] = 0.0
    return ZvonkinTransform(lam=float(lam), xs=xs, times=ts, u=u, u_x=u_x,
                            b_values=b_values)


# ---------------------------------------------------------------------------
# Two-point continuity diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuityReport:
    """Coupled two-point moment ratios for the forward flow."""

    pairs: list
    ratios: np.ndarray
    std_errors: np.ndarray
    n_paths: int
    n_steps: int

    @property
    def max_ratio(self) -> float:
        return float(self.ratios.max())


def continuity_diagnostic(
    problem: FBSDEProblem,
    pairs: Sequence,
    *,
    n_steps: int,
    n_paths: int,
    seed: int,
) -> ContinuityReport:
    """Estimate ``E|X_t^x - X_s^y|^2 / (|t-s| + |x-y|^2)`` per probe pair.

    Each pair ``(s, t, x, y)`` is simulated with *shared* noise (the same
    increment array drives the start at ``x`` and the start at ``y``), and
    the probe times are snapped to the simulation grid.  A pair keeps only
    its two snapped nodes, so a call holds at most one path array at a time.
    Degenerate pairs with ``s == t`` and ``x == y`` are rejected — their
    denominator vanishes.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("at least one probe pair is required")
    grid = TimeGrid.uniform(problem.horizon, n_steps)
    d = problem.dim
    for idx, (s, t, x, y) in enumerate(pairs):
        xv = np.asarray(x, dtype=float).reshape(-1)
        yv = np.asarray(y, dtype=float).reshape(-1)
        if xv.size != d or yv.size != d:
            raise ValidationError(f"pair {idx}: start points must have dim {d}")
        if s == t and np.array_equal(xv, yv):
            raise ValidationError(f"pair {idx} is degenerate: s == t and x == y")
        if not (0 <= s <= problem.horizon and 0 <= t <= problem.horizon):
            raise ValidationError(f"pair {idx}: probe times must lie in [0, T]")

    inc = sample_brownian(grid, n_paths, d, seed)
    ratios = np.empty(len(pairs))
    errs = np.empty(len(pairs))
    for idx, (s, t, x, y) in enumerate(pairs):
        xv = np.asarray(x, dtype=float).reshape(-1)
        yv = np.asarray(y, dtype=float).reshape(-1)
        i_t = int(round(t / problem.horizon * n_steps))
        i_s = int(round(s / problem.horizon * n_steps))
        # copy the snapped node so that the full path array is freed at once
        xt = euler_maruyama(problem, grid, inc, x0=xv).paths[:, i_t, :].copy()
        ys = euler_maruyama(problem, grid, inc, x0=yv).paths[:, i_s, :].copy()
        sq = np.sum((xt - ys) ** 2, axis=1)
        t_eff = grid.times[i_t]
        s_eff = grid.times[i_s]
        denom = abs(t_eff - s_eff) + float(np.sum((xv - yv) ** 2))
        ratios[idx] = sq.mean() / denom
        errs[idx] = sq.std(ddof=1) / math.sqrt(n_paths) / denom
    return ContinuityReport(pairs=pairs, ratios=ratios, std_errors=errs,
                            n_paths=n_paths, n_steps=n_steps)
