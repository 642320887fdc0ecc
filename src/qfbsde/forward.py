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
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .core import (FBSDEProblem, QfbsdeError, TimeGrid, ValidationError,
                   _step_major)

__all__ = [
    "DriftEvaluationError",
    "PathEnsemble",
    "sample_brownian",
    "euler_maruyama",
    "simulate",
    "mollify_drift",
    "FlowFields",
    "variational_flow",
    "ZvonkinTransform",
    "zvonkin_transform_1d",
    "ContinuityReport",
    "continuity_diagnostic",
]

_BLOCK = 4096
_TRANSPOSE_PATHS = 256  # paths per sub-block of a transposed Philox block
_NODE_AVERAGE_POINTS = 1 << 20  # shifted points per block of _node_average
_MASK64 = (1 << 64) - 1


class DriftEvaluationError(QfbsdeError):
    """The drift produced non-finite values along the simulation."""


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated forward paths together with their driving increments.

    ``increments`` has shape ``(M, N, d)`` (Brownian increments per step),
    ``paths`` has shape ``(M, N+1, d)``.  Both are step-major in memory
    when this module made them: ``paths[:, i]`` is one contiguous slab.
    """

    grid: TimeGrid
    increments: np.ndarray
    paths: np.ndarray
    seed: int

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]


def sample_brownian(grid: TimeGrid, n_paths: int, dim: int, seed: int) -> np.ndarray:
    """Brownian increments of shape ``(n_paths, N, dim)`` on ``grid``.

    Paths are drawn in blocks of ``4096`` from ``Philox`` streams keyed by
    ``(seed, block index)``; the numbers attached to a given path therefore
    do not depend on the total number of paths requested, and identical
    arguments always reproduce the identical array.  The array is
    step-major: ``inc[:, i]`` is contiguous.
    """
    if n_paths < 1:
        raise ValidationError("n_paths must be >= 1")
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    n = grid.n_steps
    out = np.empty((n, n_paths, dim), dtype=np.float64)
    for start in range(0, n_paths, _BLOCK):
        block = start // _BLOCK
        key = ((block & _MASK64) << 64) | (int(seed) & _MASK64)
        gen = np.random.Generator(np.random.Philox(key=key))
        take = min(_BLOCK, n_paths - start)
        draw = gen.standard_normal((take, n, dim))
        # transposed a few hundred paths at a time: a sub-block's rows stay
        # in cache until the last step has read them
        for lo in range(0, take, _TRANSPOSE_PATHS):
            hi = min(lo + _TRANSPOSE_PATHS, take)
            out[:, start + lo:start + hi] = draw[lo:hi].transpose(1, 0, 2)
    out *= np.sqrt(grid.deltas)[:, None, None]
    return np.moveaxis(out, 0, 1)


def euler_maruyama(
    problem: FBSDEProblem, grid: TimeGrid, increments: np.ndarray,
    *, seed: int = -1, x0=None,
) -> PathEnsemble:
    """Euler–Maruyama forward paths driven by the given increments.

    ``seed`` only labels the resulting ensemble (use :func:`simulate` to draw
    and simulate in one step); ``-1`` marks externally supplied noise.
    ``x0`` overrides the problem's initial state — a single point or one row
    per path — which is how conditional (branching) simulations restart from
    interior states.  The paths are step-major whatever the layout of
    ``increments``.  Raises :class:`DriftEvaluationError` as soon as the
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
    paths = _step_major(m, n + 1, d)
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
    return PathEnsemble(grid=grid, increments=increments, paths=paths,
                        seed=int(seed))


def simulate(
    problem: FBSDEProblem, grid: TimeGrid, n_paths: int, seed: int
) -> PathEnsemble:
    """Sample increments and run Euler–Maruyama in one deterministic call."""
    inc = sample_brownian(grid, n_paths, problem.dim, seed)
    return euler_maruyama(problem, grid, inc, seed=int(seed))


# ---------------------------------------------------------------------------
# Gaussian mollification of rough drifts
# ---------------------------------------------------------------------------

def mollify_drift(drift: Callable, eps: float, *, dim: int = 1,
                  quad_points: int = 64) -> tuple[Callable, Callable]:
    """Gaussian smoothing ``b_eps(t,x) = E[b(t, x + eps*G)]``, ``G ~ N(0, I)``,
    and its Jacobian, as the pair ``(value, jacobian)``.

    The fallback for drifts without a closed form (:func:`_smoothed_sign` is
    the one for ``sign``).  Both are the Gauss–Hermite node average
    :func:`_node_average` over ``quad_points**dim`` nodes (high dimensions
    should lower the per-axis count), with different weights; the Jacobian
    uses the Gaussian integration-by-parts identity

        ``grad b_eps(x) = E[b(t, x + eps*G) G^T] / eps``

    so it never differentiates ``b`` itself — exactly what rough drifts need.
    Quadrature weights are normalized to sum to one, hence
    ``|b_eps| <= sup|b|`` holds exactly node-by-node.
    """
    eps = _check_eps(eps)
    nodes, weights = _gauss_hermite_rule(quad_points, dim)
    jac_weights = weights[:, None] * nodes

    def value(t, x):
        return _node_average(lambda p: drift(t, p), x, eps, nodes, weights)

    def jacobian(t, x):
        return _node_average(lambda p: drift(t, p), x, eps, nodes,
                             jac_weights) / eps

    return value, jacobian


def _smoothed_sign(eps: float) -> tuple[Callable, Callable]:
    """The exact Gaussian smoothing of componentwise ``sign`` and its Jacobian.

    ``E[sign(x + eps*G)] = erf(x / (eps*sqrt(2)))`` componentwise, and the
    Jacobian is diagonal with the Gaussian density
    ``sqrt(2/pi)/eps * exp(-x^2 / (2 eps^2))``, the same pair the
    quadrature of :func:`mollify_drift` approximates.
    """
    eps = _check_eps(eps)
    scale = eps * math.sqrt(2.0)
    peak = math.sqrt(2.0 / math.pi) / eps

    def value(t, x):
        return _erf(np.asarray(x, dtype=float) / scale)

    def jacobian(t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        # exp(-800) is 0.0; the clip keeps u*u finite
        u = np.clip(x / eps, -40.0, 40.0)
        density = peak * np.exp(-0.5 * u * u)
        return density[:, :, None] * np.eye(x.shape[1])

    return value, jacobian


def _check_eps(eps: float) -> float:
    if not (eps > 0 and math.isfinite(eps)):
        raise ValidationError(f"eps must be positive, got {eps}")
    return float(eps)


# Cephes ndtr.c rational forms for erf (Moshier, *Methods and Programs for
# Mathematical Functions*, 1989), highest degree first
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)


def _erf(x: np.ndarray) -> np.ndarray:
    """``erf`` elementwise, within 3 ulp of ``math.erf``.

    Where ``|x| >= 6`` the value is ``sign(x)`` exactly: ``erfc(6)`` is
    below half an ulp of 1.  Each form is evaluated on the elements it
    serves only: ``x T(x^2)/U(x^2)`` where ``|x| < 1``, and
    ``sign(x) (1 - exp(-x^2) P(|x|)/Q(|x|))`` on the rest, NaN among them
    (it passes through).
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.copysign(1.0, flat)
    rest = np.flatnonzero(~(np.abs(flat) >= 6.0))
    near = np.abs(flat[rest]) < 1.0
    inner, outer = rest[near], rest[~near]
    v = flat[inner]
    z = v * v
    out[inner] = v * _horner(_ERF_T, z) / _horner(_ERF_U, z)
    v = flat[outer]
    a = np.abs(v)
    z = v * v
    out[outer] = np.copysign(
        1.0 - np.exp(-z) * _horner(_ERFC_P, a) / _horner(_ERFC_Q, a), v)
    return out.reshape(x.shape)


def _horner(coeffs: tuple, z: np.ndarray) -> np.ndarray:
    """The polynomial with ``coeffs`` (highest degree first) at ``z``."""
    out = coeffs[0] * z
    for c in coeffs[1:-1]:
        out += c
        out *= z
    out += coeffs[-1]
    return out


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


def _node_average(h: Callable, x, scale: float, nodes: np.ndarray,
                  weights: np.ndarray) -> np.ndarray:
    """``sum_k weights[k] (x) h(x + scale * nodes[k])`` for each row of ``x``.

    ``h`` maps ``(P, d)`` points to ``(P, I)`` (or ``(P,)``) values and
    ``weights`` is ``(K, ...)``; the result is ``(M, I, ...)``.  Rows go in
    blocks of at least one row and at most ``_NODE_AVERAGE_POINTS`` points.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    m, d = x.shape
    k = nodes.shape[0]
    rows = max(1, _NODE_AVERAGE_POINTS // k)
    parts = []
    for lo in range(0, m, rows):
        block = x[lo:lo + rows]
        points = (block[:, None, :] + scale * nodes[None, :, :]).reshape(-1, d)
        vals = np.asarray(h(points), dtype=float).reshape(block.shape[0], k, -1)
        parts.append(np.einsum("mki,k...->mi...", vals, weights))
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# First-variation flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowFields:
    """First-variation flow ``nablaX`` along each path, the one stored field.

    ``nablaX_{i+1} = F_i nablaX_i`` from ``nablaX_0 = I``, with ``F_i`` from
    :func:`_step_factor`.  The Malliavin solve inverts it at anchors only.
    """

    nabla_x: np.ndarray  # (M, N+1, d, d)
    # bench/workloads.py reads nabla_x_inv and product_deviation; nothing in
    # the package does.  Both go with the next benchmark change.
    @cached_property
    def nabla_x_inv(self) -> np.ndarray:
        """``(nablaX)^{-1}`` on every node, inverted on first read and held."""
        return _flow_inverse(self.nabla_x)

    def product_deviation(self) -> float:
        d = self.nabla_x.shape[-1]
        eye = np.eye(d)
        prod = np.einsum("mnij,mnjk->mnik", self.nabla_x_inv, self.nabla_x)
        prod -= eye  # in place: the flow's largest temporary, held once
        return float(np.abs(prod, out=prod).max())


def _flow_inverse(a: np.ndarray) -> np.ndarray:
    """Each trailing ``(d, d)`` matrix inverted; 1x1 by the reciprocal,
    which is bitwise what ``np.linalg.inv`` returns."""
    return 1.0 / a if a.shape[-1] == 1 else np.linalg.inv(a)


def _step_factor(problem: FBSDEProblem, ensemble: PathEnsemble,
                 i: int) -> np.ndarray:
    """The one-step factor ``F_i = I + dt_i * Jb(t_i, X_i)``, ``(M, d, d)``,
    that both the flow and the tangent inductions apply.  ``Jb`` is the
    problem's ``drift_gradient``.  Raises :class:`DriftEvaluationError` when
    the Jacobian is not finite."""
    jac = problem.drift_gradient
    if jac is None:
        raise ValidationError(
            "problem has no drift gradient; mollify the drift or supply one")
    m, _, d = ensemble.paths.shape
    grid = ensemble.grid
    a = np.asarray(jac(grid.times[i], ensemble.paths[:, i, :]), dtype=float)
    if a.shape != (m, d, d):
        raise ValidationError(f"drift jacobian shape {a.shape} != {(m, d, d)}")
    if not np.all(np.isfinite(a)):
        raise DriftEvaluationError("drift jacobian produced non-finite "
                                   f"values at t={grid.times[i]:.6g}")
    return np.eye(d) + grid.deltas[i] * a


def variational_flow(problem: FBSDEProblem, ensemble: PathEnsemble) -> FlowFields:
    """Pathwise first-variation flow of the forward map ``x0 -> X``.

    Needs the problem's ``drift_gradient`` (see :func:`_step_factor`);
    :func:`mollify_drift` gives a rough drift one."""
    m, n1, d = ensemble.paths.shape
    nabla = np.empty((m, n1, d, d))
    nabla[:, 0] = np.eye(d)
    for i in range(n1 - 1):
        nabla[:, i + 1] = np.einsum("mij,mjk->mik",
                                    _step_factor(problem, ensemble, i),
                                    nabla[:, i])
    return FlowFields(nabla_x=nabla)


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
        """Max interior residual of the implicit-Euler discrete operator,
        ``(u_{k+1}-u_k)/dt + D2 u_k/2 + b D1 u_k - lam*u_k + b``, all steps.

        It re-applies the solve's own stencil, so it checks the banded solve
        (round-off: 8.7e-13 for ``holder_sqrt`` at ``lam = 10`` on a
        512 x 256 grid), not how well the stencil approximates the PDE.
        """
        h = self.xs[1] - self.xs[0]
        dt = np.diff(self.times)[:, None]
        uk, uk1 = self.u[:-1], self.u[1:]
        d2 = (uk[:, 2:] - 2.0 * uk[:, 1:-1] + uk[:, :-2]) / (h * h)
        d1 = (uk[:, 2:] - uk[:, :-2]) / (2.0 * h)
        b_mid = self.b_values[:-1, 1:-1]
        r = ((uk1[:, 1:-1] - uk[:, 1:-1]) / dt + 0.5 * d2 + b_mid * d1
             - self.lam * uk[:, 1:-1] + b_mid)
        return float(np.abs(r).max())


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
    if not (np.all(hs > 0) and np.allclose(hs, hs[0], rtol=1e-12, atol=0)):
        raise ValidationError("space_grid must be uniform and increasing")
    if not (np.all(np.isfinite(ts)) and np.all(np.diff(ts) > 0)):
        raise ValidationError("time_grid must be finite and strictly increasing")
    if not (0 < lam < math.inf):
        raise ValidationError("lam must be positive and finite")
    # imported here: scipy.linalg costs more to load than the rest of the
    # package, and nothing else needs it
    from scipy.linalg import solve_banded

    s = xs.size
    h = float(hs[0])
    b_values = np.stack([np.asarray(drift(float(t), xs[:, None]),
                                    dtype=float).reshape(s) for t in ts])
    u = np.zeros((ts.size, s))
    # I - dt*(L - lam) in solve_banded's (3, S) layout: upper, main and
    # lower diagonals; the two unused corners stay zero
    ab = np.zeros((3, s))
    for k in range(ts.size - 2, -1, -1):
        dt = float(ts[k + 1] - ts[k])
        b = b_values[k]
        ab[0, 1:] = -dt * (0.5 / (h * h) + b[:-1] / (2.0 * h))
        ab[1] = 1.0 + dt * (1.0 / (h * h) + lam)
        ab[2, :-1] = -dt * (0.5 / (h * h) - b[1:] / (2.0 * h))
        # Neumann sides by mirrored ghosts (u_{-1} = u_1): the boundary
        # off-diagonal doubles and the advective term cancels
        ab[0, 1] = ab[2, -2] = -dt / (h * h)
        u[k] = solve_banded((1, 1), ab, u[k + 1] + dt * b)
    u_x = np.zeros_like(u)
    u_x[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2.0 * h)
    return ZvonkinTransform(lam=float(lam), xs=xs, times=ts, u=u, u_x=u_x,
                            b_values=b_values)


# ---------------------------------------------------------------------------
# Two-point continuity diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuityReport:
    """Coupled two-point moment ratios for the forward flow, one per pair."""

    ratios: np.ndarray
    std_errors: np.ndarray

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
    the probe times are snapped to the simulation grid.  All starts run in
    one Euler sweep (:func:`_states_at`), each only up to the node it is
    read at, and only the current state of each is held: one ``(S, M, d)``
    array for ``S = 2 * pairs`` starts (640 KB for 20 pairs on 2000 paths),
    next to the ``(M, N, d)`` increments; each step's drift call and its
    temporaries are that size too.  Pairs go in blocks of at most
    ``_NODE_AVERAGE_POINTS // (2 M)`` (at least one), which bounds both
    however many pairs there are.  Degenerate pairs, whose times snap
    to one node and whose starts agree, are rejected — their denominator
    vanishes.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("at least one probe pair is required")
    grid = TimeGrid.uniform(problem.horizon, n_steps)
    d = problem.dim
    probes = []
    for idx, (s, t, x, y) in enumerate(pairs):
        xv = np.asarray(x, dtype=float).reshape(-1)
        yv = np.asarray(y, dtype=float).reshape(-1)
        if xv.size != d or yv.size != d:
            raise ValidationError(f"pair {idx}: start points must have dim {d}")
        if not (0 <= s <= problem.horizon and 0 <= t <= problem.horizon):
            raise ValidationError(f"pair {idx}: probe times must lie in [0, T]")
        i_t = int(round(t / problem.horizon * n_steps))
        i_s = int(round(s / problem.horizon * n_steps))
        if i_t == i_s and np.array_equal(xv, yv):
            raise ValidationError(f"pair {idx} is degenerate: s and t snap to "
                                  f"node {i_t} and x == y")
        probes.append((xv, yv, i_t, i_s))

    inc = sample_brownian(grid, n_paths, d, seed)
    ratios = np.empty(len(pairs))
    errs = np.empty(len(pairs))
    per_block = max(1, _NODE_AVERAGE_POINTS // (2 * n_paths))
    for lo in range(0, len(probes), per_block):
        block = probes[lo:lo + per_block]
        k = len(block)
        states = _states_at(
            problem, grid, inc,
            np.array([p[0] for p in block] + [p[1] for p in block]),
            np.array([p[2] for p in block] + [p[3] for p in block]))
        for j, (xv, yv, i_t, i_s) in enumerate(block):
            sq = np.sum((states[j] - states[k + j]) ** 2, axis=1)
            denom = (abs(grid.times[i_t] - grid.times[i_s])
                     + float(np.sum((xv - yv) ** 2)))
            ratios[lo + j] = sq.mean() / denom
            errs[lo + j] = sq.std(ddof=1) / math.sqrt(n_paths) / denom
    return ContinuityReport(ratios=ratios, std_errors=errs)


def _states_at(problem, grid, inc, starts, nodes):
    """The Euler states ``(M, d)`` of start ``k`` at node ``nodes[k]``, one
    per start, as views of one ``(S, M, d)`` array.

    One sweep advances every start that is still running, so each step
    makes one drift call on ``(S_live * M, d)`` points and adds ``inc[:, i]``
    by broadcasting; the increments are never tiled.  The starts are
    ordered by node, latest first, so the ones still running are a prefix
    of the state array, and a start stops at its own node.  Per element the
    arithmetic is :func:`euler_maruyama`'s, ``x + b dt + dB``, in that
    order, with its checks on the drift's shape and finiteness.
    """
    m, _, d = inc.shape
    order = np.argsort(-nodes, kind="stable")
    ends = nodes[order]
    states = np.empty((len(order), m, d))
    states[...] = starts[order][:, None, :]
    live = len(order)
    for i in range(int(ends[0])):
        while ends[live - 1] <= i:
            live -= 1
        x = states[:live]
        t = grid.times[i]
        bval = np.asarray(problem.drift(t, x.reshape(live * m, d)), dtype=float)
        if bval.shape != (live * m, d):
            raise ValidationError(
                f"drift returned shape {bval.shape}, expected {(live * m, d)}")
        if not np.all(np.isfinite(bval)):
            raise DriftEvaluationError(
                f"drift produced non-finite values at t={t:.6g}")
        step = bval.reshape(live, m, d) * grid.deltas[i]
        np.add(x, step, out=step)
        np.add(step, inc[:, i], out=x)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return [states[r] for r in rank]
