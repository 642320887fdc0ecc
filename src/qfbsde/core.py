"""Domain types and scalar machinery for quadratic FBSDE experiments.

This module holds everything the solvers share:

* the smooth truncation family ``rho_truncate`` used to cap the driver's
  arguments without destroying its local behaviour,
* closed-form a-priori constants (``upsilon1`` for the sup-norm of the
  backward component, ``upsilon2`` for the square BMO-type budget of the
  control process),
* quadrature tables for the scalar transform that removes the quadratic
  term from a one-dimensional driver (``transform_tables``),
* the problem/driver/grid/config dataclasses consumed by the forward and
  backward solvers.

Everything here is plain numpy; no randomness, no I/O.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = [
    "QfbsdeError",
    "ValidationError",
    "UNTRUNCATED",
    "rho_truncate",
    "rho_truncate_deriv",
    "upsilon1",
    "upsilon2",
    "TransformTables",
    "transform_tables",
    "transform_residual",
    "TimeGrid",
    "DriverSpec",
    "FBSDEProblem",
    "RunConfig",
]


class QfbsdeError(Exception):
    """Base class for all package-level errors."""


class ValidationError(QfbsdeError, ValueError):
    """An input violates a documented precondition."""


class _Untruncated:
    """Sentinel: solve with the raw driver, no argument truncation."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "UNTRUNCATED"


UNTRUNCATED = _Untruncated()

_UPSILON2_PANELS = 4096  # trapezoid panels for the upsilon2 weight integral


# ---------------------------------------------------------------------------
# Truncation family
# ---------------------------------------------------------------------------

def rho_truncate(x, n: int):
    """Smooth scalar truncation at level ``n``.

    The map is the identity on ``[-n, n]``, constant ``+/-(n+1)`` outside
    ``[-(n+2), n+2]``, and bridges the two regimes with the quadratic blend

        ``n + s - s**2/4``,   ``s = |x| - n  in (0, 2)``,

    which matches value and first derivative at both ends (C^1 overall).
    With ``s`` clamped to ``[0, 2]`` all three regimes are the one expression
    ``sign(x) * (min(|x|, n) + s - s**2/4)``, so ``+/-inf`` map to
    ``+/-(n+1)`` and NaN stays NaN.  Consequently
    ``|rho(x)| <= min(|x|, n+1)`` and the derivative lives in ``[0, 1]``.
    The map is odd by construction.  An array with ``max|x| <= n`` is
    returned as ``x + 0.0``, bitwise what the expression gives there
    (``-0.0`` maps to ``+0.0`` either way).

    Parameters
    ----------
    x : float or ndarray
        Point(s) to truncate.
    n : int
        Truncation level, a positive integer.

    Returns
    -------
    float or ndarray, same shape as ``x``.
    """
    n = _check_level(n)
    arr = np.asarray(x, dtype=float)
    a = np.abs(arr)
    if arr.ndim and arr.size and a.max() <= n:
        return arr + 0.0
    s = np.clip(a - n, 0.0, 2.0)
    out = np.sign(arr) * (np.minimum(a, n) + s - 0.25 * s * s)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def rho_truncate_deriv(x, n: int):
    """Analytic derivative of :func:`rho_truncate` (chain-rule helper).

    Equals 1 on ``(-n, n)``, 0 outside ``[-(n+2), n+2]``, and
    ``1 - s/2`` with ``s = |x| - n`` on the blend; with ``s`` clamped to
    ``[0, 2]`` that one expression covers all three.  Values lie in [0, 1].
    """
    n = _check_level(n)
    s = np.clip(np.abs(np.asarray(x, dtype=float)) - n, 0.0, 2.0)
    out = 1.0 - 0.5 * s
    if np.isscalar(x) or s.ndim == 0:
        return float(out)
    return out


def _check_level(n) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"truncation level must be a positive integer, got {n!r}")
    return int(n)


# ---------------------------------------------------------------------------
# A-priori constants
# ---------------------------------------------------------------------------

def upsilon1(xi_bound: float, lambda0: float, lambda_y: float, horizon: float) -> float:
    """Sup-norm budget for the backward component.

    ``(||xi||_inf + lambda0 * T) * exp(lambda_y * T)`` — the Gronwall cap on
    ``|Y|`` implied by the driver's affine growth in ``y`` plus its constant
    term.  All arguments must be nonnegative.
    """
    for name, v in (("xi_bound", xi_bound), ("lambda0", lambda0),
                    ("lambda_y", lambda_y), ("horizon", horizon)):
        if v < 0 or not math.isfinite(v):
            raise ValidationError(f"{name} must be finite and nonnegative, got {v}")
    return (xi_bound + lambda0 * horizon) * math.exp(lambda_y * horizon)


def upsilon2(
    ups1: float,
    lambda0: float,
    lambda_y: float,
    lambda_z: float,
    horizon: float,
    f: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Square BMO-type budget for the control process.

    Evaluates

        ``2 * U * (U + T*(lambda0 + lambda_z + lambda_y*U)) * exp(4*Q)``

    with ``U = ups1`` and ``Q`` the integral over ``[0, U]`` of the weight
    ``1 + lambda_z * f(u)`` (composite trapezoid with ``_UPSILON2_PANELS``
    panels).  This is the directly stated form; the change-of-variable
    proof carries the weight ``lambda_z * (1 + f(u))`` instead, which
    differs unless ``lambda_z = 1``.
    """
    for name, v in (("ups1", ups1), ("lambda0", lambda0), ("lambda_y", lambda_y),
                    ("lambda_z", lambda_z), ("horizon", horizon)):
        if v < 0 or not math.isfinite(v):
            raise ValidationError(f"{name} must be finite and nonnegative, got {v}")
    if ups1 == 0.0:
        return 0.0
    u = np.linspace(0.0, ups1, _UPSILON2_PANELS + 1)
    fu = np.asarray(f(u), dtype=float)
    if fu.shape != u.shape:
        fu = np.broadcast_to(fu, u.shape).astype(float)
    if np.any(fu < 0) or not np.all(np.isfinite(fu)):
        raise ValidationError("f must be finite and nonnegative on [0, ups1]")
    q = float(np.trapezoid(1.0 + lambda_z * fu, u))
    lead = 2.0 * ups1 * (ups1 + horizon * (lambda0 + lambda_z + lambda_y * ups1))
    return lead * math.exp(4.0 * q)


# ---------------------------------------------------------------------------
# Scalar transform removing the quadratic term
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformTables:
    """Quadrature tables for the strictly increasing scalar transform.

    On a uniform grid of ``[0, upper]``:

    * ``kappa(y)  = integral_0^y exp(-2 F(z)) dz``  with ``F(y) = integral_0^y f1``,
    * ``v(x)      = integral_0^x kappa(y) exp(2 F(y)) dy``,
    * ``v_prime   = kappa * exp(2 F)`` (exact given the tables).

    ``v`` solves ``v''/2 - f1 v' = 1/2`` with ``v(0) = v'(0) = 0``; both
    ``v`` and ``v'`` are nonnegative and nondecreasing, which is what makes
    ``v`` usable as a Lyapunov weight for quadratic drivers.
    All integrals are composite trapezoid on the common grid.
    """

    xs: np.ndarray
    f1_values: np.ndarray
    big_f: np.ndarray
    kappa: np.ndarray
    v: np.ndarray
    v_prime: np.ndarray


def transform_tables(
    f1: Callable[[np.ndarray], np.ndarray], upper: float, steps: int
) -> TransformTables:
    """Build the transform tables on ``[0, upper]`` with ``steps`` panels."""
    if not (upper > 0 and math.isfinite(upper)):
        raise ValidationError(f"upper must be positive and finite, got {upper}")
    if steps < 4:
        raise ValidationError("steps must be >= 4")
    xs = np.linspace(0.0, upper, steps + 1)
    f1v = np.asarray(f1(xs), dtype=float)
    if f1v.shape != xs.shape:
        f1v = np.broadcast_to(f1v, xs.shape).astype(float)
    if np.any(f1v < 0) or not np.all(np.isfinite(f1v)):
        raise ValidationError("f1 must be finite and nonnegative on [0, upper]")
    big_f = _cumtrapz(f1v, xs)
    kappa = _cumtrapz(np.exp(-2.0 * big_f), xs)
    v_prime = kappa * np.exp(2.0 * big_f)
    v = _cumtrapz(v_prime, xs)
    return TransformTables(xs=xs, f1_values=f1v, big_f=big_f, kappa=kappa, v=v, v_prime=v_prime)


def transform_residual(tables: TransformTables) -> np.ndarray:
    """ODE residual ``|v''/2 - f1 v' - 1/2|`` at interior nodes.

    ``v''`` is the central second difference of the ``v`` table, so the
    residual mixes the quadrature error of the tables with the O(h^2)
    differencing error; for smooth ``f1`` it shrinks at second order.
    """
    xs, v = tables.xs, tables.v
    h = xs[1] - xs[0]
    v2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    res = 0.5 * v2 - tables.f1_values[1:-1] * tables.v_prime[1:-1] - 0.5
    return np.abs(res)


def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x), out=out[1:])
    return out


# ---------------------------------------------------------------------------
# Problem description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Deterministic partition 0 = t_0 < ... < t_N = T."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValidationError("time grid needs at least two nodes")
        if t[0] != 0.0:
            raise ValidationError("time grid must start at 0")
        # NaN fails every comparison, so each test is stated as `not good`
        if not (np.all(np.diff(t) > 0) and math.isfinite(t[-1])):
            raise ValidationError(
                "time grid must be finite and strictly increasing")
        object.__setattr__(self, "times", t)

    @classmethod
    def uniform(cls, horizon: float, n_steps: int) -> "TimeGrid":
        if not (horizon > 0 and math.isfinite(horizon)):
            raise ValidationError(f"horizon must be positive, got {horizon}")
        if n_steps < 1:
            raise ValidationError("n_steps must be >= 1")
        return cls(times=np.linspace(0.0, horizon, n_steps + 1))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def deltas(self) -> np.ndarray:
        return np.diff(self.times)


def _step_major(m: int, steps: int, *tail: int) -> np.ndarray:
    """An uninitialized ``(m, steps, *tail)`` array stored steps first.

    ``a[:, i]`` is one contiguous slab, which is what every loop over the
    steps reads or writes.
    """
    return np.moveaxis(np.empty((steps, m, *tail)), 0, 1)


def _nested_indices(fine: TimeGrid, coarse: TimeGrid) -> np.ndarray:
    """Indices in ``fine`` of the nodes of ``coarse``; errors when not nested.

    A coarse node matches a fine node within 1e-12, so partitions built by
    ``linspace`` on a different step count still nest.
    """
    t = fine.times
    idx = np.clip(np.searchsorted(t, coarse.times), 1, t.size - 1)
    # searchsorted lands one slot right of a float-equal node that is smaller
    idx -= np.abs(t[idx - 1] - coarse.times) <= 1e-12
    if np.any(np.abs(t[idx] - coarse.times) > 1e-12):
        raise ValidationError("partition is not nested in the finer grid")
    return idx


@dataclass(frozen=True)
class DriverSpec:
    """A driver ``g(t, x, y, z)`` together with its declared envelope.

    ``g`` must be vectorised over a batch of paths: ``t`` scalar, ``x`` of
    shape ``(M, d)``, ``y`` of shape ``(M,)``, ``z`` of shape ``(M, d)``,
    returning shape ``(M,)``.  The declared constants promise

        ``|g(t,x,y,z)| <= lambda0 + lambda_y|y| + lambda_z(|z| + f(|y|)|z|^2)``

    with ``f`` nondecreasing and locally bounded, and a stochastic-Lipschitz
    modulus in ``y`` of order ``1 + |z|**alpha``.  The optional analytic
    gradient ``grad(t, x, y, z)`` returns ``(g_x, g_y, g_z)`` of shapes
    ``(M, d)``, ``(M,)`` and ``(M, d)``; it feeds the derivative solvers,
    which fall back to central finite differences when it is ``None``.
    """

    g: Callable
    lambda0: float
    lambda_y: float
    lambda_z: float
    alpha: float = 0.0
    f: Callable = lambda u: np.zeros_like(np.asarray(u, dtype=float))
    name: str = "driver"
    grad: Callable | None = None

    def __post_init__(self):
        for nm, v in (("lambda0", self.lambda0), ("lambda_y", self.lambda_y),
                      ("lambda_z", self.lambda_z), ("alpha", self.alpha)):
            if v < 0 or not math.isfinite(v):
                raise ValidationError(f"{nm} must be finite and nonnegative, got {v}")
        if not 0 <= self.alpha <= 1:
            raise ValidationError(f"alpha must lie in [0, 1], got {self.alpha}")

    def truncated(self, n) -> "DriverSpec":
        """Driver with both arguments passed through the level-``n`` truncation.

        ``n is UNTRUNCATED`` returns ``self``.  The truncated driver keeps the
        declared constants (truncation only shrinks the envelope) and chains
        the truncation derivative through the analytic gradient, if any.
        """
        if n is UNTRUNCATED:
            return self
        level = _check_level(n)
        base = self

        def g_n(t, x, y, z):
            return base.g(t, x, rho_truncate(y, level), rho_truncate(z, level))

        def grad_n(t, x, y, z):
            gx, gy, gz = base.grad(t, x, rho_truncate(y, level),
                                   rho_truncate(z, level))
            return (gx, gy * rho_truncate_deriv(y, level),
                    gz * rho_truncate_deriv(z, level))

        return replace(base, g=g_n, name=f"{base.name}#trunc{level}",
                       grad=None if base.grad is None else grad_n)


@dataclass(frozen=True)
class FBSDEProblem:
    """Forward-backward problem with identity diffusion.

    Forward:  ``X_t = x0 + int_0^t b(s, X_s) ds + B_t`` in R^d.
    Backward: ``Y_t = phi(X_T) + int_t^T g(s, X_s, Y_s, Z_s) ds - int_t^T Z dB``.

    ``drift`` maps ``(t, x)`` with ``x`` of shape ``(M, d)`` to shape
    ``(M, d)``; ``terminal`` maps ``(M, d)`` to ``(M,)``.  ``terminal_bound``
    may be ``inf`` for desk extensions with unbounded data (the a-priori
    audits then refuse to run rather than report nonsense).
    """

    dim: int
    x0: np.ndarray
    drift: Callable
    terminal: Callable
    driver: DriverSpec
    horizon: float
    terminal_bound: float = np.inf
    drift_bound: float = np.inf
    drift_gradient: Callable | None = None
    terminal_gradient: Callable | None = None
    label: str = "problem"

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"dim must be >= 1, got {self.dim}")
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValidationError(f"horizon must be positive, got {self.horizon}")
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.size != self.dim:
            raise ValidationError(f"x0 has size {x0.size}, expected dim={self.dim}")
        if not np.all(np.isfinite(x0)):
            raise ValidationError(f"x0 must be finite, got {x0}")
        object.__setattr__(self, "x0", x0)

    def with_drift(self, drift, *, gradient=None, bound=None, label=None) -> "FBSDEProblem":
        return replace(
            self,
            drift=drift,
            drift_gradient=gradient,
            drift_bound=self.drift_bound if bound is None else bound,
            label=self.label if label is None else label,
        )

    def y_sup_bound(self) -> float:
        """The upsilon1 budget instantiated for this problem."""
        if not math.isfinite(self.terminal_bound):
            raise ValidationError("terminal_bound is infinite; no sup-norm budget exists")
        return upsilon1(self.terminal_bound, self.driver.lambda0,
                        self.driver.lambda_y, self.horizon)

    def z_bmo_bound(self) -> float:
        """The upsilon2 budget instantiated for this problem."""
        u1 = self.y_sup_bound()
        return upsilon2(u1, self.driver.lambda0, self.driver.lambda_y,
                        self.driver.lambda_z, self.horizon, self.driver.f)


@dataclass(frozen=True)
class RunConfig:
    """Numerical knobs shared by the Monte-Carlo solvers."""

    seed: int = 0
    n_paths: int = 1024
    picard_tol: float = 1e-10
    picard_max: int = 50

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValidationError("n_paths must be >= 2")
        if not 0 < self.picard_tol < math.inf:
            raise ValidationError(
                f"picard_tol must be positive and finite, got {self.picard_tol}")
        if self.picard_max < 1:
            raise ValidationError("picard_max must be >= 1")
