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
  backward solvers, and
* a sample-based audit (``validate_driver``) that probes a driver against
  the declared growth and monotonicity envelope.

Everything here is plain numpy; no randomness, no I/O.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QfbsdeError",
    "ValidationError",
    "UNTRUNCATED",
    "rho_truncate",
    "rho_truncate_deriv",
    "EnvelopeTable",
    "increasing_envelope",
    "upsilon1",
    "upsilon2",
    "TransformTables",
    "transform_tables",
    "transform_residual",
    "TimeGrid",
    "DriverSpec",
    "FBSDEProblem",
    "RunConfig",
    "DriverAudit",
    "validate_driver",
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
    The map is odd by construction.

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
# Increasing envelope of a locally bounded function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeTable:
    """Piecewise-linear nondecreasing envelope of a scalar function.

    ``xs`` is the (sorted, nonnegative) probe grid and ``values`` the running
    maximum of the function over it.  Calling the table interpolates
    linearly inside the grid and clamps to the edge values outside.
    """

    xs: np.ndarray
    values: np.ndarray

    def __call__(self, x):
        return np.interp(x, self.xs, self.values)


def increasing_envelope(f: Callable[[np.ndarray], np.ndarray], grid) -> EnvelopeTable:
    """Running maximum of ``f`` over a nonnegative grid.

    The result is a nondecreasing dominating table for ``f`` restricted to
    the grid: useful to turn a merely locally bounded nonlinearity into the
    nondecreasing one that the bound formulas expect.
    """
    xs = np.asarray(grid, dtype=float).ravel()
    if xs.size == 0:
        raise ValidationError("envelope grid must be non-empty")
    if np.any(xs < 0):
        raise ValidationError("envelope grid must be nonnegative")
    xs = np.unique(xs)
    vals = np.maximum.accumulate(np.asarray(f(xs), dtype=float))
    return EnvelopeTable(xs=xs, values=vals)


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
    *,
    quad_steps: int = 4096,
    use_proof_integrand: bool = False,
) -> float:
    """Square BMO-type budget for the control process.

    Evaluates

        ``2 * U * (U + T*(lambda0 + lambda_z + lambda_y*U)) * exp(4*Q)``

    with ``U = ups1`` and ``Q`` the integral over ``[0, U]`` of the weight
    ``1 + lambda_z * f(u)`` (composite trapezoid with ``quad_steps`` panels).

    ``use_proof_integrand=True`` switches the weight to
    ``lambda_z * (1 + f(u))``, the variant that appears when the estimate is
    derived by the change-of-variable argument; the two coincide only when
    ``lambda_z = 1``.  The default is the directly stated form.
    """
    for name, v in (("ups1", ups1), ("lambda0", lambda0), ("lambda_y", lambda_y),
                    ("lambda_z", lambda_z), ("horizon", horizon)):
        if v < 0 or not math.isfinite(v):
            raise ValidationError(f"{name} must be finite and nonnegative, got {v}")
    if quad_steps < 1:
        raise ValidationError("quad_steps must be >= 1")
    if ups1 == 0.0:
        return 0.0
    u = np.linspace(0.0, ups1, quad_steps + 1)
    fu = np.asarray(f(u), dtype=float)
    if fu.shape != u.shape:
        fu = np.broadcast_to(fu, u.shape).astype(float)
    if np.any(fu < 0) or not np.all(np.isfinite(fu)):
        raise ValidationError("f must be finite and nonnegative on [0, ups1]")
    weight = lambda_z * (1.0 + fu) if use_proof_integrand else 1.0 + lambda_z * fu
    q = float(np.trapezoid(weight, u))
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
        if np.any(np.diff(t) <= 0):
            raise ValidationError("time grid must be strictly increasing")
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

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.times)))

    def refines(self, coarse: "TimeGrid") -> bool:
        """True when every node of ``coarse`` is a node here, to within 1e-12."""
        try:
            _nested_indices(self, coarse)
        except ValidationError:
            return False
        return True


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
    modulus in ``y`` of order ``1 + |z|**alpha``.  Optional analytic
    gradients feed the derivative solvers; when absent those fall back to
    central finite differences.
    """

    g: Callable
    lambda0: float
    lambda_y: float
    lambda_z: float
    alpha: float = 0.0
    f: Callable = lambda u: np.zeros_like(np.asarray(u, dtype=float))
    name: str = "driver"
    grad_x: Callable | None = None
    grad_y: Callable | None = None
    grad_z: Callable | None = None

    def __post_init__(self):
        for nm, v in (("lambda0", self.lambda0), ("lambda_y", self.lambda_y),
                      ("lambda_z", self.lambda_z), ("alpha", self.alpha)):
            if v < 0 or not math.isfinite(v):
                raise ValidationError(f"{nm} must be finite and nonnegative, got {v}")
        if not 0 <= self.alpha <= 1:
            raise ValidationError(f"alpha must lie in [0, 1], got {self.alpha}")

    def growth_bound(self, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Pointwise value of the declared growth envelope."""
        ay = np.abs(np.asarray(y, dtype=float))
        zn = np.linalg.norm(np.atleast_2d(z), axis=-1)
        f_ay = np.asarray(self.f(ay), dtype=float)
        return self.lambda0 + self.lambda_y * ay + self.lambda_z * (zn + f_ay * zn * zn)

    def truncated(self, n) -> "DriverSpec":
        """Driver with both arguments passed through the level-``n`` truncation.

        ``n is UNTRUNCATED`` returns ``self``.  The truncated driver keeps the
        declared constants (truncation only shrinks the envelope) and chains
        the truncation derivative through any analytic gradients.
        """
        if n is UNTRUNCATED:
            return self
        level = _check_level(n)
        base = self

        def g_n(t, x, y, z):
            return base.g(t, x, rho_truncate(y, level), rho_truncate(z, level))

        def wrap_grad(grad, which):
            if grad is None:
                return None

            def g_grad(t, x, y, z):
                yt = rho_truncate(y, level)
                zt = rho_truncate(z, level)
                val = grad(t, x, yt, zt)
                if which == "y":
                    return val * rho_truncate_deriv(y, level)
                if which == "z":
                    return val * rho_truncate_deriv(z, level)
                return val

            return g_grad

        return replace(
            base,
            g=g_n,
            name=f"{base.name}#trunc{level}",
            grad_x=wrap_grad(base.grad_x, "x"),
            grad_y=wrap_grad(base.grad_y, "y"),
            grad_z=wrap_grad(base.grad_z, "z"),
        )


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
    terminal_lipschitz: float = np.inf
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

    def z_bmo_bound(self, **kwargs) -> float:
        """The upsilon2 budget instantiated for this problem."""
        u1 = self.y_sup_bound()
        return upsilon2(u1, self.driver.lambda0, self.driver.lambda_y,
                        self.driver.lambda_z, self.horizon, self.driver.f, **kwargs)


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
        if self.picard_tol <= 0:
            raise ValidationError("picard_tol must be positive")
        if self.picard_max < 1:
            raise ValidationError("picard_max must be >= 1")


# ---------------------------------------------------------------------------
# Driver audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriverAudit:
    """Outcome of probing a driver against its declared envelope."""

    n_probes: int
    growth_violations: list
    lipschitz_violations: list
    monotonicity_violations: list

    @property
    def passed(self) -> bool:
        return not (self.growth_violations or self.lipschitz_violations
                    or self.monotonicity_violations)


def validate_driver(
    spec: DriverSpec,
    probes: Sequence,
    *,
    rtol: float = 1e-9,
) -> DriverAudit:
    """Probe ``g`` at sample points against the declared growth envelope.

    ``probes`` is a sequence of ``(t, x, y, z)`` tuples with ``x, z`` of
    length ``dim`` and scalar ``y``.  Three families of checks run on them:

    * growth: ``|g| <= lambda0 + lambda_y|y| + lambda_z(|z| + f(|y|)|z|^2)``,
    * a sampled stochastic-Lipschitz modulus in ``(y, z)`` over all probe
      pairs sharing the same ``(t, x)``,
    * monotonicity of ``f`` along the probed ``|y|`` values.

    This is a falsification device, not a proof: passing means no probed
    point contradicted the declaration.
    """
    probes = list(probes)
    if not probes:
        raise ValidationError("at least one probe is required")
    growth_bad, lip_bad, mono_bad = [], [], []

    vals = {}
    for idx, (t, x, y, z) in enumerate(probes):
        x = np.asarray(x, dtype=float).reshape(1, -1)
        z = np.asarray(z, dtype=float).reshape(1, -1)
        yv = np.asarray([float(y)])
        gval = float(np.asarray(spec.g(float(t), x, yv, z)).reshape(-1)[0])
        bound = float(spec.growth_bound(yv, z)[0])
        vals[idx] = (float(t), x, float(y), z, gval)
        if abs(gval) > bound * (1.0 + rtol) + rtol:
            growth_bad.append({"probe": idx, "g": gval, "bound": bound})

    for i in range(len(probes)):
        for j in range(i + 1, len(probes)):
            t1, x1, y1, z1, g1 = vals[i]
            t2, x2, y2, z2, g2 = vals[j]
            if t1 != t2 or not np.array_equal(x1, x2):
                continue
            zn1, zn2 = np.linalg.norm(z1), np.linalg.norm(z2)
            f1 = float(np.asarray(spec.f(np.asarray([abs(y1)])))[0])
            f2 = float(np.asarray(spec.f(np.asarray([abs(y2)])))[0])
            rhs = (
                spec.lambda_y * (1.0 + zn1 ** spec.alpha + zn2 ** spec.alpha) * abs(y1 - y2)
                + spec.lambda_z * (1.0 + (f1 + f2) * (zn1 + zn2)) * np.linalg.norm(z1 - z2)
            )
            if abs(g1 - g2) > rhs * (1.0 + rtol) + rtol:
                lip_bad.append({"pair": (i, j), "diff": abs(g1 - g2), "bound": float(rhs)})

    ys = sorted({abs(v[2]) for v in vals.values()})
    f_on_ys = np.asarray(spec.f(np.asarray(ys, dtype=float)), dtype=float)
    for k in range(1, len(ys)):
        if f_on_ys[k] < f_on_ys[k - 1] - rtol:
            mono_bad.append({"at": (ys[k - 1], ys[k]),
                             "f": (float(f_on_ys[k - 1]), float(f_on_ys[k]))})

    return DriverAudit(
        n_probes=len(probes),
        growth_violations=growth_bad,
        lipschitz_violations=lip_bad,
        monotonicity_violations=mono_bad,
    )
