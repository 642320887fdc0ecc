"""Derivative processes of the backward solution and their identity audits.

Both derivative fields solve *linear* BSDEs whose coefficients are frozen
along a previously computed base solution:

* classical gradient ``(nablaY, nablaZ)`` — sensitivity to the initial
  state, driven by the first-variation flow ``nablaX``;
* Malliavin derivative ``(D_u Y, D_u Z)`` per anchor time ``u`` — driven by
  ``D_u X_t = nablaX_t (nablaX_u)^{-1}`` and zero before the anchor.

The induction runs in *reduced* coordinates: the tangent fields are
right-divided by their forward factor (``nablaX_t`` resp. ``D_u X_t``)
before any regression.  The raw fields are not functions of the current
state — they carry the flow, which depends on the whole path — so
projecting them on a state basis estimates the wrong conditional
expectation, with an O(1) bias on rough drifts whose Jacobian is large on
thin sets.  The reduced field is the state-coordinate gradient of the
value function; each of its regression targets is a function of the
current and next state only, which is exactly the setting where an LSMC
projection is consistent.  The full fields are reconstructed pathwise
against the flow afterwards.

Because the equations are linear, the implicit Euler step has a closed form
(one division instead of a Picard loop); the residual of the implicit
relation is still checked and a violation raises, which would flag a grid
too coarse for the frozen coefficients.

The identity audits compare the three representation relations that tie the
fields together (Malliavin vs. gradient, control vs. gradient, and their
``Z``-level counterpart), reporting max-over-grid mean relative deviations
with their standard errors across paths at fixed fitted coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import (
    FBSDEProblem,
    RunConfig,
    TimeGrid,
    UNTRUNCATED,
    ValidationError,
)
from .backward import (
    BackwardSolution,
    PicardDivergenceError,
    RegressionBasis,
    _StepRegressor,
    lsmc_solve,
)
from .forward import FlowFields, PathEnsemble, malliavin_forward, simulate

__all__ = [
    "DerivativeSolution",
    "FdGradient",
    "RepresentationReport",
    "fd_gradient",
    "representation_check",
    "solve_gradient_bsde",
    "solve_malliavin_bsde",
]

_FD_COEFF_STEP = 1e-5   # driver/terminal gradient fallback step
_FD_MIN_H = 1e-8        # catastrophic-cancellation guard for fd_gradient


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivativeSolution:
    """Gradient and Malliavin fields on a shared ensemble.

    ``nabla_y`` is ``(M, N+1, d)`` and ``nabla_z`` is ``(M, N, d, d)``;
    in both matrix-valued fields the *first* matrix index is the
    differentiation direction (initial state resp. anchor kick) and the
    second is the Brownian component of ``Z``.  The Malliavin fields are
    stored per anchor index ``u`` with the time axis starting *at* the
    anchor (length ``N+1-u`` resp. ``N-u``); values before the anchor are
    identically zero by construction and are not stored.
    """

    anchors: tuple[int, ...]
    nabla_y: np.ndarray
    nabla_z: np.ndarray
    dy: dict
    dz: dict

    def __post_init__(self):
        for u in self.anchors:
            if u not in self.dy or u not in self.dz:
                raise ValidationError(f"anchor {u} has no stored field")

    def dy_at(self, u: int, i: int) -> np.ndarray:
        """``D_u Y_{t_i}`` — zeros (not stored) for ``i < u``."""
        arr = self.dy[u]
        if i < u:
            return np.zeros_like(arr[:, 0, :])
        return arr[:, i - u, :]

    def dz_at(self, u: int, i: int) -> np.ndarray:
        arr = self.dz[u]
        if i < u:
            return np.zeros_like(arr[:, 0, :, :])
        return arr[:, i - u, :, :]


@dataclass(frozen=True)
class FdGradient:
    """Central-difference estimate of the initial-value gradient."""

    value: np.ndarray    # (d,)
    stderr: np.ndarray   # (d,)
    h: float


# ---------------------------------------------------------------------------
# Frozen driver gradients
# ---------------------------------------------------------------------------

def _driver_gradients(driver, t, x, y, z):
    """``(g_x, g_y, g_z)`` at frozen arguments, analytic or by differences."""
    if driver.grad_x is not None:
        gx = np.asarray(driver.grad_x(t, x, y, z), dtype=float)
    else:
        gx = _central_difference(lambda xe: driver.g(t, xe, y, z), x)
    if driver.grad_y is not None:
        gy = np.asarray(driver.grad_y(t, x, y, z), dtype=float)
    else:
        gy = _central_difference(
            lambda ye: driver.g(t, x, ye[:, 0], z), y[:, None])[:, 0]
    if driver.grad_z is not None:
        gz = np.asarray(driver.grad_z(t, x, y, z), dtype=float)
    else:
        gz = _central_difference(lambda ze: driver.g(t, x, y, ze), z)
    return gx, gy, gz


def _terminal_gradient(problem, x_term):
    if problem.terminal_gradient is not None:
        return np.asarray(problem.terminal_gradient(x_term), dtype=float)
    return _central_difference(problem.terminal, x_term)


def _central_difference(fn, at):
    """Central differences of ``fn`` (``(M, d) -> (M,)``) in each column of ``at``."""
    m, d = at.shape
    out = np.empty((m, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = _FD_COEFF_STEP
        out[:, k] = (np.asarray(fn(at + e), dtype=float)
                     - np.asarray(fn(at - e), dtype=float)) / (2.0 * _FD_COEFF_STEP)
    return out


# ---------------------------------------------------------------------------
# Linear backward induction (shared by gradient and Malliavin solves)
# ---------------------------------------------------------------------------

def _linear_backward(problem, ensemble, flow, base, basis, config,
                     terminal_value, start_index):
    """Backward induction for the linear BSDE, in reduced coordinates.

    The reduced value at step ``i`` is the tangent field right-divided by
    its forward factor; for both the gradient equation and every Malliavin
    anchor that quotient satisfies the *same* recursion, because the factor
    cancels out of the forcing (``g_x`` contracted with the factor, divided
    by it) and the one-step transition ``D_i X_{i+1} = I + dt * Jb`` is the
    same.  Concretely, with ``F_i`` the one-step factor:

    * target:   ``T = v_{i+1} F_i``      (a function of ``X_i, X_{i+1}``),
    * value:    ``v_i = (E[T|X_i] + dt*(g_x + g_z . w_i)) / (1 - dt*g_y)``,
    * control:  ``w_i = E[(T - E[T|X_i]) dB_i | X_i] / dt``.

    ``F_i`` is a known function of ``X_i``, so it is pulled *out* of both
    conditional expectations and applied exactly after the fit; only the
    genuinely random next value is projected on the basis.  This matters
    for mollified rough drifts, whose Jacobian lives on a scale far below
    any sensible bin or polynomial resolution: left inside the regression
    the factor gets smeared and its effect is systematically attenuated.

    ``terminal_value`` is the reduced terminal ``phi'(X_T)``, shape
    ``(M, d)``.  Returns ``(v, w)`` with the time axis starting at
    ``start_index``; ``w``'s first matrix index is the state direction,
    the second the Brownian component.
    """
    x = ensemble.paths
    db = ensemble.increments
    m, n1, d = x.shape
    n = n1 - 1
    deltas = ensemble.grid.deltas
    times = ensemble.grid.times
    gdriver = problem.driver.truncated(base.truncation_n)

    span = n - start_index
    v = np.empty((m, span + 1, d))
    w = np.zeros((m, span, d, d))
    v[:, span, :] = terminal_value
    if not np.all(np.isfinite(terminal_value)):
        raise ValidationError("derivative terminal value is non-finite")

    for i in range(n - 1, start_index - 1, -1):
        j = i - start_index
        step_factor = malliavin_forward(flow, i, i + 1)
        vhat, wfit = _StepRegressor(basis, x[:, i, :]).ce_and_control(
            v[:, j + 1, :], db[:, i, :], deltas[i])
        ce = np.einsum("mj,mjk->mk", vhat, step_factor)
        w[:, j, :, :] = np.einsum("mjk,mjl->mkl", step_factor, wfit)

        gx, gy, gz = _driver_gradients(
            gdriver, times[i], x[:, i, :], base.y[:, i], base.z[:, i, :])
        denom = 1.0 - deltas[i] * gy
        if np.any(np.abs(denom) < 0.1):
            raise ValidationError(
                f"implicit linear step ill-conditioned at step {i} "
                "(time step too coarse for the frozen y-coefficient)")
        # g_z contracts the Brownian component of the reduced control
        inhom = gx + np.einsum("ml,mkl->mk", gz, w[:, j, :, :])
        v[:, j, :] = (ce + deltas[i] * inhom) / denom[:, None]

        # the step is linear, so one division must already satisfy the
        # implicit relation; a residual above tolerance is a real failure
        rhs = ce + deltas[i] * (inhom + gy[:, None] * v[:, j, :])
        res = float(np.abs(v[:, j, :] - rhs).max())
        scale = 1.0 + float(np.abs(v[:, j, :]).max())
        if res > max(config.picard_tol, 1e-12) * scale:
            raise PicardDivergenceError(
                f"linear implicit step residual {res:.3e} at step {i}",
                step=i, residuals=[res])
    return v, w


def solve_gradient_bsde(
    problem: FBSDEProblem,
    ensemble: PathEnsemble,
    flow: FlowFields,
    base: BackwardSolution,
    basis: RegressionBasis,
    config: RunConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Classical derivative ``(nablaY, nablaZ)`` along the base solution.

    Terminal condition ``nablaY_T = phi'(X_T) nablaX_T``; the driver of the
    linear equation contracts the frozen gradients ``(g_x, g_y, g_z)`` with
    ``(nablaX, nablaY, nablaZ)``.  The induction itself runs on the reduced
    fields (see ``_linear_backward``) and the returned arrays are the
    pathwise reconstructions against ``nablaX``.  Driver and terminal
    gradients fall back to central differences (step ``1e-5``) when
    analytic ones are absent.
    """
    x_term = ensemble.paths[:, -1, :]
    v, w = _linear_backward(
        problem, ensemble, flow, base, basis, config,
        terminal_value=_terminal_gradient(problem, x_term), start_index=0)
    nabla_y = np.einsum("mik,mikl->mil", v, flow.nabla_x)
    nabla_z = np.einsum("mikl,mika->mial", w, flow.nabla_x[:, :-1])
    return nabla_y, nabla_z


def solve_malliavin_bsde(
    problem: FBSDEProblem,
    ensemble: PathEnsemble,
    flow: FlowFields,
    base: BackwardSolution,
    anchors: Sequence[int],
    basis: RegressionBasis,
    config: RunConfig,
) -> tuple[dict, dict]:
    """Malliavin fields ``(D_u Y, D_u Z)`` for each anchor index ``u``.

    The forward Malliavin derivative is ``D_u X_t = nablaX_t (nablaX_u)^{-1}``
    for ``t >= u`` (diffusion coefficient is the identity).  In reduced
    coordinates the anchor drops out of the backward equation entirely, so
    one induction from the earliest anchor serves them all: each anchor
    reads its span off that run and re-enters only through the
    reconstruction factors ``D_u X``.  Fields are stored from the anchor
    onward; the value before the anchor is identically zero and never
    materialized.
    """
    n = ensemble.grid.n_steps
    anchors = tuple(sorted(set(int(u) for u in anchors)))
    if not anchors:
        raise ValidationError("need at least one anchor index")
    if anchors[0] < 0 or anchors[-1] >= n:
        raise ValidationError(f"anchors must lie in [0, {n - 1}]")
    x_term = ensemble.paths[:, -1, :]
    u0 = anchors[0]
    v, w = _linear_backward(
        problem, ensemble, flow, base, basis, config,
        terminal_value=_terminal_gradient(problem, x_term), start_index=u0)
    dy: dict[int, np.ndarray] = {}
    dz: dict[int, np.ndarray] = {}
    for u in anchors:
        span = n - u
        du_y = np.empty((v.shape[0], span + 1, v.shape[2]))
        du_z = np.empty((w.shape[0], span, w.shape[2], w.shape[3]))
        for i in range(u, n + 1):
            dux = malliavin_forward(flow, u, i)
            du_y[:, i - u, :] = np.einsum("mk,mkl->ml", v[:, i - u0, :], dux)
            if i < n:
                du_z[:, i - u] = np.einsum(
                    "mkl,mka->mal", w[:, i - u0, :, :], dux)
        dy[u] = du_y
        dz[u] = du_z
    return dy, dz


# ---------------------------------------------------------------------------
# Identity audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepresentationReport:
    """Max-over-grid mean relative deviations of the three identities.

    ``identities`` maps a name to a dict with the deviation profile
    (per node), its maximum, the node (and anchor) attaining it, and the
    standard error ``se`` of the deviation at the maximizer.

    ``se`` is the spread of the per-path gaps over ``sqrt(M)``, with the
    fitted regression coefficients held fixed.  It is not the Monte Carlo
    error of the deviation: resampling also refits the coefficients, and
    that fluctuation is the larger one.  On the closed-form problem at
    5000 paths ``se`` reads 5.4e-4 while the maximum moves by about 0.013
    from seed to seed; at a node where every path shares one state (the
    initial one) ``se`` is zero up to rounding.  ``summary()`` prints this
    same quantity.
    """

    identities: dict

    def max_deviation(self, name: str) -> float:
        return self.identities[name]["max"]

    def summary(self) -> str:
        lines = []
        for name, rec in self.identities.items():
            lines.append(
                f"{name}: max mean-relative deviation "
                f"{rec['max']:.3e} (se {rec['se']:.1e}) at {rec['argmax']}")
        return "\n".join(lines)


def _relative_deviation(lhs: np.ndarray, rhs: np.ndarray):
    """Mean relative gap between two per-path fields, with its standard
    error across paths (fitted coefficients held fixed, so no refit noise).
    """
    gap = np.abs(lhs - rhs).mean(axis=tuple(range(1, lhs.ndim)))
    scale = np.abs(rhs).mean()
    denom = scale if scale > 0.0 else 1.0
    m = gap.shape[0]
    return float(gap.mean() / denom), float(
        gap.std(ddof=1) / math.sqrt(m) / denom)


def representation_check(
    base: BackwardSolution,
    deriv: DerivativeSolution,
    flow: FlowFields,
) -> RepresentationReport:
    """Audit the identities tying ``Z``, ``nablaY`` and the Malliavin field.

    Checked on every stored node (steps for the ``Z``-level identity):

    * ``malliavin_value``:  ``D_u Y_t nablaX_u == nablaY_t`` for ``t >= u``;
    * ``control_gradient``: ``Z_t nablaX_t == nablaY_t``;
    * ``malliavin_control``: ``D_u Z_t nablaX_u == nablaZ_t`` for ``t >= u``.

    All contractions anchor the flow at the differentiation time ``u`` (the
    identity's own base point); deviations are mean absolute gaps normalized
    by the mean magnitude of the right-hand side.

    The identities are not equally independent.  ``control_gradient`` is
    the only one that compares two independent estimators: ``Z`` comes from
    the base LSMC solve, ``nablaY`` from the linear gradient induction.  The
    Malliavin fields are slices of the same reduced induction as the
    gradient, reconstructed against ``D_u X`` instead of ``nablaX``, so
    ``malliavin_value`` and ``malliavin_control`` only measure the round-off
    of that reconstruction (``nablaX_t (nablaX_u)^{-1} nablaX_u`` against
    ``nablaX_t``), not a second estimate.
    """
    n = base.z.shape[1]
    out: dict[str, dict] = {}

    devs, ses, keys = [], [], []
    for u in deriv.anchors:
        nx_u = flow.nabla_x[:, u]
        for i in range(u, n + 1):
            lhs = np.einsum("mk,mkl->ml", deriv.dy_at(u, i), nx_u)
            d, s = _relative_deviation(lhs, deriv.nabla_y[:, i, :])
            devs.append(d)
            ses.append(s)
            keys.append((u, i))
    out["malliavin_value"] = _collect(devs, ses, keys)

    devs, ses, keys = [], [], []
    for i in range(n):
        lhs = np.einsum("mk,mkl->ml", base.z[:, i, :], flow.nabla_x[:, i])
        d, s = _relative_deviation(lhs, deriv.nabla_y[:, i, :])
        devs.append(d)
        ses.append(s)
        keys.append(i)
    out["control_gradient"] = _collect(devs, ses, keys)

    devs, ses, keys = [], [], []
    for u in deriv.anchors:
        nx_u = flow.nabla_x[:, u]
        for i in range(u, n):
            # contract the kick direction of D_uZ (first matrix index)
            # against the flow at the anchor; the Brownian component rides
            # along untouched
            lhs = np.einsum("mkl,mka->mal", deriv.dz_at(u, i), nx_u)
            d, s = _relative_deviation(lhs, deriv.nabla_z[:, i, :, :])
            devs.append(d)
            ses.append(s)
            keys.append((u, i))
    out["malliavin_control"] = _collect(devs, ses, keys)
    return RepresentationReport(identities=out)


def _collect(devs, ses, keys):
    arr = np.asarray(devs)
    k = int(arr.argmax())
    return {
        "profile": arr,
        "keys": list(keys),
        "max": float(arr[k]),
        "se": float(ses[k]),
        "argmax": keys[k],
    }


# ---------------------------------------------------------------------------
# Finite-difference oracle for the initial gradient
# ---------------------------------------------------------------------------

def fd_gradient(
    problem: FBSDEProblem,
    h: float,
    config: RunConfig,
    *,
    grid: TimeGrid,
    basis: RegressionBasis,
    truncation=UNTRUNCATED,
) -> FdGradient:
    """Central difference of ``Y_0`` across ``x0 ± h e_k`` with CRN.

    Both perturbed problems are solved on increments drawn from the *same*
    seed, so the Brownian noise cancels in the difference and the quotient
    isolates the initial-state sensitivity.  ``h`` below ``1e-8`` is
    rejected: at that scale the difference of two solver outputs is pure
    cancellation noise.
    """
    if h <= 0.0:
        raise ValidationError("h must be positive")
    if h < _FD_MIN_H:
        raise ValidationError(
            f"h={h:g} is below the cancellation guard {_FD_MIN_H:g}")
    d = problem.dim
    x0 = np.asarray(problem.x0, dtype=float)
    value = np.empty(d)
    stderr = np.empty(d)
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        sols = []
        for sgn in (+1.0, -1.0):
            shifted = replace(problem, x0=x0 + sgn * e)
            ens = simulate(shifted, grid, config.n_paths, config.seed)
            sols.append(lsmc_solve(shifted, ens, basis, truncation, config))
        value[k] = (sols[0].y0 - sols[1].y0) / (2.0 * h)
        # per-path differences at the first interior node carry the
        # surviving sampling noise of the CRN quotient
        diff = (sols[0].y[:, 1] - sols[1].y[:, 1]) / (2.0 * h)
        stderr[k] = diff.std(ddof=1) / math.sqrt(diff.shape[0])
    return FdGradient(value=value, stderr=stderr, h=float(h))
