"""Named building blocks for experiment configs.

Drifts, terminal conditions, drivers and growth profiles are registered
under short names so a config file can say ``drift = "sign"`` instead of
shipping code.  Every factory is a plain function whose keyword arguments
are the tunable parameters; ``describe_registry`` introspects those
signatures for the CLI listing, so the signature *is* the documentation
of record.

``build_problem`` assembles a full :class:`~qfbsde.core.FBSDEProblem`
from names + parameter dicts, including optional Gaussian mollification
of the drift (rough drifts get their Jacobian from the mollifier, which
never differentiates the raw field).
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .core import DriverSpec, FBSDEProblem, ValidationError
from .forward import _smoothed_sign, mollify_drift

__all__ = [
    "make_drift",
    "make_terminal",
    "make_driver",
    "make_growth_profile",
    "build_problem",
    "describe_registry",
]


# ---------------------------------------------------------------------------
# Growth profiles (the nondecreasing f in the driver envelope)
# ---------------------------------------------------------------------------

def _f_zero():
    """Identically zero profile (driver has no quadratic term)."""
    return lambda u: np.zeros_like(np.asarray(u, dtype=float))


def _f_constant(c: float = 0.5):
    """Constant profile ``f(u) = c``; plain quadratic growth."""
    if c < 0:
        raise ValidationError("constant growth profile needs c >= 0")
    return lambda u: np.full_like(np.asarray(u, dtype=float), c)


def _f_power(q: float = 1.0):
    """Power profile ``f(u) = u**q`` on ``u >= 0``."""
    if q < 0:
        raise ValidationError("power growth profile needs q >= 0")
    return lambda u: np.asarray(u, dtype=float) ** q


def _f_log1p():
    """Slowly growing profile ``f(u) = log(1 + u)``."""
    return lambda u: np.log1p(np.asarray(u, dtype=float))


GROWTH_PROFILES = {
    "zero": _f_zero,
    "constant": _f_constant,
    "power": _f_power,
    "log1p": _f_log1p,
}


# ---------------------------------------------------------------------------
# Drifts
# ---------------------------------------------------------------------------
#
# Each factory returns (callable, gradient_or_None, sup_bound).  The
# callable maps (t, x[M,d]) -> (M,d); the gradient, when analytic, maps
# (t, x[M,d]) -> (M,d,d).

def _zero_jacobian(t, x):
    """The Jacobian of every state-independent drift."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.zeros((x.shape[0], x.shape[1], x.shape[1]))


def _drift_zero():
    """No drift; the state is plain Brownian motion."""

    def b(t, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return b, _zero_jacobian, 0.0


def _drift_constant(c: float = 1.0):
    """Constant push ``b(t, x) = c`` in every coordinate."""

    def b(t, x, _c=float(c)):
        return np.full_like(np.asarray(x, dtype=float), _c)

    return b, _zero_jacobian, abs(float(c))


def _drift_sign():
    """Componentwise ``sign(x)``: bounded, discontinuous at the origin.

    The canonical rough drift — merely measurable, so there is no
    gradient to register; mollify it to run flow or derivative solvers.
    """

    def b(t, x):
        return np.sign(np.asarray(x, dtype=float))

    return b, None, 1.0


def _drift_holder_sqrt():
    """``sign(x) * sqrt(|x|)``: continuous but only 1/2-Holder at 0."""

    def b(t, x):
        x = np.asarray(x, dtype=float)
        return np.sign(x) * np.sqrt(np.abs(x))

    return b, None, math.inf


def _drift_smooth_sin(amplitude: float = 1.0):
    """Smooth benchmark ``b(t, x) = amplitude * sin(x)`` componentwise."""

    def b(t, x, _a=float(amplitude)):
        return _a * np.sin(np.asarray(x, dtype=float))

    def jac(t, x, _a=float(amplitude)):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        m, d = x.shape
        out = np.zeros((m, d, d))
        idx = np.arange(d)
        out[:, idx, idx] = _a * np.cos(x)
        return out

    return b, jac, abs(float(amplitude))


DRIFTS = {
    "zero": _drift_zero,
    "constant": _drift_constant,
    "sign": _drift_sign,
    "holder_sqrt": _drift_holder_sqrt,
    "smooth_sin": _drift_smooth_sin,
}

# Drifts whose Gaussian smoothing has a closed form: eps -> (smoothed drift,
# its Jacobian).  Every other drift takes the Gauss–Hermite rule of
# mollify_drift.
EXACT_SMOOTHINGS = {
    "sign": _smoothed_sign,
}


# ---------------------------------------------------------------------------
# Terminal conditions
# ---------------------------------------------------------------------------
#
# Factories return (callable, sup_bound, gradient_or_None);
# the callable maps x[M,d] -> (M,), the gradient x[M,d] -> (M,d).

def _terminal_tanh():
    """``phi(x) = tanh(x_1)``: smooth, bounded by 1, Lipschitz 1."""

    def phi(x):
        return np.tanh(np.atleast_2d(np.asarray(x, dtype=float))[:, 0])

    def grad(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        out[:, 0] = 1.0 / np.cosh(x[:, 0]) ** 2
        return out

    return phi, 1.0, grad


def _terminal_clip(level: float = 1.0):
    """``phi(x) = clip(x_1, -level, level)``: Lipschitz 1 with kinks."""
    if not level > 0:
        raise ValidationError("clip terminal needs level > 0")

    def phi(x, _l=float(level)):
        return np.clip(np.atleast_2d(np.asarray(x, dtype=float))[:, 0], -_l, _l)

    return phi, float(level), None


def _terminal_constant(c: float = 1.0):
    """``phi == c``: the degenerate terminal used by closed-form checks."""

    def phi(x, _c=float(c)):
        return np.full(np.atleast_2d(np.asarray(x, dtype=float)).shape[0], _c)

    def grad(x):
        return np.zeros_like(np.atleast_2d(np.asarray(x, dtype=float)))

    return phi, abs(float(c)), grad


def _terminal_coordinate():
    """``phi(x) = x_1``: unbounded; sup-norm audits refuse it by design."""

    def phi(x):
        return np.atleast_2d(np.asarray(x, dtype=float))[:, 0].copy()

    def grad(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        out[:, 0] = 1.0
        return out

    return phi, math.inf, grad


TERMINALS = {
    "tanh": _terminal_tanh,
    "clip": _terminal_clip,
    "constant": _terminal_constant,
    "coordinate": _terminal_coordinate,
}


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def _driver_zero():
    """``g == 0``; the backward equation is a plain martingale."""
    return DriverSpec(
        g=lambda t, x, y, z: np.zeros_like(np.asarray(y, dtype=float)),
        lambda0=0.0, lambda_y=0.0, lambda_z=0.0, name="zero",
        grad=lambda t, x, y, z: (np.zeros_like(np.atleast_2d(x)),
                                 np.zeros_like(np.asarray(y, dtype=float)),
                                 np.zeros_like(np.atleast_2d(z))),
    )


def _driver_linear(a: float = -1.0, c: float = 0.0):
    """``g = a*y + c*z_1``: the affine family with a closed form.

    ``a`` is the value coefficient, ``c`` tilts the first Brownian
    component (a Girsanov shift in the closed form).
    """

    def g(t, x, y, z, _a=float(a), _c=float(c)):
        return _a * np.asarray(y, dtype=float) + _c * np.atleast_2d(z)[:, 0]

    def grad(t, x, y, z, _a=float(a), _c=float(c)):
        gz = np.zeros_like(np.atleast_2d(z))
        gz[:, 0] = _c
        return (np.zeros_like(np.atleast_2d(x)),
                np.full_like(np.asarray(y, dtype=float), _a), gz)

    return DriverSpec(g=g, lambda0=0.0, lambda_y=abs(float(a)),
                      lambda_z=abs(float(c)), name="linear", grad=grad)


def _driver_colehopf(gamma: float = 1.0):
    """Pure quadratic ``g = (gamma/2) |z|^2``; exponential transform closes it."""
    if not gamma > 0:
        raise ValidationError("colehopf driver needs gamma > 0")
    half = 0.5 * float(gamma)

    def g(t, x, y, z, _h=half):
        z = np.atleast_2d(z)
        return _h * np.einsum("md,md->m", z, z)

    def grad(t, x, y, z, _g=float(gamma)):
        return (np.zeros_like(np.atleast_2d(x)),
                np.zeros_like(np.asarray(y, dtype=float)),
                _g * np.atleast_2d(z))

    return DriverSpec(g=g, lambda0=0.0, lambda_y=0.0, lambda_z=1.0,
                      f=_f_constant(half), name="colehopf", grad=grad)


def _driver_f_power(q: float = 1.0, scale: float = 1.0):
    """Value-modulated quadratic ``g = scale * |y|**q * |z|^2``.

    The growth profile is ``f(u) = scale * u**q``; the analytic gradient is
    registered for ``q >= 1`` only (below that the ``y``-derivative blows
    up at 0 and the finite-difference fallback is the honest choice).
    """
    if q < 0 or scale < 0:
        raise ValidationError("f_power driver needs q >= 0 and scale >= 0")
    q = float(q)
    scale = float(scale)

    def g(t, x, y, z):
        z = np.atleast_2d(z)
        ay = np.abs(np.asarray(y, dtype=float))
        return scale * ay ** q * np.einsum("md,md->m", z, z)

    def grad(t, x, y, z):
        y = np.asarray(y, dtype=float)
        z = np.atleast_2d(z)
        zz = np.einsum("md,md->m", z, z)
        return (np.zeros_like(np.atleast_2d(x)),
                scale * q * np.abs(y) ** (q - 1.0) * np.sign(y) * zz,
                2.0 * scale * (np.abs(y) ** q)[:, None] * z)

    def f(u):
        return scale * np.asarray(u, dtype=float) ** q

    return DriverSpec(g=g, lambda0=0.0, lambda_y=0.0, lambda_z=1.0,
                      f=f, name="f_power", grad=grad if q >= 1.0 else None)


def _driver_general_assumption2(lambda0: float = 0.1, lambda_y: float = 0.25,
                                lambda_z: float = 0.5, alpha: float = 0.5,
                                f: str = "constant", q: float = 1.0,
                                c: float = 0.5):
    """Demo driver saturating every term of the declared growth envelope.

    ``g = lambda0*cos(x_1) - lambda_y*y + lambda_z*(z_1 + f(|y|)|z|^2)``
    with the profile ``f`` picked from the growth registry (its parameter
    is ``q`` for ``power``, ``c`` for ``constant``).  Each envelope
    constant is attained, so bound audits exercise the general case
    rather than a degenerate one.

    The default profile is ``constant``: a y-varying quadratic
    coefficient has y-sensitivity of order ``|z|^2``, which the declared
    modulus ``lambda_y*(1+|z|^alpha)`` with ``alpha < 1`` cannot
    dominate, so such a driver does not belong to the class it declares.
    Selecting ``f="power"`` builds exactly that kind of impostor on
    purpose: its y-sensitivity breaks the declared Lipschitz modulus, which
    makes it a negative control for any audit of the declared class.
    """
    prof = make_growth_profile(
        f, {"power": {"q": q}, "constant": {"c": c}}.get(f, {}))
    l0, ly, lz = float(lambda0), float(lambda_y), float(lambda_z)

    def g(t, x, y, z):
        x = np.atleast_2d(x)
        z = np.atleast_2d(z)
        y = np.asarray(y, dtype=float)
        zz = np.einsum("md,md->m", z, z)
        return (l0 * np.cos(x[:, 0]) - ly * y
                + lz * (z[:, 0] + prof(np.abs(y)) * zz))

    return DriverSpec(g=g, lambda0=l0, lambda_y=ly, lambda_z=lz,
                      alpha=float(alpha), f=prof, name="general_assumption2")


DRIVERS = {
    "zero": _driver_zero,
    "linear": _driver_linear,
    "colehopf": _driver_colehopf,
    "f_power": _driver_f_power,
    "general_assumption2": _driver_general_assumption2,
}


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def _instantiate(table: dict, family: str, name: str, params: dict):
    if name not in table:
        known = ", ".join(sorted(table))
        raise ValidationError(f"unknown {family} {name!r} (known: {known})")
    factory = table[name]
    sig = inspect.signature(factory)
    for key in params:
        if key not in sig.parameters:
            raise ValidationError(f"{family} {name!r} takes no parameter {key!r}")
    return factory(**params)


def make_drift(name: str, params: dict | None = None):
    """Resolve a drift name to ``(callable, gradient_or_None, sup_bound)``."""
    return _instantiate(DRIFTS, "drift", name, dict(params or {}))


def make_terminal(name: str, params: dict | None = None):
    """Resolve a terminal name to ``(callable, bound, gradient)``."""
    return _instantiate(TERMINALS, "terminal", name, dict(params or {}))


def make_driver(name: str, params: dict | None = None) -> DriverSpec:
    """Resolve a driver name to a :class:`DriverSpec`."""
    return _instantiate(DRIVERS, "driver", name, dict(params or {}))


def make_growth_profile(name: str, params: dict | None = None):
    """Resolve a growth-profile name to a callable ``f``."""
    return _instantiate(GROWTH_PROFILES, "growth profile", name,
                        dict(params or {}))


def build_problem(
    *,
    dim: int = 1,
    x0=0.0,
    horizon: float = 1.0,
    drift: str = "zero",
    drift_params: dict | None = None,
    terminal: str = "tanh",
    terminal_params: dict | None = None,
    driver: str = "colehopf",
    driver_params: dict | None = None,
    mollify_eps: float = 0.0,
    mollify_quad_points: int = 64,
) -> FBSDEProblem:
    """Assemble a problem from registry names and parameter dicts.

    ``mollify_eps > 0`` replaces the named drift by its Gaussian
    smoothing at that scale and registers that smoothing's Jacobian as the
    drift gradient — the route by which rough drifts (``sign``,
    ``holder_sqrt``) become usable in flow and derivative solvers.  The
    smoothing is exact where it has a closed form (``sign`` gives
    ``erf(x/(eps*sqrt(2)))`` and the Gaussian density); every other drift
    takes ``mollify_quad_points`` Gauss–Hermite nodes per dimension.
    """
    b, b_jac, b_bound = make_drift(drift, drift_params)
    phi, phi_bound, phi_grad = make_terminal(terminal, terminal_params)
    spec = make_driver(driver, driver_params)
    label = f"{drift}+{driver}+{terminal}"
    if not mollify_eps >= 0.0:
        raise ValidationError(
            f"mollify_eps must be >= 0 (0 disables it), got {mollify_eps}")
    if mollify_eps > 0.0:
        b, b_jac = (EXACT_SMOOTHINGS[drift](mollify_eps)
                    if drift in EXACT_SMOOTHINGS else
                    mollify_drift(b, mollify_eps, dim=dim,
                                  quad_points=mollify_quad_points))
        label += f"@eps{mollify_eps:g}"
    x0_vec = np.zeros(dim) + np.asarray(x0, dtype=float)
    return FBSDEProblem(
        dim=dim, x0=x0_vec, drift=b, terminal=phi, driver=spec,
        horizon=float(horizon), terminal_bound=phi_bound, drift_bound=b_bound,
        drift_gradient=b_jac, terminal_gradient=phi_grad, label=label)


def _defaults(factory) -> dict:
    """A factory's parameters and their defaults, read off its signature."""
    return {k: p.default
            for k, p in inspect.signature(factory).parameters.items()
            if p.default is not inspect.Parameter.empty}


def describe_registry() -> dict:
    """Names, parameters (with defaults) and one-line docs, per family."""
    out: dict = {}
    for family, table in (("drifts", DRIFTS), ("terminals", TERMINALS),
                          ("drivers", DRIVERS),
                          ("growth_profiles", GROWTH_PROFILES)):
        rows = {}
        for name, factory in sorted(table.items()):
            doc = (factory.__doc__ or "").strip().splitlines()[0]
            rows[name] = {"params": _defaults(factory), "doc": doc}
        out[family] = rows
    return out
