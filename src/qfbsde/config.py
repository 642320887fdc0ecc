"""Experiment configuration: a small line-oriented grammar and its schema.

Grammar (one declaration per line)::

    config   = { line }
    line     = blank | comment | section | binding
    section  = "[" name "]"                  ; problem, numerics, experiment, output
    binding  = key "=" value [ comment ]
    key      = name { "." name }             ; dotted tail = parameter of a named thing
    value    = string | number | bool | array
    string   = '"' chars-without-quote '"'
    bool     = "true" | "false"
    array    = "[" [ value { "," value } ] "]"     ; scalars only, one line
    comment  = "#" anything

Numbers use Python literal syntax (``1e-10`` is a float, ``50`` an int)
and must be finite: ``inf``, ``nan`` and overflowing literals such as
``1e999`` are refused.
Every key is checked against the block schema below — unknown keys are
errors, not warnings, so a typo cannot silently fall back to a default.
Diagnostics carry the line number, the key and the reason; duplicate
keys report both line numbers.

``parse_config`` fills defaults, so the minimal valid file is empty (or
any subset of bindings); ``emit_config`` writes the fully defaulted form
back out, and ``parse_config(emit_config(c)) == c`` exactly.
"""

from __future__ import annotations

import inspect
import math
import re
from dataclasses import dataclass, field

from .core import QfbsdeError, RunConfig, TimeGrid, UNTRUNCATED
from .backward import RegressionBasis
from .registry import DRIFTS, DRIVERS, TERMINALS, build_problem

__all__ = [
    "Diagnostic",
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "emit_config",
]

@dataclass(frozen=True)
class Diagnostic:
    """One validation finding: where, what, why."""

    line: int
    key: str
    reason: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.key}: {self.reason}"


class ConfigError(QfbsdeError):
    """Raised when a config does not validate; carries all diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------
#
# (type, default, check, reason) per key; type is one of
# int / float / str / floats / ints / strs / scalar_or_floats.
# A check is a predicate on the coerced value.

def _positive(v):
    return v > 0


def _nonnegative(v):
    return v >= 0


_PROBLEM_SCHEMA = {
    "dim": ("int", 1, lambda v: v >= 1, "must be >= 1"),
    "x0": ("scalar_or_floats", 0.0, None, None),
    "horizon": ("float", 1.0, _positive, "must be positive"),
    "drift": ("str", "zero", lambda v: v in DRIFTS,
              f"must be one of {sorted(DRIFTS)}"),
    "terminal": ("str", "tanh", lambda v: v in TERMINALS,
                 f"must be one of {sorted(TERMINALS)}"),
    "driver": ("str", "colehopf", lambda v: v in DRIVERS,
               f"must be one of {sorted(DRIVERS)}"),
}

_NUMERICS_SCHEMA = {
    "grid_n": ("int", 50, lambda v: v >= 1, "must be >= 1"),
    "paths": ("int", 10000, lambda v: v >= 2, "must be >= 2"),
    "seed": ("int", 0, None, None),
    "basis": ("str", "polynomial",
              lambda v: v in ("polynomial", "piecewise_linear"),
              "must be polynomial or piecewise_linear"),
    "basis.degree": ("int", 4, _nonnegative, "must be >= 0"),
    "basis.bins": ("int", 8, lambda v: v >= 2, "must be >= 2"),
    "basis.support": ("floats", (-4.0, 4.0),
                      lambda v: len(v) == 2 and v[0] < v[1],
                      "must be [lo, hi] with lo < hi"),
    "basis.knots": ("floats", (),
                    lambda v: len(v) == 0 or (
                        len(v) >= 2
                        and all(a < b for a, b in zip(v, v[1:]))),
                    "must be >= 2 strictly increasing values"),
    "basis.ridge": ("float", 1e-10, _nonnegative, "must be >= 0"),
    "picard_tol": ("float", 1e-10, _positive, "must be positive"),
    "picard_max": ("int", 50, lambda v: v >= 1, "must be >= 1"),
    "eps": ("float", 0.0, _nonnegative,
            "must be >= 0 (0 disables mollification)"),
    "mollify_quad_points": ("int", 64, lambda v: v >= 2,
                            "must be >= 2 (Gauss–Hermite nodes per axis "
                            "for drifts without a closed-form smoothing)"),
    "truncation": ("int", 0, _nonnegative,
                   "must be >= 0 (0 means untruncated)"),
}

_EXPERIMENT_KIND_SCHEMA = {
    "solve": {},
    "oracle": {
        "tolerance": ("float", 0.02, _positive, "must be positive"),
        "tolerance_mode": ("str", "absolute",
                           lambda v: v in ("absolute", "relative"),
                           "must be absolute or relative"),
        "quad_points": ("int", 64, lambda v: v >= 2, "must be >= 2"),
    },
    "convergence": {
        "grid_list": ("ints", (8, 16, 32, 64),
                      lambda v: len(v) >= 2 and all(
                          a < b for a, b in zip(v, v[1:])) and v[0] >= 1,
                      "must be >= 2 strictly increasing positive step counts"),
        "reference": ("str", "finest", lambda v: v in ("finest", "oracle"),
                      "must be finest or oracle"),
        "max_error": ("float", 0.0, _nonnegative,
                      "must be >= 0 (0 disables the threshold)"),
    },
    "regularity": {
        "meshes": ("ints", (8, 16, 32, 64, 128),
                   lambda v: len(v) >= 2 and all(
                       a < b for a, b in zip(v, v[1:])) and v[0] >= 1,
                   "must be >= 2 strictly increasing positive step counts"),
        "fine_n": ("int", 384, lambda v: v >= 2, "must be >= 2"),
        "p": ("float", 2.0, lambda v: v >= 2.0, "must be >= 2"),
        "slope_range": ("floats", (0.7, 1.3),
                        lambda v: len(v) == 2 and v[0] < v[1],
                        "must be [lo, hi] with lo < hi"),
        "r2_min": ("float", 0.9, lambda v: 0.0 <= v <= 1.0,
                   "must lie in [0, 1]"),
    },
    "truncation": {
        "n_list": ("ints", (1, 2, 3, 4, 5, 6, 7, 8),
                   lambda v: len(v) >= 2 and all(
                       a < b for a, b in zip(v, v[1:])) and v[0] >= 1,
                   "must be >= 2 strictly increasing positive levels"),
        "decay_ratio": ("float", 0.1, _positive, "must be positive"),
        "monotone_sigma": ("float", 2.0, _nonnegative, "must be >= 0"),
    },
    "derivatives": {
        "anchors": ("ints", (), lambda v: all(a >= 0 for a in v),
                    "must be nonnegative step indices"),
        "fd_h": ("float", 1e-2, _positive, "must be positive"),
        "max_deviation": ("float", 0.05, _positive, "must be positive"),
        "fd_rel_tol": ("float", 0.05, _positive, "must be positive"),
    },
    "stability": {
        "ladder": ("str", "terminal_scale",
                   lambda v: v in ("terminal_scale", "driver_cap"),
                   "must be terminal_scale or driver_cap"),
        "levels": ("floats", (2.0, 4.0, 8.0),
                   lambda v: len(v) >= 1 and all(x > 0 for x in v),
                   "must be positive"),
    },
    "bounds": {
        "y_slack": ("float", 0.01, _nonnegative, "must be >= 0"),
        "bmo_slack": ("float", 0.10, _nonnegative, "must be >= 0"),
    },
}

EXPERIMENT_KINDS = tuple(_EXPERIMENT_KIND_SCHEMA)

_EXPERIMENT_COMMON = {
    "kind": ("str", "solve", lambda v: v in EXPERIMENT_KINDS,
             f"must be one of {list(EXPERIMENT_KINDS)}"),
}

_OUTPUT_SCHEMA = {
    "directory": ("str", "out", lambda v: bool(v), "must be nonempty"),
    "formats": ("strs", ("json", "csv"),
                lambda v: len(v) >= 1 and all(
                    x in ("json", "csv", "binary") for x in v),
                "entries must be json, csv or binary"),
}

_SECTIONS = ("problem", "numerics", "experiment", "output")

# families whose dotted parameters are validated against factory signatures
_PARAM_FAMILIES = {
    "problem": {"drift": DRIFTS, "terminal": TERMINALS, "driver": DRIVERS},
}

_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$")
_INT_RE = re.compile(r"^[+-]?\d+$")


# ---------------------------------------------------------------------------
# The config object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated, fully defaulted experiment description.

    The four blocks are plain dicts keyed exactly as in the file
    (dotted parameter keys included), which keeps equality structural:
    two configs are equal iff they emit the same file.
    """

    problem: dict = field(default_factory=dict)
    numerics: dict = field(default_factory=dict)
    experiment: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    # -- builders used by the runner ------------------------------------

    def _params_for(self, block: dict, name: str) -> dict:
        prefix = name + "."
        return {k[len(prefix):]: v for k, v in block.items()
                if k.startswith(prefix)}

    def build_problem(self):
        p = self.problem
        n = self.numerics
        return build_problem(
            dim=p["dim"], x0=p["x0"], horizon=p["horizon"],
            drift=p["drift"], drift_params=self._params_for(p, "drift"),
            terminal=p["terminal"],
            terminal_params=self._params_for(p, "terminal"),
            driver=p["driver"], driver_params=self._params_for(p, "driver"),
            mollify_eps=n["eps"], mollify_quad_points=n["mollify_quad_points"])

    def grid(self) -> TimeGrid:
        return TimeGrid.uniform(self.problem["horizon"],
                                self.numerics["grid_n"])

    def basis(self) -> RegressionBasis:
        n = self.numerics
        return RegressionBasis(
            kind=n["basis"], degree=n["basis.degree"], bins=n["basis.bins"],
            support=tuple(n["basis.support"]), ridge=n["basis.ridge"],
            knots=tuple(n["basis.knots"]))

    def run_config(self) -> RunConfig:
        n = self.numerics
        return RunConfig(seed=n["seed"], n_paths=n["paths"],
                         picard_tol=n["picard_tol"],
                         picard_max=n["picard_max"])

    def truncation(self):
        level = self.numerics["truncation"]
        return UNTRUNCATED if level == 0 else level

    @property
    def kind(self) -> str:
        return self.experiment["kind"]


# ---------------------------------------------------------------------------
# Lexing
# ---------------------------------------------------------------------------

def _strip_comment(line: str) -> str:
    out = []
    in_string = False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        if ch == "#" and not in_string:
            break
        out.append(ch)
    return "".join(out)


def _split_outside_strings(body: str) -> list:
    """``body`` split at the commas that lie outside quoted strings."""
    parts = []
    start = 0
    in_string = False
    for i, ch in enumerate(body):
        if ch == '"':
            in_string = not in_string
        elif ch == "," and not in_string:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return parts


def _parse_scalar(text: str, line_no: int, key: str, diags):
    text = text.strip()
    if not text:
        diags.append(Diagnostic(line_no, key, "empty value"))
        return None
    if text.startswith('"'):
        if not (text.endswith('"') and len(text) >= 2):
            diags.append(Diagnostic(line_no, key, "unterminated string"))
            return None
        body = text[1:-1]
        if '"' in body:
            diags.append(Diagnostic(line_no, key,
                                    "strings cannot contain quotes"))
            return None
        return body
    if text in ("true", "false"):
        return text == "true"
    if _INT_RE.match(text):
        return int(text)
    try:
        value = float(text)
    except ValueError:
        diags.append(Diagnostic(
            line_no, key,
            f"cannot parse {text!r} (strings must be quoted)"))
        return None
    if not math.isfinite(value):
        diags.append(Diagnostic(line_no, key,
                                f"{text!r} is not a finite number"))
        return None
    return value


def _parse_value(text: str, line_no: int, key: str, diags):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            diags.append(Diagnostic(line_no, key, "unterminated array"))
            return None
        body = text[1:-1].strip()
        if not body:
            return ()
        items = []
        for part in _split_outside_strings(body):
            if part.strip().startswith("["):
                diags.append(Diagnostic(line_no, key, "arrays cannot nest"))
                return None
            v = _parse_scalar(part, line_no, key, diags)
            if v is None:
                return None
            items.append(v)
        return tuple(items)
    return _parse_scalar(text, line_no, key, diags)


def _lex(text: str):
    """Yield (section, key, value, line_no) bindings plus diagnostics."""
    diags: list[Diagnostic] = []
    bindings = []
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                diags.append(Diagnostic(line_no, line, "malformed section header"))
                continue
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                diags.append(Diagnostic(
                    line_no, name,
                    f"unknown section (expected one of {list(_SECTIONS)})"))
                section = None
                continue
            section = name
            continue
        if "=" not in line:
            diags.append(Diagnostic(line_no, line,
                                    "expected `key = value` or a section header"))
            continue
        key, _, rhs = line.partition("=")
        key = key.strip()
        if not _KEY_RE.match(key):
            diags.append(Diagnostic(line_no, key, "malformed key"))
            continue
        if section is None:
            diags.append(Diagnostic(
                line_no, key, "binding appears before any [section] header"))
            continue
        value = _parse_value(rhs, line_no, key, diags)
        if value is not None:
            bindings.append((section, key, value, line_no))
    return bindings, diags


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _coerce(value, type_name, key, line_no, diags):
    def fail(reason):
        diags.append(Diagnostic(line_no, key, reason))
        return None

    if type_name == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            return fail(f"expected an integer, got {value!r}")
        return value
    if type_name == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return fail(f"expected a number, got {value!r}")
        return float(value)
    if type_name == "str":
        if not isinstance(value, str):
            return fail(f"expected a quoted string, got {value!r}")
        return value
    if type_name == "scalar_or_floats":
        if isinstance(value, bool):
            return fail(f"expected a number or array, got {value!r}")
        if isinstance(value, (int, float)):
            return float(value)
        type_name = "floats"  # fall through to the array branch
    if type_name in ("floats", "ints", "strs"):
        if not isinstance(value, tuple):
            return fail(f"expected a bracketed array, got {value!r}")
        kind = type_name[:-1]
        out = []
        for item in value:
            if kind == "float":
                if isinstance(item, bool) or not isinstance(item, (int, float)):
                    return fail(f"array entries must be numbers, got {item!r}")
                out.append(float(item))
            elif kind == "int":
                if isinstance(item, bool) or not isinstance(item, int):
                    return fail(f"array entries must be integers, got {item!r}")
                out.append(item)
            else:
                if not isinstance(item, str):
                    return fail(f"array entries must be strings, got {item!r}")
                out.append(item)
        return tuple(out)
    raise AssertionError(f"unhandled schema type {type_name}")


def _apply_schema(section, schema, entries, diags, *, param_families=None):
    """Validate one block's bindings against its schema and fill defaults."""
    block = {}
    # first pass: plain schema keys
    for key, (type_name, default, check, reason) in schema.items():
        if key in entries:
            value, line_no = entries[key]
            coerced = _coerce(value, type_name, key, line_no, diags)
            if coerced is None:
                continue
            if check is not None and not check(coerced):
                diags.append(Diagnostic(line_no, key, reason))
                continue
            block[key] = coerced
        else:
            block[key] = default
    # second pass: dotted parameters of registry names, free-form elsewhere
    for key, (value, line_no) in entries.items():
        if key in schema:
            continue
        head = key.split(".", 1)[0]
        families = param_families or {}
        if head in families and "." in key:
            table = families[head]
            name = block.get(head)
            param = key.split(".", 1)[1]
            if "." in param:
                diags.append(Diagnostic(line_no, key,
                                        "parameters nest one level only"))
                continue
            factory = table.get(name)
            if factory is not None:
                sig = inspect.signature(factory)
                if param not in sig.parameters:
                    known = [p for p in sig.parameters]
                    diags.append(Diagnostic(
                        line_no, key,
                        f"{head} {name!r} takes no parameter {param!r}"
                        + (f" (takes: {known})" if known else " (takes none)")))
                    continue
            if isinstance(value, tuple):
                diags.append(Diagnostic(line_no, key,
                                        "parameters must be scalars"))
                continue
            block[key] = float(value) if isinstance(value, int) \
                and not isinstance(value, bool) else value
        else:
            diags.append(Diagnostic(
                line_no, key,
                f"unknown key in [{section}] (known: {sorted(schema)})"))
    return block


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises :class:`ConfigError` listing every finding."""
    bindings, diags = _lex(text)

    # duplicate full keys, reported with both line numbers
    seen: dict = {}
    deduped: dict = {}
    for section, key, value, line_no in bindings:
        full = (section, key)
        if full in seen:
            diags.append(Diagnostic(
                line_no, f"{section}.{key}",
                f"duplicate key (first bound on line {seen[full]})"))
            continue
        seen[full] = line_no
        deduped.setdefault(section, {})[key] = (value, line_no)

    problem = _apply_schema(
        "problem", _PROBLEM_SCHEMA, deduped.get("problem", {}), diags,
        param_families=_PARAM_FAMILIES["problem"])
    numerics = _apply_schema(
        "numerics", _NUMERICS_SCHEMA, deduped.get("numerics", {}), diags)
    output = _apply_schema(
        "output", _OUTPUT_SCHEMA, deduped.get("output", {}), diags)

    # the experiment block's schema depends on its own `kind` entry
    exp_entries = deduped.get("experiment", {})
    kind_schema = dict(_EXPERIMENT_COMMON)
    if "experiment" in deduped and "kind" not in exp_entries:
        diags.append(Diagnostic(
            0, "experiment.kind",
            "missing required key `kind` in [experiment]"))
    kind_value = exp_entries.get("kind", ("solve", 0))[0]
    if isinstance(kind_value, str) and kind_value in _EXPERIMENT_KIND_SCHEMA:
        kind_schema.update(_EXPERIMENT_KIND_SCHEMA[kind_value])
    experiment = _apply_schema("experiment", kind_schema, exp_entries, diags)

    def cross_field(full_key: str, reason: str) -> None:
        # on the line that binds the key, or 0 when the file leaves it unset
        section, key = full_key.split(".", 1)
        line_no = deduped.get(section, {}).get(key, (None, 0))[1]
        diags.append(Diagnostic(line_no, full_key, reason))

    # cross-field checks that need more than one block
    if not diags:
        if numerics["basis"] == "piecewise_linear" and problem["dim"] != 1:
            cross_field("numerics.basis",
                        "piecewise_linear basis is one-dimensional only")
        if numerics["basis.knots"] and numerics["basis"] != "piecewise_linear":
            cross_field("numerics.basis.knots",
                        "knots apply to the piecewise_linear basis only")
        x0 = problem["x0"]
        if isinstance(x0, tuple) and len(x0) != problem["dim"]:
            cross_field("problem.x0",
                        f"x0 has {len(x0)} entries but dim = {problem['dim']}")
        if experiment["kind"] == "derivatives":
            bad = [a for a in experiment["anchors"]
                   if a >= numerics["grid_n"]]
            if bad:
                cross_field("experiment.anchors",
                            f"anchor {bad[0]} is outside the grid "
                            f"(grid_n = {numerics['grid_n']})")
            _, drift_gradient, _ = DRIFTS[problem["drift"]]()
            if drift_gradient is None and numerics["eps"] == 0.0:
                cross_field("numerics.eps",
                            f"drift {problem['drift']!r} has no gradient; "
                            "derivative solvers need eps > 0 (mollification)")
        if experiment["kind"] == "regularity":
            bad = [m for m in experiment["meshes"]
                   if experiment["fine_n"] % m != 0]
            if bad:
                cross_field("experiment.meshes",
                            f"mesh {bad[0]} does not divide fine_n = "
                            f"{experiment['fine_n']}")

    if diags:
        raise ConfigError(sorted(diags, key=lambda d: (d.line, d.key)))
    return ExperimentConfig(problem=problem, numerics=numerics,
                            experiment=experiment, output=output)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _format_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return f'"{v}"'
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def _format_value(v) -> str:
    if isinstance(v, tuple):
        return "[" + ", ".join(_format_scalar(x) for x in v) + "]"
    return _format_scalar(v)


def emit_config(config: ExperimentConfig) -> str:
    """Write the fully defaulted config back to its file form.

    Keys come out in schema order with dotted parameters sorted after
    their family name, so emission is canonical: equal configs emit
    byte-identical text.
    """
    lines = []
    blocks = (("problem", config.problem, _PROBLEM_SCHEMA),
              ("numerics", config.numerics, _NUMERICS_SCHEMA),
              ("experiment", config.experiment, None),
              ("output", config.output, _OUTPUT_SCHEMA))
    for section, block, schema in blocks:
        lines.append(f"[{section}]")
        if schema is None:
            schema = dict(_EXPERIMENT_COMMON)
            schema.update(_EXPERIMENT_KIND_SCHEMA.get(
                block.get("kind", "solve"), {}))
        ordered = [k for k in schema if k in block]
        extras = sorted(k for k in block if k not in schema)
        for key in ordered + extras:
            lines.append(f"{key} = {_format_value(block[key])}")
        lines.append("")
    return "\n".join(lines)
