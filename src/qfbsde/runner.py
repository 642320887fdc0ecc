"""Experiment orchestration: one config in, artifacts + exit status out.

Each experiment kind maps onto the solver and audit modules; the runner
itself only assembles inputs, collects results into a report dict, and
persists whatever the output block asks for.  Reports never contain
timestamps — reruns of the same config produce byte-identical JSON and
CSV — while ``manifest.json`` records the volatile facts of the run
(config hash, wall time, library versions, ISO timestamp).

Exit status: ``0`` when the kind's pass criteria hold, ``2`` when the
run completed but a threshold failed, ``1`` on any execution error.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from .core import QfbsdeError, TimeGrid, ValidationError
from .forward import simulate, variational_flow
from .backward import apriori_check, estimate_bmo, lsmc_solve
from .oracles import domination_oracle, linear_oracle
from .analysis import (
    _fit_positive,
    path_regularity_stat,
    truncation_error_curve,
    stability_experiment,
)
from .derivatives import (
    DerivativeSolution,
    fd_gradient,
    representation_check,
    solve_malliavin_bsde,
)
from .config import ExperimentConfig, emit_config
from .registry import DRIVERS, _defaults
from . import storage

__all__ = ["run"]

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_THRESHOLD = 2


# ---------------------------------------------------------------------------
# Kind handlers: each returns (report, curve_rows_or_None, artifacts)
# ---------------------------------------------------------------------------
# `artifacts` maps logical names to objects the writer knows how to store:
# "ensemble" -> PathEnsemble, "solution" -> BackwardSolution,
# "fields" -> (grid, seed, {name: array}).


def _solve_common(config: ExperimentConfig):
    problem = config.build_problem()
    grid = config.grid()
    rc = config.run_config()
    basis = config.basis()
    ensemble = simulate(problem, grid, rc.n_paths, rc.seed)
    return problem, grid, rc, basis, ensemble


def _kind_solve(config):
    problem, _, rc, basis, ensemble = _solve_common(config)
    sol = lsmc_solve(problem, ensemble, basis, config.truncation(), rc)
    report = {
        "y0": sol.y0,
        "sup_y_node": float(sol.diagnostics["sup_y_node"]),
        "z_bmo": estimate_bmo(sol, ensemble),
        "picard_iters_max": int(np.max(sol.diagnostics["picard_iters"])),
        "truncation": config.numerics["truncation"],
        "passed": True,
    }
    return report, None, {"ensemble": ensemble, "solution": sol}


def _closed_form_y0(config, problem):
    """Route the problem to whichever oracle matches its driver family."""
    name = config.problem["driver"]
    quad = config.experiment.get("quad_points", 64)
    if name in ("colehopf", "f_power"):
        res = domination_oracle(problem, quad_points=quad)
        return res.y0, res.stderr, "domination"
    if name == "linear":
        params = {**_defaults(DRIVERS["linear"]),
                  **config._params_for(config.problem, "driver")}
        res = linear_oracle(problem, params["a"], params["c"])
        return res.y0, res.stderr, "linear"
    if name == "zero":
        res = linear_oracle(problem, 0.0, 0.0)
        return res.y0, res.stderr, "linear"
    raise QfbsdeError(
        f"driver {name!r} has no closed-form oracle "
        "(supported: colehopf, f_power, linear, zero)")


def _kind_oracle(config):
    problem, _, rc, basis, ensemble = _solve_common(config)
    sol = lsmc_solve(problem, ensemble, basis, config.truncation(), rc)
    ref_y0, ref_se, which = _closed_form_y0(config, problem)
    gap = abs(sol.y0 - ref_y0)
    tol = config.experiment["tolerance"]
    mode = config.experiment["tolerance_mode"]
    if mode == "relative" and ref_y0 == 0.0:
        raise ValidationError(
            f"{which} oracle value y0 = 0 admits no relative tolerance "
            "(use tolerance_mode = \"absolute\")")
    measured = gap / abs(ref_y0) if mode == "relative" else gap
    report = {
        "y0_lsmc": sol.y0,
        "y0_oracle": ref_y0,
        "oracle": which,
        "oracle_stderr": ref_se,
        "gap": gap,
        "measured": measured,
        "tolerance": tol,
        "tolerance_mode": mode,
        "passed": bool(measured <= tol),
    }
    return report, None, {"ensemble": ensemble, "solution": sol}


def _kind_convergence(config):
    problem = config.build_problem()
    rc = config.run_config()
    basis = config.basis()
    horizon = config.problem["horizon"]
    grid_list = list(config.experiment["grid_list"])
    trunc = config.truncation()

    y0s, ses = [], []
    for n in grid_list:
        grid = TimeGrid.uniform(horizon, n)
        ens = simulate(problem, grid, rc.n_paths, rc.seed)
        sol = lsmc_solve(problem, ens, basis, trunc, rc)
        y0s.append(sol.y0)
        # y[:, 0] is one value shared by every path; the first interior
        # node carries the sampling spread
        ses.append(float(sol.y[:, 1].std(ddof=1))
                   / math.sqrt(sol.n_paths))

    if config.experiment.get("reference", "finest") == "oracle":
        ref, _, which = _closed_form_y0(config, problem)
        xs, errs, errses = grid_list, [abs(v - ref) for v in y0s], ses
    else:
        which = "finest"
        ref = y0s[-1]
        xs = grid_list[:-1]
        errs = [abs(v - ref) for v in y0s[:-1]]
        errses = ses[:-1]
    slope, r2 = _fit_positive(xs, errs)
    max_err = config.experiment["max_error"]
    passed = True if max_err == 0.0 else bool(max(errs) <= max_err)
    report = {
        "grid_list": grid_list,
        "y0": y0s,
        "reference": which,
        "reference_y0": ref,
        "errors": errs,
        "stderrs": errses,
        "slope": slope,
        "r2": r2,
        "max_error": max_err,
        "passed": passed,
    }
    curve = [(float(x), float(e), float(s))
             for x, e, s in zip(xs, errs, errses)]
    return report, curve, {}


def _kind_regularity(config):
    problem = config.build_problem()
    rc = config.run_config()
    basis = config.basis()
    horizon = config.problem["horizon"]
    exp = config.experiment
    fine = TimeGrid.uniform(horizon, exp["fine_n"])
    ensemble = simulate(problem, fine, rc.n_paths, rc.seed)
    sol = lsmc_solve(problem, ensemble, basis, config.truncation(), rc)

    meshes, left_stats, left_ses, zbar_stats = [], [], [], []
    for m in exp["meshes"]:
        part = TimeGrid.uniform(horizon, m)
        val, se = path_regularity_stat(sol, part, exp["p"],
                                       "left_endpoint", ensemble=ensemble)
        zval, _ = path_regularity_stat(sol, part, exp["p"],
                                       "zbar", ensemble=ensemble)
        meshes.append(horizon / m)
        left_stats.append(val)
        left_ses.append(se)
        zbar_stats.append(zval)

    slope, r2 = _fit_positive(meshes[::-1], left_stats[::-1])
    lo, hi = exp["slope_range"]
    projection_ok = all(zb <= lf for zb, lf in zip(zbar_stats, left_stats))
    passed = bool(lo <= slope <= hi and r2 >= exp["r2_min"] and projection_ok)
    report = {
        "meshes": meshes,
        "left_endpoint": left_stats,
        "stderrs": left_ses,
        "zbar": zbar_stats,
        "projection_ok": projection_ok,
        "slope": slope,
        "r2": r2,
        "slope_range": list(exp["slope_range"]),
        "r2_min": exp["r2_min"],
        "p": exp["p"],
        "fine_n": exp["fine_n"],
        "passed": passed,
    }
    curve = [(float(m), float(v), float(s))
             for m, v, s in zip(meshes, left_stats, left_ses)]
    return report, curve, {"ensemble": ensemble, "solution": sol}


def _kind_truncation(config):
    problem, _, rc, basis, ensemble = _solve_common(config)
    exp = config.experiment
    n_list = list(exp["n_list"])
    curve_report = truncation_error_curve(problem, ensemble, basis, n_list, rc)
    errs = curve_report.errors
    ses = curve_report.stderrs
    decay = (float(errs[-1] / errs[0]) if errs[0] > 0.0
             else (0.0 if errs[-1] == 0.0 else math.inf))
    sig = exp["monotone_sigma"]
    monotone = all(
        errs[i + 1] <= errs[i] + sig * math.hypot(ses[i], ses[i + 1])
        for i in range(len(errs) - 1))
    passed = bool(decay <= exp["decay_ratio"] and monotone)
    report = {
        "n_list": n_list,
        "errors": errs.tolist(),
        "stderrs": ses.tolist(),
        "z_errors": curve_report.metadata.get("z_errors"),
        "slope": curve_report.slope,
        "r2": curve_report.r2,
        "stabilization_level": curve_report.metadata["stabilization_level"],
        "decay_ratio": decay,
        "decay_ratio_max": exp["decay_ratio"],
        "monotone_within_sigma": monotone,
        "passed": passed,
    }
    curve = [(float(n), float(e), float(s))
             for n, e, s in zip(n_list, errs, ses)]
    return report, curve, {"ensemble": ensemble}


def _kind_derivatives(config):
    problem, grid, rc, basis, ensemble = _solve_common(config)
    exp = config.experiment
    n = grid.n_steps
    anchors = list(exp["anchors"]) or [0, n // 2, n - 1]
    trunc = config.truncation()

    base = lsmc_solve(problem, ensemble, basis, trunc, rc)
    flow = variational_flow(problem, ensemble)
    # one induction: the gradient is the Malliavin field anchored at 0
    dy, dz = solve_malliavin_bsde(
        problem, ensemble, flow, base, [0, *anchors], basis, rc)
    nabla_y, nabla_z = dy[0], dz[0]
    deriv = DerivativeSolution(anchors=tuple(anchors), nabla_y=nabla_y,
                               nabla_z=nabla_z, dy=dy, dz=dz)
    ident = representation_check(base, deriv, flow)

    grad_y0 = nabla_y[:, 0, :].mean(axis=0)
    fd = fd_gradient(problem, exp["fd_h"], rc, grid=grid, basis=basis,
                     truncation=trunc)
    denom = np.maximum(np.abs(fd.value), 1e-12)
    fd_gap = float(np.max(np.abs(grad_y0 - fd.value) / denom))

    maxes = {name: ident.identities[name]["max"]
             for name in ("malliavin_value", "control_gradient",
                          "malliavin_control")}
    tol = exp["max_deviation"]
    passed = bool(max(maxes.values()) <= tol
                  and fd_gap <= exp["fd_rel_tol"])
    report = {
        "anchors": anchors,
        "identity_max": maxes,
        "identity_argmax": {
            name: list(np.atleast_1d(ident.identities[name]["argmax"]))
            for name in maxes},
        "grad_y0": grad_y0.tolist(),
        "fd_value": fd.value.tolist(),
        "fd_stderr": fd.stderr.tolist(),
        "fd_h": fd.h,
        "fd_rel_gap": fd_gap,
        "max_deviation": tol,
        "fd_rel_tol": exp["fd_rel_tol"],
        "passed": passed,
    }
    profile = ident.identities["control_gradient"]["profile"]
    curve = [(float(grid.times[i]), float(profile[i]), "")
             for i in range(len(profile))]
    fields = (grid, rc.seed, {"nabla_y": nabla_y, "nabla_z": nabla_z})
    return report, curve, {"ensemble": ensemble, "solution": base,
                           "fields": fields}


def _kind_stability(config):
    problem, _, rc, basis, ensemble = _solve_common(config)
    exp = config.experiment
    levels = list(exp["levels"])
    base_terminal = problem.terminal
    base_driver = problem.driver

    ladder = []
    if exp["ladder"] == "terminal_scale":
        for k in levels:
            def phi_k(x, _k=float(k), _phi=base_terminal):
                return np.asarray(_phi(x), dtype=float) / _k
            ladder.append((phi_k, None))
    else:
        for cap in levels:
            def g_cap(t, x, y, z, _c=float(cap), _g=base_driver.g):
                return np.clip(np.asarray(_g(t, x, y, z), dtype=float),
                               -_c, _c)
            capped = replace(base_driver, g=g_cap,
                             name=f"{base_driver.name}#cap{cap:g}", grad=None)
            ladder.append((None, capped))

    result = stability_experiment(problem, ladder, ensemble, basis, rc,
                                  truncation=config.truncation())
    report = {
        "ladder": exp["ladder"],
        "levels": levels,
        "errors": result.errors.tolist(),
        "stderrs": result.stderrs.tolist(),
        "z_errors": result.metadata["z_errors"],
        "apriori_rhs": result.metadata["apriori_rhs"],
        "error_to_rhs": result.metadata["error_to_rhs"],
        "passed": True,
    }
    curve = [(float(k), float(e), float(s))
             for k, e, s in zip(levels, result.errors, result.stderrs)]
    return report, curve, {"ensemble": ensemble}


def _kind_bounds(config):
    problem, _, rc, basis, ensemble = _solve_common(config)
    exp = config.experiment
    sol = lsmc_solve(problem, ensemble, basis, config.truncation(), rc)
    audit = apriori_check(sol, ensemble, problem,
                          y_slack=exp["y_slack"], bmo_slack=exp["bmo_slack"])
    report = {
        "upsilon1": audit.y_bound,
        "sup_y_node": audit.y_observed,
        "y_ok": audit.y_ok,
        "upsilon2_sqrt": audit.bmo_bound,
        "z_bmo": audit.bmo_observed,
        "bmo_ok": audit.bmo_ok,
        "y_slack": audit.y_slack,
        "bmo_slack": audit.bmo_slack,
        "passed": audit.passed,
    }
    return report, None, {"ensemble": ensemble, "solution": sol}


_HANDLERS = {
    "solve": _kind_solve,
    "oracle": _kind_oracle,
    "convergence": _kind_convergence,
    "regularity": _kind_regularity,
    "truncation": _kind_truncation,
    "derivatives": _kind_derivatives,
    "stability": _kind_stability,
    "bounds": _kind_bounds,
}


# ---------------------------------------------------------------------------
# Artifact writing
# ---------------------------------------------------------------------------

def _versions() -> dict:
    import numpy
    import scipy
    from . import __version__
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "qfbsde": __version__,
    }


def _write_artifacts(config, out_dir, report, curve, artifacts) -> list:
    formats = config.output["formats"]
    written = []

    def emit(name):
        written.append(name)
        return os.path.join(out_dir, name)

    if "json" in formats:
        payload = dict(report)
        payload["kind"] = config.kind
        payload["seed"] = config.numerics["seed"]
        storage.write_json(emit("report.json"), payload)
    if "csv" in formats:
        if curve is not None:
            storage.write_csv(emit("plot.csv"), ["x", "y", "yerr"], curve)
        if "solution" in artifacts:
            storage.solution_summary_csv(emit("summary.csv"),
                                         artifacts["solution"])
    if "binary" in formats:
        if "ensemble" in artifacts:
            storage.save_ensemble(emit("ensemble.qfb"), artifacts["ensemble"])
        if "solution" in artifacts:
            storage.save_solution(emit("solution.qfs"), artifacts["solution"])
        if "fields" in artifacts:
            grid, seed, fields = artifacts["fields"]
            storage.save_fields(emit("fields.qff"), grid, seed, fields)
    return written


def run(config: ExperimentConfig, *, base_dir: str | None = None) -> int:
    """Execute the configured experiment and persist its artifacts.

    Returns the process exit status (``0``/``2``/``1``); the caller owns
    turning that into ``sys.exit``.  Errors print a one-line context to
    stderr rather than a traceback — the config named a bad experiment,
    not a broken program.
    """
    out_dir = config.output["directory"]
    if base_dir is not None:
        out_dir = os.path.join(base_dir, out_dir)
    t0 = time.perf_counter()
    try:
        storage.ensure_dir(out_dir)
        report, curve, artifacts = _HANDLERS[config.kind](config)
        written = _write_artifacts(config, out_dir, report, curve, artifacts)
    except QfbsdeError as exc:
        print(f"error [{config.kind}]: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error [i/o]: {exc}", file=sys.stderr)
        return EXIT_ERROR

    manifest = {
        "config_sha256": hashlib.sha256(
            emit_config(config).encode("utf-8")).hexdigest(),
        "kind": config.kind,
        "seed": config.numerics["seed"],
        "passed": report["passed"],
        "outputs": sorted(written),
        "versions": _versions(),
        "wall_time_s": round(time.perf_counter() - t0, 3),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    storage.write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return EXIT_PASS if report["passed"] else EXIT_THRESHOLD
