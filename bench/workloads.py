"""The benchmark's three workloads, shaped after the acceptance gates.

Each workload has a ``build(size, seed)`` that makes every input from the
seed (problem, bases, grids, probe pairs) and a ``run(inp, api, workdir)``
that makes one closed-loop pass through the library's public functions and
checks its own outputs.  ``run`` returns a :class:`Pass`; ``api`` is the
namespace bound by :class:`tracing.Tracer`, so a traced pass calls exactly
the same functions with the same arguments as an untraced one.

Sizes are scaled down from the gates so that one pass takes seconds, not
minutes: the gate sizes (M up to 2e5 paths) would not fit the benchmark's
run length.  Every check used here holds at these sizes for any seed.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

import qfbsde
from qfbsde import (NOT_FOUND, DerivativeSolution, RegressionBasis,
                    RunConfig, TimeGrid, build_problem)
from qfbsde import storage

# span name and callable for every library function the workloads call
PUBLIC = {
    "sample_brownian": ("forward.sample_brownian", qfbsde.sample_brownian),
    "euler_maruyama": ("forward.euler_maruyama", qfbsde.euler_maruyama),
    "variational_flow": ("forward.variational_flow", qfbsde.variational_flow),
    "continuity_diagnostic": ("forward.continuity_diagnostic",
                              qfbsde.continuity_diagnostic),
    "lsmc_solve": ("backward.lsmc_solve", qfbsde.lsmc_solve),
    "estimate_bmo": ("backward.estimate_bmo", qfbsde.estimate_bmo),
    "apriori_check": ("backward.apriori_check", qfbsde.apriori_check),
    "stabilization_level": ("backward.stabilization_level",
                            qfbsde.stabilization_level),
    "domination_oracle": ("oracles.domination_oracle",
                          qfbsde.domination_oracle),
    "solve_gradient_bsde": ("derivatives.solve_gradient_bsde",
                            qfbsde.solve_gradient_bsde),
    "solve_malliavin_bsde": ("derivatives.solve_malliavin_bsde",
                             qfbsde.solve_malliavin_bsde),
    "representation_check": ("derivatives.representation_check",
                             qfbsde.representation_check),
    "truncation_error_curve": ("analysis.truncation_error_curve",
                               qfbsde.truncation_error_curve),
    "regularity_left": ("analysis.regularity_left", functools.partial(
        qfbsde.path_regularity_stat, mode="left_endpoint")),
    "regularity_zbar": ("analysis.regularity_zbar", functools.partial(
        qfbsde.path_regularity_stat, mode="zbar")),
    "rate_fit": ("analysis.rate_fit", qfbsde.rate_fit),
    "save_ensemble": ("storage.save_ensemble", storage.save_ensemble),
    "save_solution": ("storage.save_solution", storage.save_solution),
    "load_ensemble": ("storage.load_ensemble", storage.load_ensemble),
    "load_solution": ("storage.load_solution", storage.load_solution),
}

# "bench" is what the benchmark measures; "smoke" only proves the plumbing
SIZES = {
    "bench": {
        "smooth_ladder": {"n_steps": 50, "n_paths": 10_000},
        "rough_derivatives": {"n_steps": 128, "n_paths": 5_000,
                              "pairs": 20, "probe_steps": 64,
                              "probe_paths": 2_000},
        "fine_regularity": {"n_steps": 256, "n_paths": 20_000},
    },
    "smoke": {
        "smooth_ladder": {"n_steps": 8, "n_paths": 400},
        "rough_derivatives": {"n_steps": 8, "n_paths": 400,
                              "pairs": 3, "probe_steps": 8,
                              "probe_paths": 100},
        "fine_regularity": {"n_steps": 256, "n_paths": 200},
    },
}

GAP_TOL = 0.02           # c01/c06: |Y0_lsmc - Y0_oracle|
ORACLE_QUAD = 64
LEVEL = 8                # the gates' truncation level
# Truncation ladder: levels 1..8 as in c04/c05, two coarse rungs so that a
# stabilization level is found for every seed (the realized |Z| that sets it
# has a heavy tail at these path counts), and a fixed reference level, so
# that the ladder costs the same eleven solves whatever level it settles at.
LADDER = (1, 2, 3, 4, 5, 6, 7, 8, 16, 32)
REFERENCE = 64
TWIN_OFFSET = 5
AUDIT_BASIS = RegressionBasis(kind="piecewise_linear", bins=16,
                              support=(-4.5, 4.5))
# c09's hat knots, clustered at the mollification scale of the sign drift
_MAGS = (0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.45, 0.65, 0.9,
         1.2, 1.6, 2.1, 2.7, 3.5, 4.5)
ROUGH_KNOTS = tuple(sorted({s * m for m in _MAGS for s in (-1.0, 1.0)}))
PARTITIONS = (128, 64, 32, 16, 8)  # c06/c07
FLOW_ROUNDOFF = 1e-12


@dataclass
class Pass:
    """What one pass produced: checks, work counts and hashable outputs."""

    checks: dict = field(default_factory=dict)   # name -> passed
    counts: dict = field(default_factory=dict)   # per-layer counts/values
    outputs: dict = field(default_factory=dict)  # arrays for the digest
    states: object = None                        # ensemble paths (M, N+1, d)

    def check(self, name: str, passed) -> None:
        self.checks[name] = bool(passed)

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.outputs):
            a = np.ascontiguousarray(np.asarray(self.outputs[key]))
            h.update(f"{key}:{a.dtype}:{a.shape}".encode())
            h.update(a.tobytes())
        return h.hexdigest()


def _zero_drift_problem():
    return build_problem(dim=1, x0=np.zeros(1), horizon=1.0, drift="zero",
                         terminal="tanh", driver="colehopf")


def _simulate(api, problem, grid, n_paths, seed):
    """``qfbsde.simulate`` as its two public halves, so each gets a span."""
    inc = api.sample_brownian(grid, n_paths, problem.dim, seed)
    return api.euler_maruyama(problem, grid, inc, seed=seed)


def _all_finite(*arrays) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


# ---------------------------------------------------------------------------
# smooth_ladder: many polynomial solves on one ensemble
# ---------------------------------------------------------------------------

class SmoothLadder:
    name = "smooth_ladder"
    levels = {"solve": LEVEL, "ladder": LADDER, "reference": REFERENCE,
              "twin": f"stab+{TWIN_OFFSET}"}
    checks = ("oracle_gap", "stabilization_found", "twin_y_bitwise",
              "twin_z_bitwise", "y_errors_zero_past_stab",
              "z_errors_zero_past_stab", "audit_sup_y", "bmo_budget")

    @staticmethod
    def build(size: dict, seed: int) -> dict:
        return {
            "problem": _zero_drift_problem(),
            "grid": TimeGrid.uniform(1.0, size["n_steps"]),
            "config": RunConfig(seed=seed, n_paths=size["n_paths"]),
            "basis": RegressionBasis(kind="polynomial", degree=4),
            "audit_basis": AUDIT_BASIS,
        }

    @staticmethod
    def run(inp: dict, api, workdir) -> Pass:
        problem, rc, basis = inp["problem"], inp["config"], inp["basis"]
        out = Pass()
        ens = _simulate(api, problem, inp["grid"], rc.n_paths, rc.seed)
        out.states = ens.paths
        sol = api.lsmc_solve(problem, ens, basis, LEVEL, rc)
        oracle = api.domination_oracle(problem, quad_points=ORACLE_QUAD)
        audit_sol = api.lsmc_solve(problem, ens, inp["audit_basis"], LEVEL, rc)
        audit = api.apriori_check(audit_sol, ens, problem)
        bmo = api.estimate_bmo(sol, ens)
        cache: dict = {}
        curve = api.truncation_error_curve(
            problem, ens, basis, list(LADDER), rc,
            reference_level=REFERENCE, _cache=cache)
        ladder_solves = len(cache)
        # every level is cached by now, so this walk solves nothing new
        stab = api.stabilization_level(
            problem, ens, basis, list(LADDER) + [REFERENCE], rc, _cache=cache)
        found = stab is not NOT_FOUND
        twin = (api.lsmc_solve(problem, ens, basis, stab + TWIN_OFFSET, rc)
                if found else None)

        gap = abs(sol.y0 - oracle.y0)
        out.check("oracle_gap", gap <= GAP_TOL)
        out.check("stabilization_found", found)
        out.check("twin_y_bitwise",
                  found and np.array_equal(cache[stab].y, twin.y))
        out.check("twin_z_bitwise",
                  found and np.array_equal(cache[stab].z, twin.z))
        settled = curve.abscissae >= (stab if found else np.inf)
        z_errors = np.asarray(curve.metadata["z_errors"])
        out.check("y_errors_zero_past_stab",
                  found and np.all(curve.errors[settled] == 0.0))
        out.check("z_errors_zero_past_stab",
                  found and np.all(z_errors[settled] == 0.0))
        out.check("audit_sup_y", audit.y_ok)
        out.check("bmo_budget", bmo <= audit.bmo_bound)

        solves = [sol, audit_sol, *cache.values()] + ([twin] if found else [])
        m, n = ens.n_paths, ens.grid.n_steps
        out.counts = {
            "y0_abs_err": gap,
            "ladder_solves": ladder_solves,
            "picard_sweeps": int(sum(s.diagnostics["picard_iters"].sum()
                                     for s in solves)),
            "work": m * n * len(solves),
        }
        out.outputs = {
            "y": sol.y, "z": sol.z, "oracle_y0": oracle.y0,
            "audit_y": audit_sol.y, "bmo": bmo, "errors": curve.errors,
            "z_errors": z_errors, "stab": stab if found else -1,
            "twin_y": twin.y if found else 0.0,
            "twin_z": twin.z if found else 0.0,
        }
        return out


# ---------------------------------------------------------------------------
# rough_derivatives: mollified sign drift, hat basis, derivative solvers
# ---------------------------------------------------------------------------

class RoughDerivatives:
    name = "rough_derivatives"
    levels = {"solve": LEVEL}
    checks = ("solution_finite", "flow_finite", "gradient_finite",
              "malliavin_finite", "flow_product_roundoff",
              "continuity_ratios")

    @staticmethod
    def build(size: dict, seed: int) -> dict:
        n = size["n_steps"]
        # c08's probe pairs, drawn from the workload seed
        rng = np.random.Generator(np.random.Philox(key=seed))
        pairs = []
        for _ in range(size["pairs"]):
            s, t = np.sort(rng.uniform(0.0, 1.0, size=2))
            x, y = rng.uniform(-2.0, 2.0, size=2)
            pairs.append((float(s), float(t), np.array([x]), np.array([y])))
        return {
            "problem": build_problem(dim=1, x0=np.zeros(1), horizon=1.0,
                                     drift="sign", terminal="tanh",
                                     driver="colehopf", mollify_eps=0.1),
            "grid": TimeGrid.uniform(1.0, n),
            "config": RunConfig(seed=seed, n_paths=size["n_paths"]),
            "basis": RegressionBasis(kind="piecewise_linear",
                                     knots=ROUGH_KNOTS),
            "anchors": (0, n // 2, n - 1),
            "pairs": pairs,
            "probe_steps": size["probe_steps"],
            "probe_paths": size["probe_paths"],
        }

    @staticmethod
    def run(inp: dict, api, workdir) -> Pass:
        problem, rc, basis = inp["problem"], inp["config"], inp["basis"]
        anchors = inp["anchors"]
        out = Pass()
        ens = _simulate(api, problem, inp["grid"], rc.n_paths, rc.seed)
        out.states = ens.paths
        base = api.lsmc_solve(problem, ens, basis, LEVEL, rc)
        flow = api.variational_flow(problem, ens)
        ny, nz = api.solve_gradient_bsde(problem, ens, flow, base, basis, rc)
        dy, dz = api.solve_malliavin_bsde(problem, ens, flow, base, anchors,
                                          basis, rc)
        deriv = DerivativeSolution(anchors=anchors, nabla_y=ny, nabla_z=nz,
                                   dy=dy, dz=dz)
        rep = api.representation_check(base, deriv, flow)
        cont = api.continuity_diagnostic(
            problem, inp["pairs"], n_steps=inp["probe_steps"],
            n_paths=inp["probe_paths"], seed=rc.seed)

        out.check("solution_finite", _all_finite(base.y, base.z))
        out.check("flow_finite", _all_finite(flow.nabla_x, flow.nabla_x_inv))
        out.check("gradient_finite", _all_finite(ny, nz))
        out.check("malliavin_finite",
                  _all_finite(*dy.values(), *dz.values()))
        out.check("flow_product_roundoff",
                  flow.product_deviation() <= FLOW_ROUNDOFF)
        out.check("continuity_ratios",
                  _all_finite(cont.ratios) and np.all(cont.ratios > 0.0))

        m, n = ens.n_paths, ens.grid.n_steps
        linear_steps = n + sum(n - u for u in anchors)
        out.counts = {
            "picard_sweeps": int(base.diagnostics["picard_iters"].sum()),
            "linear_steps": linear_steps,
            "control_gradient_dev": rep.max_deviation("control_gradient"),
            "malliavin_value_dev": rep.max_deviation("malliavin_value"),
            "work": m * (n + linear_steps),
        }
        out.outputs = {
            "y": base.y, "z": base.z, "nabla_x": flow.nabla_x,
            "nabla_x_inv": flow.nabla_x_inv, "nabla_y": ny, "nabla_z": nz,
            **{f"dy{u}": dy[u] for u in dy}, **{f"dz{u}": dz[u] for u in dz},
            **{f"dev_{k}": v["profile"] for k, v in rep.identities.items()},
            "ratios": cont.ratios, "ratio_se": cont.std_errors,
        }
        return out


# ---------------------------------------------------------------------------
# fine_regularity: one solve on many thin steps, statistics, artifact I/O
# ---------------------------------------------------------------------------

class FineRegularity:
    name = "fine_regularity"
    levels = {"solve": LEVEL}
    # The fitted slope is reported (analysis.rate_slope), not gated: c06's
    # window [0.7, 1.3] needs the gate's 2e5 paths.  At 2e4 the fit ranged
    # over 0.68..0.94 across seeds 1..10, and at 3e4 over 0.76..0.98.
    checks = ("rate_r2", "zbar_below_left", "oracle_gap",
              "ensemble_roundtrip", "solution_roundtrip")

    @staticmethod
    def build(size: dict, seed: int) -> dict:
        return {
            "problem": _zero_drift_problem(),
            "grid": TimeGrid.uniform(1.0, size["n_steps"]),
            "config": RunConfig(seed=seed, n_paths=size["n_paths"]),
            "basis": RegressionBasis(kind="polynomial", degree=4),
            "partitions": [TimeGrid.uniform(1.0, k) for k in PARTITIONS],
        }

    @staticmethod
    def run(inp: dict, api, workdir) -> Pass:
        problem, rc, basis = inp["problem"], inp["config"], inp["basis"]
        out = Pass()
        ens = _simulate(api, problem, inp["grid"], rc.n_paths, rc.seed)
        out.states = ens.paths
        sol = api.lsmc_solve(problem, ens, basis, LEVEL, rc)
        left, zbar = [], []
        for part in inp["partitions"]:
            left.append(api.regularity_left(sol, part, 2.0, ensemble=ens)[0])
            zbar.append(api.regularity_zbar(sol, part, 2.0, ensemble=ens)[0])
        widths = [1.0 / p.n_steps for p in inp["partitions"]]
        slope, _, r2 = api.rate_fit(widths, left)
        oracle = api.domination_oracle(problem, quad_points=ORACLE_QUAD)

        ens_path = os.path.join(workdir, "ensemble.bin")
        sol_path = os.path.join(workdir, "solution.bin")
        try:
            api.save_ensemble(ens_path, ens)
            api.save_solution(sol_path, sol)
            written = os.path.getsize(ens_path) + os.path.getsize(sol_path)
            ens_back = api.load_ensemble(ens_path)
            sol_back = api.load_solution(sol_path)
        finally:
            for path in (ens_path, sol_path):
                if os.path.exists(path):
                    os.remove(path)

        gap = abs(sol.y0 - oracle.y0)
        out.check("rate_r2", r2 >= 0.9)
        out.check("zbar_below_left", all(z <= l for z, l in zip(zbar, left)))
        out.check("oracle_gap", gap <= GAP_TOL)
        out.check("ensemble_roundtrip",
                  np.array_equal(ens_back.increments, ens.increments)
                  and np.array_equal(ens_back.paths, ens.paths)
                  and np.array_equal(ens_back.grid.times, ens.grid.times))
        out.check("solution_roundtrip",
                  np.array_equal(sol_back["y"], sol.y)
                  and np.array_equal(sol_back["z"], sol.z))

        m, n = ens.n_paths, ens.grid.n_steps
        out.counts = {
            "y0_abs_err": gap,
            "rate_slope": slope,
            "picard_sweeps": int(sol.diagnostics["picard_iters"].sum()),
            "storage_bytes": written,
            "work": m * n,
        }
        out.outputs = {
            "y": sol.y, "z": sol.z, "left": left, "zbar": zbar,
            "slope": slope, "r2": r2, "oracle_y0": oracle.y0,
            "y_back": sol_back["y"], "paths_back": ens_back.paths,
        }
        return out


WORKLOADS = {w.name: w for w in (SmoothLadder, RoughDerivatives,
                                 FineRegularity)}


def bases(inp: dict) -> list:
    """The regression bases a workload's backward passes use."""
    return [v for k, v in inp.items() if k in ("basis", "audit_basis")]


def describe(name: str, inp: dict) -> dict:
    """JSON-ready summary of a workload's inputs, for the run record."""
    out = {"n_paths": inp["config"].n_paths, "n_steps": inp["grid"].n_steps,
           "bases": [repr(b) for b in bases(inp)],
           "levels": WORKLOADS[name].levels}
    for key in ("anchors", "probe_steps", "probe_paths"):
        if key in inp:
            out[key] = inp[key]
    if "pairs" in inp:
        out["pairs"] = len(inp["pairs"])
    if "partitions" in inp:
        out["partitions"] = [p.n_steps for p in inp["partitions"]]
    return out
