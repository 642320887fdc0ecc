"""qfbsde benchmark: one workload, one process, one closed-loop client.

Usage (from the repository root)::

    python3 bench/run.py --workload smooth_ladder --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` next to this directory, never from an
installed copy.  The run repeats whole passes of the workload until the next
one would overrun ``--seconds`` (at least one pass), checks every pass's
outputs, and prints one JSON object as the last line of standard output:

* ``--trace 0``: the end-to-end metrics (median pass wall time, work rate,
  set-up time, peak memory, share of checks passed);
* ``--trace 1``: alternating untraced and traced passes; the per-layer
  metrics come from the traced passes' spans, and the traced outputs must be
  bitwise equal to the untraced ones.

A run record (versions, thread cap, sizes, per-pass times, every check) is
written to ``bench/out/`` and printed on the line before the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5

# name -> unit; --trace 0 prints END_TO_END, --trace 1 prints PER_LAYER
END_TO_END = {
    "wall_s": "s",
    "path_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}
PER_LAYER = {
    "forward.sample_s": "s",
    "forward.euler_s": "s",
    "forward.flow_s": "s",
    "forward.continuity_s": "s",
    "forward.drift_s": "s",
    "forward.drift_jac_s": "s",
    "forward.drift_points": "count",
    "forward.drift_ns_per_point": "ns",
    "backward.solve_s": "s",
    "backward.solve_calls": "count",
    "backward.picard_sweeps": "count",
    "backward.bmo_s": "s",
    "backward.apriori_s": "s",
    "backward.design_probe_s": "s",
    "analysis.ladder_s": "s",
    "analysis.ladder_solves": "count",
    "analysis.regularity_left_s": "s",
    "analysis.regularity_zbar_s": "s",
    "analysis.rate_slope": "1",
    "oracles.domination_s": "s",
    "oracles.y0_abs_err": "1",
    "derivatives.gradient_s": "s",
    "derivatives.malliavin_s": "s",
    "derivatives.repr_s": "s",
    "derivatives.linear_steps": "count",
    "derivatives.control_gradient_dev": "1",
    "derivatives.malliavin_value_dev": "1",
    "storage.write_s": "s",
    "storage.read_s": "s",
    "storage.bytes": "B",
    "storage.write_mb_per_s": "MB/s",
    "storage.read_mb_per_s": "MB/s",
    "trace.overhead_s": "s",
}


def _bootstrap() -> None:
    """Cap BLAS threads, then import qfbsde from this checkout's ``src/``."""
    os.environ.setdefault("QFBSDE_THREADS", "1")
    sys.path.insert(0, str(SRC))
    import qfbsde
    origin = Path(qfbsde.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"qfbsde was imported from {origin}, not from {SRC}")


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _record(args, inp: dict, work) -> dict:
    import numpy as np
    import scipy
    from workloads import describe
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": _git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "qfbsde_threads": os.environ["QFBSDE_THREADS"],
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "inputs": describe(args.workload, inp), "work_path_steps": work,
    }


def _setup_seconds(args) -> list[float]:
    """Seconds from spawning a fresh process until its inputs are built.

    Each child imports qfbsde, builds the workload's inputs and prints the
    wall-clock time at which it finished; interpreter teardown is excluded.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    samples = []
    for _ in range(SETUP_REPEATS):
        spawned = time.time()
        child = subprocess.run(cmd, check=True, timeout=120, cwd=ROOT,
                               capture_output=True, text=True)
        samples.append(float(child.stdout.split()[-1]) - spawned)
    return samples


def _one_pass(workload, inp, api, workdir):
    """(wall seconds, Pass or None, error text or None) for one pass."""
    t0 = time.perf_counter()
    try:
        result = workload.run(inp, api, workdir)
    except Exception as exc:  # a raised exception is a failed pass
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, None


def _design_probe(inp, paths) -> float:
    """Seconds for ``RegressionBasis.design`` on every step, once per basis."""
    from workloads import bases
    t0 = time.perf_counter()
    for basis in bases(inp):
        for i in range(paths.shape[1]):
            basis.design(paths[:, i, :])
    return time.perf_counter() - t0


def _layer_table(tracer, run_id, result, probe_s) -> dict:
    s = lambda name: tracer.seconds(run_id, name)  # noqa: E731
    c = result.counts
    points = tracer.count(run_id, "forward.drift", "points")
    drift_s = s("forward.drift")
    write_s = s("storage.save_ensemble") + s("storage.save_solution")
    read_s = s("storage.load_ensemble") + s("storage.load_solution")
    nbytes = c.get("storage_bytes", 0)
    return {
        "forward.sample_s": s("forward.sample_brownian"),
        "forward.euler_s": s("forward.euler_maruyama"),
        "forward.flow_s": s("forward.variational_flow"),
        "forward.continuity_s": s("forward.continuity_diagnostic"),
        "forward.drift_s": drift_s,
        "forward.drift_jac_s": s("forward.drift_jacobian"),
        "forward.drift_points": points,
        "forward.drift_ns_per_point": drift_s / points * 1e9 if points else 0.0,
        "backward.solve_s": s("backward.lsmc_solve"),
        "backward.solve_calls": tracer.count(run_id, "backward.lsmc_solve"),
        "backward.picard_sweeps": c["picard_sweeps"],
        "backward.bmo_s": s("backward.estimate_bmo"),
        "backward.apriori_s": s("backward.apriori_check"),
        "backward.design_probe_s": probe_s,
        "analysis.ladder_s": s("analysis.truncation_error_curve"),
        "analysis.ladder_solves": c.get("ladder_solves", 0),
        "analysis.regularity_left_s": s("analysis.regularity_left"),
        "analysis.regularity_zbar_s": s("analysis.regularity_zbar"),
        "analysis.rate_slope": c.get("rate_slope", 0.0),
        "oracles.domination_s": s("oracles.domination_oracle"),
        "oracles.y0_abs_err": c.get("y0_abs_err", 0.0),
        "derivatives.gradient_s": s("derivatives.solve_gradient_bsde"),
        "derivatives.malliavin_s": s("derivatives.solve_malliavin_bsde"),
        "derivatives.repr_s": s("derivatives.representation_check"),
        "derivatives.linear_steps": c.get("linear_steps", 0),
        "derivatives.control_gradient_dev": c.get("control_gradient_dev", 0.0),
        "derivatives.malliavin_value_dev": c.get("malliavin_value_dev", 0.0),
        "storage.write_s": write_s,
        "storage.read_s": read_s,
        "storage.bytes": nbytes,
        "storage.write_mb_per_s": nbytes / 1e6 / write_s if write_s else 0.0,
        "storage.read_mb_per_s": nbytes / 1e6 / read_s if read_s else 0.0,
    }


class Ledger:
    """Every check of every pass, counted into attempted and failed."""

    def __init__(self, names):
        self.names = tuple(names)
        self.rows: list[dict] = []

    def add_pass(self, label, result, error) -> None:
        for name in self.names:
            passed = result is not None and result.checks.get(name, False)
            self.add(f"{label}:{name}", passed,
                     error if result is None else None)

    def add(self, name, passed, note=None) -> None:
        self.rows.append({"check": name, "passed": bool(passed),
                          **({"error": note} if note else {})})

    @property
    def attempted(self) -> int:
        return len(self.rows)

    @property
    def failed(self) -> int:
        return sum(not r["passed"] for r in self.rows)


def measure(args) -> tuple[dict, dict, Ledger]:
    from tracing import Tracer, median_table
    from workloads import PUBLIC, SIZES, WORKLOADS
    workload = WORKLOADS[args.workload]
    inp = workload.build(SIZES[args.size][args.workload], args.seed)
    setup = [] if args.trace else _setup_seconds(args)

    plain, traced = Tracer(enabled=False), Tracer(enabled=True)
    plain_api, traced_api = plain.bind(PUBLIC), traced.bind(PUBLIC)
    traced_inp = dict(inp, problem=traced.timed_problem(inp["problem"]))
    ledger = Ledger(workload.checks)
    walls, traced_walls, tables, digests = [], [], [], []
    work = None
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        while True:
            cycle_start = time.perf_counter()
            k = len(walls)
            wall, result, error = _one_pass(workload, inp, plain_api, workdir)
            walls.append(wall)
            ledger.add_pass(f"pass{k}", result, error)
            digests.append(result.digest() if result else None)
            if result is not None:
                work = result.counts["work"]
            # drop each pass's arrays before the next pass starts, so that
            # peak memory is that of one pass however many passes fit
            result = None
            if args.trace:
                traced.run_id = f"traced-{k}"
                twall, tres, terror = _one_pass(workload, traced_inp,
                                                traced_api, workdir)
                traced_walls.append(twall)
                ledger.add_pass(f"traced{k}", tres, terror)
                ledger.add(f"traced{k}:bitwise_equal_untraced",
                           tres is not None and digests[-1] is not None
                           and tres.digest() == digests[-1])
                if tres is not None:
                    probe = _design_probe(inp, tres.states)
                    tables.append(
                        _layer_table(traced, traced.run_id, tres, probe))
                tres = None
            now = time.perf_counter()
            if now - start + (now - cycle_start) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(digests) > 1:
        ledger.add("passes_bitwise_equal",
                   None not in digests and len(set(digests)) == 1)

    wall_s = statistics.median(walls)
    if args.trace:
        metrics = median_table(tables) if tables else dict.fromkeys(
            PER_LAYER, 0.0)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - wall_s
        traced.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "wall_s": wall_s,
            "path_steps_per_s": (work or 0) / wall_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": 1.0 - ledger.failed / ledger.attempted,
        }
    record = _record(args, inp, work)
    record.update(walls=walls, traced_walls=traced_walls,
                  setup_samples=setup, digest=digests[0])
    return metrics, record, ledger


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "smoke"), default="bench",
                        help="smoke: tiny inputs for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _bootstrap()
    from workloads import SIZES, WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_only:
        WORKLOADS[args.workload].build(SIZES[args.size][args.workload],
                                       args.seed)
        print(time.time())
        return 0

    OUT.mkdir(parents=True, exist_ok=True)
    metrics, record, ledger = measure(args)
    units = PER_LAYER if args.trace else END_TO_END
    record["checks"] = ledger.rows
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"record": {k: v for k, v in record.items()
                                 if k != "checks"}}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
