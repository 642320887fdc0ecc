"""The benchmark's workloads still run on the library's public API.

``bench/`` is read, never written: its modules are loaded from their files
without writing bytecode, each workload is built at its ``smoke`` size and
run untraced twice and traced once.  A removed or renamed public name, a
changed signature or a pass that is not deterministic fails here before it
fails a benchmark run.  The tracer's drift wrap must also leave the
first-variation flow bit for bit what the unwrapped problem gives.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from qfbsde import (FBSDEProblem, TimeGrid, make_drift, make_driver,
                    mollify_drift, simulate, variational_flow)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_deterministically_traced_and_untraced(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inp = workload.build(workloads.SIZES["smoke"][name], 1)
    plain = tracing.Tracer(False).bind(workloads.PUBLIC)
    first = workload.run(inp, plain, tmp_path)
    second = workload.run(inp, plain, tmp_path)
    assert set(first.checks) == set(workload.checks)
    assert first.digest() == second.digest()

    tracer = tracing.Tracer(True)
    tracer.run_id = "traced"
    traced_inp = dict(inp, problem=tracer.timed_problem(inp["problem"]))
    traced = workload.run(traced_inp, tracer.bind(workloads.PUBLIC), tmp_path)
    assert set(traced.checks) == set(workload.checks)
    assert traced.digest() == first.digest()
    assert tracer.spans


def test_quadrature_smoothed_flow_is_the_same_in_every_form():
    # the flow reads the drift's Jacobian from drift_gradient only, so a
    # quadrature-smoothed drift gives one flow whether the problem is built
    # by hand, re-wrapped by with_drift, or wrapped by the bench tracer
    value, jacobian = mollify_drift(make_drift("holder_sqrt")[0], 0.2,
                                    quad_points=32)
    plain = FBSDEProblem(dim=1, x0=np.zeros(1), drift=value,
                         terminal=lambda x: np.tanh(x[:, 0]),
                         driver=make_driver("zero"), horizon=1.0,
                         drift_gradient=jacobian)
    rewrapped = plain.with_drift(value, gradient=jacobian)
    tracer = tracing.Tracer(True)
    tracer.run_id = "traced"
    traced = tracer.timed_problem(plain)
    grid = TimeGrid.uniform(1.0, 16)
    flows = []
    for problem in (plain, rewrapped, traced):
        ens = simulate(problem, grid, 200, seed=6)
        flows.append(variational_flow(problem, ens).nabla_x.tobytes())
    assert flows[0] == flows[1] == flows[2]
    assert tracer.count("traced", "forward.drift_jacobian") == 16
