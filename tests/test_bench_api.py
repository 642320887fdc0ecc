"""The benchmark's workloads still run on the library's public API.

``bench/`` is read, never written: its modules are loaded from their files
without writing bytecode, each workload is built at its ``smoke`` size and
run untraced twice and traced once.  A removed or renamed public name, a
changed signature or a pass that is not deterministic fails here before it
fails a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

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
