"""Memory layout of the per-path fields: step-major everywhere it is made.

Public shapes are path-first, ``(M, N+1, d)`` and the like, but every field
that the library fills or reads step by step is stored with the step axis
first, so that ``a[:, i]`` is one contiguous slab.  The layout is a
performance property only: an ensemble handed in with any other layout
must solve to the same bits.
"""

import numpy as np
import pytest

from qfbsde import (
    PathEnsemble,
    RegressionBasis,
    RunConfig,
    TimeGrid,
    build_problem,
    euler_maruyama,
    lsmc_solve,
    simulate,
    solve_gradient_bsde,
    solve_malliavin_bsde,
    truncation_error_curve,
    variational_flow,
    zhang_zbar,
)
from qfbsde.storage import (
    load_ensemble,
    load_fields,
    load_solution,
    save_ensemble,
    save_fields,
    save_solution,
)

HATS = RegressionBasis(kind="piecewise_linear", bins=16, support=(-4.5, 4.5))
ANCHORS = (0, 6, 11)


def _step_major(a) -> bool:
    return np.swapaxes(a, 0, 1).flags.c_contiguous


def _path_major(ens) -> PathEnsemble:
    """The same ensemble with C-ordered, path-major arrays."""
    return PathEnsemble(grid=ens.grid, seed=ens.seed,
                        increments=np.ascontiguousarray(ens.increments),
                        paths=np.ascontiguousarray(ens.paths))


@pytest.fixture(scope="module")
def rough():
    """Mollified sign drift on a hat basis: every derivative path runs."""
    prob = build_problem(dim=1, x0=np.zeros(1), horizon=1.0, drift="sign",
                         terminal="tanh", driver="colehopf", mollify_eps=0.1)
    rc = RunConfig(seed=3, n_paths=1500)
    ens = simulate(prob, TimeGrid.uniform(1.0, 12), rc.n_paths, rc.seed)
    return prob, rc, ens


def _derivatives(prob, rc, ens, base):
    flow = variational_flow(prob, ens)
    ny, nz = solve_gradient_bsde(prob, ens, flow, base, HATS, rc)
    dy, dz = solve_malliavin_bsde(prob, ens, flow, base, ANCHORS, HATS, rc)
    return [ny, nz, *dy.values(), *dz.values()]


def test_library_outputs_are_step_major(rough, quad_problem, poly_basis,
                                        tmp_path):
    prob, rc, ens = rough
    assert _step_major(ens.paths) and _step_major(ens.increments)
    base = lsmc_solve(prob, ens, HATS, 8, rc)
    assert _step_major(base.y) and _step_major(base.z)
    assert _step_major(zhang_zbar(base, TimeGrid.uniform(1.0, 4),
                                  ensemble=ens))
    fields = _derivatives(prob, rc, ens, base)
    assert all(_step_major(a) for a in fields)

    # every container reader hands path fields back step-major
    save_ensemble(tmp_path / "e.qfb", ens)
    save_solution(tmp_path / "s.qfs", base)
    save_fields(tmp_path / "f.qff", ens.grid, rc.seed,
                {f"f{k}": a for k, a in enumerate(fields)})
    back = load_ensemble(tmp_path / "e.qfb")
    sol = load_solution(tmp_path / "s.qfs")
    stored = load_fields(tmp_path / "f.qff")
    assert _step_major(back.paths) and _step_major(back.increments)
    assert _step_major(sol["y"]) and _step_major(sol["z"])
    for k, a in enumerate(fields):
        assert stored[f"f{k}"].tobytes() == a.tobytes()
        assert _step_major(stored[f"f{k}"])

    # the ladder: swept levels, and the reference relabelled from its
    # stabilization level when the ladder did not reach it
    qrc = RunConfig(seed=4, n_paths=2000)
    qens = simulate(quad_problem, TimeGrid.uniform(1.0, 10), qrc.n_paths,
                    qrc.seed)
    cache = {}
    curve = truncation_error_curve(quad_problem, qens, poly_basis, [1, 2],
                                   qrc, _cache=cache)
    assert curve.metadata["reference_level"] in cache
    assert curve.metadata["reference_level"] > 3  # beyond the swept walk
    for sol in cache.values():
        assert _step_major(sol.y) and _step_major(sol.z)


def test_input_layout_never_changes_bits(rough):
    prob, rc, ens = rough
    c_ens = _path_major(ens)
    assert c_ens.paths.flags.c_contiguous and not _step_major(c_ens.paths)

    # Euler from C-ordered increments: the same step-major paths
    again = euler_maruyama(prob, ens.grid, c_ens.increments, seed=ens.seed)
    assert _step_major(again.paths)
    assert again.paths.tobytes() == ens.paths.tobytes()

    base = lsmc_solve(prob, ens, HATS, 8, rc)
    c_base = lsmc_solve(prob, c_ens, HATS, 8, rc)
    assert c_base.y.tobytes() == base.y.tobytes()
    assert c_base.z.tobytes() == base.z.tobytes()
    for key, value in base.diagnostics.items():
        assert np.array_equal(c_base.diagnostics[key], value), key
    for a, b in zip(_derivatives(prob, rc, c_ens, c_base),
                    _derivatives(prob, rc, ens, base)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
