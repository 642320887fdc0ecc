import tracemalloc

import numpy as np
import pytest

from qfbsde import (
    RegressionBasis,
    RunConfig,
    TimeGrid,
    build_problem,
    lsmc_solve,
    simulate,
)


@pytest.fixture(scope="session")
def quad_problem():
    """Drift-free quadratic benchmark: phi = tanh, g = |z|^2 / 2."""
    return build_problem(drift="zero", terminal="tanh", driver="colehopf")


@pytest.fixture(scope="session")
def small_grid():
    return TimeGrid.uniform(1.0, 20)


@pytest.fixture(scope="session")
def small_config():
    return RunConfig(seed=123, n_paths=2000)


@pytest.fixture(scope="session")
def small_ensemble(quad_problem, small_grid, small_config):
    return simulate(quad_problem, small_grid, small_config.n_paths,
                    small_config.seed)


@pytest.fixture(scope="session")
def poly_basis():
    return RegressionBasis(kind="polynomial", degree=4)


@pytest.fixture(scope="session")
def small_solution(quad_problem, small_ensemble, poly_basis, small_config):
    return lsmc_solve(quad_problem, small_ensemble, poly_basis, 6,
                      small_config)


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


@pytest.fixture
def rel():
    return relative_gap


def _traced_peak(fn):
    """``fn()`` and the peak bytes it held, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))
