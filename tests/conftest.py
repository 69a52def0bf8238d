import numpy as np
import pytest

from lpbound import linalg
from lpbound.linalg import LpParams


def example1_params(b_hat: float, box_half: float = 2.0) -> LpParams:
    """Two-variable instance: min x1 subject to x2 >= (1+b)x1, x2 <= x1,
    |x1| <= 1, inside a square box."""
    p = np.array([1.0, 0.0])
    M = np.array([
        [-(1.0 + b_hat), 1.0],
        [1.0, -1.0],
        [1.0, 0.0],
        [-1.0, 0.0],
    ])
    c = np.array([0.0, 0.0, -1.0, -1.0])
    box = (np.full(2, -box_half), np.full(2, box_half))
    return LpParams(p=p, M=M, c=c, box=box)


def random_lp(rng: np.random.Generator, d_max: int = 4, q_max: int = 8,
              half_max: float = 3.0) -> LpParams:
    """Small random LP in a box [-h, h]^d, h drawn from [0.5, half_max);
    may be infeasible."""
    d = int(rng.integers(1, d_max + 1))
    q = int(rng.integers(1, q_max + 1))
    M = rng.normal(size=(q, d))
    c = rng.normal(size=q)
    p = rng.normal(size=d)
    half = float(rng.uniform(0.5, half_max))
    box = (np.full(d, -half), np.full(d, half))
    return LpParams(p=p, M=M, c=c, box=box)


def random_feasible_polytope_data(rng: np.random.Generator, d_max: int = 3, q_max: int = 6):
    """(M, c, box) with a strictly interior point, bounded by the box."""
    d = int(rng.integers(2, d_max + 1))
    q = int(rng.integers(d, q_max + 1))
    M = rng.normal(size=(q, d))
    x0 = rng.uniform(-1.0, 1.0, size=d)
    margin = rng.uniform(0.1, 1.0, size=q)
    c = M @ x0 - margin
    box = (np.full(d, -2.0), np.full(d, 2.0))
    return M, c, box


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


@pytest.fixture
def warm_starts(monkeypatch):
    """Whether each solve given a list of bases found a warm start in it."""
    found, pick = [], linalg._warm_basis

    def recording_pick(*args):
        warm = pick(*args)
        found.append(warm is not None)
        return warm

    monkeypatch.setattr(linalg, "_warm_basis", recording_pick)
    return found
