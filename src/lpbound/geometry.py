"""The delta condition: how well-posed the optimal basis of an LP is.

delta_condition is the largest d-th singular value among d-row submatrices
of M that reproduce the LP optimum with a nonnegative multiplier; the
uniform-rate study scales its penalty by it, and `estimate --diagnostics`
reports it. Its row-subset loop runs numpy's stacked LAPACK calls on the
index blocks of linalg.subset_blocks, under its one cap rule,
C(n, r) <= ENUMERATION_CAP.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .linalg import (
    LpParams,
    solve_lp,
    subset_blocks,
    OPTIMAL,
    TAU_FEAS,
    TAU_VAL,
    TAU_RANK,
)


def _sigma_d(subs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each stacked d x d block's d-th singular value, and the full-rank mask."""
    sigma = np.linalg.svd(subs, compute_uv=False)[:, -1]
    return sigma, sigma > TAU_RANK * np.maximum(1.0, np.abs(subs).max(axis=(1, 2)))


@dataclass
class DeltaReport:
    j_star_sets: List[np.ndarray]
    sigma_values: List[float]
    kkt_vectors: List[np.ndarray]
    delta: float
    value: float = math.nan


def delta_condition(params: LpParams) -> DeltaReport:
    """max over optimal KKT bases J (|J| = d, rows of M only) of sigma_d(M_J).

    A basis J qualifies when M_J is invertible, x* = M_J^{-1} c_J is feasible,
    attains the LP value, and the multiplier lambda = M_J'^{-1} p is
    nonnegative. All qualifying sets are reported; delta is the largest
    sigma_d among them. An empty family signals a tolerance failure.
    """
    sol = solve_lp(params)
    if sol.status != OPTIMAL:
        raise ValueError(f"delta_condition needs a solvable LP, status: {sol.status}")
    M_all, c_all = params.effective_system()
    scale_c = 1.0 + np.abs(c_all)
    sets, sigmas, kkts = [], [], []
    for J in subset_blocks(params.q, params.d):
        subs = params.M[J]
        sigma, full = _sigma_d(subs)
        J, subs, sigma = J[full], subs[full], sigma[full]
        x = np.linalg.solve(subs, params.c[J][..., None])[..., 0]
        lam = np.linalg.solve(subs.mT, params.p)
        keep = (np.all(x @ M_all.T - c_all >= -TAU_FEAS * scale_c, axis=1)
                & (np.abs(x @ params.p - sol.value) <= TAU_VAL * (1.0 + abs(sol.value)))
                & np.all(lam >= -TAU_FEAS, axis=1))
        sets.extend(J[keep])
        sigmas.extend(sigma[keep].tolist())
        kkts.extend(lam[keep])
    if not sets:
        raise ValueError(
            "no optimal KKT basis found among d-subsets of M rows; "
            "the optimum may be supported on box rows or tolerances failed"
        )
    return DeltaReport(
        j_star_sets=sets,
        sigma_values=sigmas,
        kkt_vectors=kkts,
        delta=max(sigmas),
        value=float(sol.value),
    )

