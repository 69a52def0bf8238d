"""Polytope geometry diagnostics: condition numbers, feasibility gaps, and
verification of the penalty-dominance condition.

The two central quantities are

* delta_condition: the largest d-th singular value among d-row submatrices of
  M that reproduce the LP optimum with a nonnegative multiplier (a measure of
  how well-posed the optimal basis is), and
* polytope_condition_number: the smallest d-th singular value among full-rank
  binding-row subsets across all vertices (how degenerate the worst vertex is).

Every row-subset loop runs numpy's stacked LAPACK calls on the index blocks
of linalg.subset_blocks, under its one cap rule, C(n, r) <= ENUMERATION_CAP.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .estimators import penalty_rows
from .linalg import (
    LpParams,
    binding_rows,
    solve_lp,
    enumerate_vertices,
    subset_blocks,
    OPTIMAL,
    UNBOUNDED,
    TAU_FEAS,
    TAU_VAL,
    TAU_RANK,
)

TAU_KKT = 1e-9


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


def _is_bounded(params: LpParams) -> bool:
    lower, upper = params.box
    if np.all(np.isfinite(lower)) and np.all(np.isfinite(upper)):
        return True
    d = params.d
    for i in range(d):
        for sense in (1.0, -1.0):
            p = np.zeros(d)
            p[i] = sense
            sol = solve_lp(LpParams(p, params.M, params.c, params.box))
            if sol.status == UNBOUNDED:
                return False
            if sol.status != OPTIMAL:
                raise ValueError(f"boundedness probe returned {sol.status}")
    return True


def polytope_condition_number(params: LpParams) -> float:
    """min over vertices, over full-rank d-subsets of binding rows, of sigma_d.

    The polytope is {x : Mx >= c} intersected with the box; the objective p
    plays no part. Raw (unnormalized) rows enter the singular values. Size-d
    subsets suffice: appending rows can only increase the d-th singular
    value. Raises on unbounded or empty polytopes.
    """
    if not _is_bounded(params):
        raise ValueError("polytope condition number requires a bounded polytope")
    vertices = enumerate_vertices(params)
    if not vertices:
        raise ValueError("polytope is empty (no vertices)")
    M_all, _ = params.effective_system()
    best = math.inf
    for _, rows in vertices:
        for B in subset_blocks(len(rows), params.d):
            sigma, full = _sigma_d(M_all[rows[B]])
            best = min([best, *sigma[full].tolist()])
    if not math.isfinite(best):
        raise ValueError("no vertex has a full-rank binding set")
    return best


def l1_violation(params: LpParams, x: np.ndarray) -> float:
    """sum_j (c_j - M_j x)^+ over all rows including box rows."""
    M, c = params.effective_system()
    return float(np.sum(np.clip(c - M @ np.asarray(x, dtype=float), 0.0, None)))


def distance_to_polytope(params: LpParams, x: np.ndarray) -> Tuple[float, np.ndarray]:
    """Euclidean distance from x to the polytope of the effective system (M,
    then the finite box rows) and the projection attaining it.

    Projects x onto the affine hull of every subset of at most d rows, keeps
    the feasible projections, and returns the first closest in subset order.
    Exact for polyhedra: the projection of x is the projection onto the
    affine hull of its active set, spanned by at most d independent rows.
    """
    x = np.asarray(x, dtype=float)
    M, c = params.effective_system()
    scale_c = 1.0 + np.abs(c)
    if np.all(M @ x - c >= -TAU_FEAS * scale_c):
        return 0.0, x.copy()
    q = M.shape[0]
    best = math.inf
    best_z = None
    for r in range(1, min(q, params.d) + 1):
        for J in subset_blocks(q, r):
            sub = M[J]
            # projection onto {sub z = c_J}: x + sub' (sub sub')^+ (c_J - sub x)
            step = np.linalg.pinv(sub @ sub.mT) @ (c[J] - sub @ x)[..., None]
            z = x + (sub.mT @ step)[..., 0]
            z = z[np.all(z @ M.T - c >= -TAU_FEAS * scale_c, axis=1)]
            # sqrt of vecdot, not norm(axis=1), rounds as the norm of one row
            dist = np.sqrt(np.vecdot(z - x, z - x))
            if dist.size and dist[i := np.argmin(dist)] < best:
                best, best_z = float(dist[i]), z[i]
    if best_z is None:
        raise ValueError("no feasible projection found; polytope may be empty")
    return best, best_z


def check_a1(params: LpParams, w: np.ndarray) -> str:
    """Whether the penalty w strictly dominates some optimal dual vector.

    Returns "holds", "fails", or "undetermined". First tries the enumerated
    KKT multipliers from delta_condition; if none is strictly dominated,
    solves max s subject to lambda being dual-optimal and lambda_j <= w_j - s.
    An all-infinite penalty trivially dominates.
    """
    w = penalty_rows(w, params.q)
    if np.all(np.isinf(w)):
        return "holds"
    primal = solve_lp(params)
    if primal.status != OPTIMAL:
        raise ValueError(f"check_a1 needs a solvable LP, status: {primal.status}")
    try:
        report = delta_condition(params)
    except ValueError:
        report = None
    if report is not None:
        for J, lam in zip(report.j_star_sets, report.kkt_vectors):
            full = np.zeros(params.q)
            full[J] = lam
            if np.all(full < w - TAU_KKT):
                return "holds"
    if np.any(np.isinf(w)):
        # the search LP below needs finite penalties; fall back on enumeration
        return "undetermined"
    if np.any(binding_rows(*params.effective_system(), primal.vertex) >= params.q):
        # box rows bind at the returned optimum: the dual over M rows alone
        # does not characterize the KKT set, so refuse an LP-based verdict
        return "undetermined"
    # max s  s.t.  M'lambda = p, lambda >= 0, |c'lambda - B| <= TAU_KKT,
    #              lambda_j + s <= w_j.
    # Variables (lambda, s) with s free; rows as >= constraints: each
    # equation as a pair (row, -row), then -lambda_j - s >= -w_j, filled in
    # place on zeros, as -np.eye would write -0.0.
    d, q = params.d, params.q
    eq = np.vstack([params.M.T, params.c])
    value = np.append(params.p, float(primal.value))
    tol = np.append(np.zeros(d), TAU_KKT)
    rows = np.zeros((2 * d + 2 + q, q + 1))
    rows[:2 * d + 2:2, :q] = eq
    rows[1:2 * d + 2:2, :q] = -eq
    rows[2 * d + 2 + np.arange(q), np.arange(q)] = -1.0
    rows[2 * d + 2:, q] = -1.0
    rhs = np.concatenate([np.column_stack([value - tol, -value - tol]).ravel(), -w])
    lower = np.concatenate([np.zeros(q), [-np.inf]])
    upper = np.full(q + 1, np.inf)
    obj = np.zeros(q + 1)
    obj[q] = -1.0  # maximize s
    search = LpParams(obj, rows, rhs, (lower, upper))
    sol = solve_lp(search)
    if sol.status != OPTIMAL:
        return "fails"
    s = -sol.value
    if s > TAU_KKT:
        return "holds"
    if s < -TAU_KKT:
        return "fails"
    return "undetermined"
