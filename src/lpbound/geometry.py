"""Polytope geometry diagnostics: condition numbers, feasibility gaps, and
verification of the penalty-dominance condition.

The two central quantities are

* delta_condition: the largest d-th singular value among d-row submatrices of
  M that reproduce the LP optimum with a nonnegative multiplier (a measure of
  how well-posed the optimal basis is), and
* polytope_condition_number: the smallest d-th singular value among full-rank
  binding-row subsets across all vertices (how degenerate the worst vertex is).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .linalg import (
    LpParams,
    binding_rows,
    solve_lp,
    enumerate_vertices,
    smallest_singular_value,
    EnumerationCapError,
    OPTIMAL,
    UNBOUNDED,
    TAU_FEAS,
    TAU_VAL,
    TAU_RANK,
    ENUMERATION_CAP,
)

TAU_KKT = 1e-9


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
    d, q = params.d, params.q
    M_all, c_all = params.effective_system()
    scale_c = 1.0 + np.abs(c_all)
    sets: List[np.ndarray] = []
    sigmas: List[float] = []
    kkts: List[np.ndarray] = []
    n_subsets = math.comb(q, d)
    if n_subsets > ENUMERATION_CAP:
        raise EnumerationCapError(f"{n_subsets} candidate bases exceed the cap")
    for J in itertools.combinations(range(q), d):
        sub = params.M[list(J)]
        sigma = smallest_singular_value(sub)
        if sigma <= TAU_RANK * max(1.0, np.abs(sub).max()):
            continue
        x = np.linalg.solve(sub, params.c[list(J)])
        if not np.all(M_all @ x - c_all >= -TAU_FEAS * scale_c):
            continue
        if abs(params.p @ x - sol.value) > TAU_VAL * (1.0 + abs(sol.value)):
            continue
        lam = np.linalg.solve(sub.T, params.p)
        if np.any(lam < -TAU_FEAS):
            continue
        sets.append(np.array(J))
        sigmas.append(sigma)
        kkts.append(lam)
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
        for B in itertools.combinations(rows, params.d):
            sub = M_all[list(B)]
            sigma = smallest_singular_value(sub)
            if sigma > TAU_RANK * max(1.0, np.abs(sub).max()):
                best = min(best, sigma)
    if not math.isfinite(best):
        raise ValueError("no vertex has a full-rank binding set")
    return best


def l1_violation(params: LpParams, x: np.ndarray) -> float:
    """sum_j (c_j - M_j x)^+ over all rows including box rows."""
    M, c = params.effective_system()
    return float(np.sum(np.clip(c - M @ np.asarray(x, dtype=float), 0.0, None)))


def distance_to_polytope(params: LpParams, x: np.ndarray) -> Tuple[float, np.ndarray]:
    """Euclidean distance from x to {Mx >= c} and the projection attaining it.

    Projects x onto the affine hull of every row subset, keeps the feasible
    projections, and returns the closest. Exact for polyhedra: the projection
    of x is the projection onto the affine hull of its active set.
    """
    x = np.asarray(x, dtype=float)
    M, c = params.effective_system()
    scale_c = 1.0 + np.abs(c)
    if np.all(M @ x - c >= -TAU_FEAS * scale_c):
        return 0.0, x.copy()
    q = M.shape[0]
    if 2 ** q > ENUMERATION_CAP:
        raise EnumerationCapError(f"2^{q} subsets exceed the cap")
    best = math.inf
    best_z = None
    for r in range(1, min(q, params.d) + 1):
        for J in itertools.combinations(range(q), r):
            sub, rhs = M[list(J)], c[list(J)]
            # projection onto {sub z = rhs}: x + sub' (sub sub')^+ (rhs - sub x)
            z = x + sub.T @ (np.linalg.pinv(sub @ sub.T) @ (rhs - sub @ x))
            if np.all(M @ z - c >= -TAU_FEAS * scale_c):
                dist = float(np.linalg.norm(z - x))
                if dist < best:
                    best, best_z = dist, z
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
    w = np.broadcast_to(np.asarray(w, dtype=float), (params.q,))
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
    # Variables (lambda, s) with s free; rows as >= constraints.
    d, q = params.d, params.q
    B = float(primal.value)
    rows = []
    rhs = []
    for i in range(d):
        rows.append(np.concatenate([params.M[:, i], [0.0]]))
        rhs.append(params.p[i])
        rows.append(np.concatenate([-params.M[:, i], [0.0]]))
        rhs.append(-params.p[i])
    rows.append(np.concatenate([params.c, [0.0]]))
    rhs.append(B - TAU_KKT)
    rows.append(np.concatenate([-params.c, [0.0]]))
    rhs.append(-B - TAU_KKT)
    for j in range(q):
        e = np.zeros(q + 1)
        e[j] = -1.0
        e[q] = -1.0
        rows.append(e)
        rhs.append(-w[j])
    lower = np.concatenate([np.zeros(q), [-np.inf]])
    upper = np.full(q + 1, np.inf)
    obj = np.zeros(q + 1)
    obj[q] = -1.0  # maximize s
    search = LpParams(obj, np.array(rows), np.array(rhs), (lower, upper))
    sol = solve_lp(search)
    if sol.status != OPTIMAL:
        return "fails"
    s = -sol.value
    if s > TAU_KKT:
        return "holds"
    if s < -TAU_KKT:
        return "fails"
    return "undetermined"
