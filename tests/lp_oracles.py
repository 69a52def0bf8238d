"""Independent checks that the tests hold the package against; no command
runs them, so they live beside the tests rather than in lpbound.

* enumerate_vertices: every vertex of {x : Mx >= c} inside the box, with its
  binding rows (the brute-force optimum of the solver tests);
* polytope_condition_number: the smallest d-th singular value among
  full-rank binding-row subsets across all vertices (how degenerate the
  worst vertex is);
* distance_to_polytope and l1_violation: the two sides of the Hoffman-type
  bound l1_violation(x) >= kappa * dist(x, polytope) (Hoffman, J. Res. NBS
  49, 1952);
* check_a1: whether a penalty vector strictly dominates an optimal dual
  vector (assumption A1 of the penalty estimator);
* loglog_slope: the rate exponent of a series in n (the uniform-rate study).

Every row-subset loop runs numpy's stacked LAPACK calls on the index blocks
of linalg.subset_blocks, under its one cap rule, C(n, r) <= ENUMERATION_CAP.
"""
from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from lpbound.estimators import penalty_rows
from lpbound.geometry import _sigma_d, delta_condition
from lpbound.linalg import (
    LpParams,
    binding_rows,
    solve_lp,
    subset_blocks,
    OPTIMAL,
    UNBOUNDED,
    TAU_FEAS,
    TAU_RANK,
)

TAU_DEDUP = 1e-7   # vertex deduplication
TAU_KKT = 1e-9


def enumerate_vertices(params: LpParams):
    """All vertices of {x: Mx >= c} inside the box.

    Returns a list of (vertex, binding-set) pairs; binding sets index the
    effective rows (params.M first, then the finite box rows). Candidates
    x = A_J^{-1} rhs_J over the d-subsets J of subset_blocks, stacked a block
    at a time, with |det| above the rank tolerance, are kept when feasible
    within TAU_FEAS, deduplicated within TAU_DEDUP in subset order.
    """
    A_rows, rhs = params.effective_system()
    q_eff, d = A_rows.shape
    scale = max(1.0, float(np.abs(A_rows).max()))
    feas_tol = TAU_FEAS * max(1.0, float(np.abs(rhs).max()), scale)
    found = []
    for J in subset_blocks(q_eff, d):
        J = J[np.abs(np.linalg.det(A_rows[J])) > TAU_RANK * scale**d]
        xs = np.linalg.solve(A_rows[J], rhs[J][..., None])[..., 0]
        for x in xs[np.all(xs @ A_rows.T >= rhs - feas_tol, axis=1)]:
            if not any(np.max(np.abs(x - v)) <= TAU_DEDUP for v, _ in found):
                found.append((x, binding_rows(A_rows, rhs, x)))
    return found


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


def loglog_slope(ns: Sequence[int], series: np.ndarray) -> float:
    """Least-squares slope of log(series) against log(n)."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(series, dtype=float))
    return float(np.polyfit(x, y, 1)[0])
