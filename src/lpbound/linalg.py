"""Dense linear-algebra utilities and a small exact-tolerance LP solver.

Solves min p'x subject to Mx >= c and the box rows with a two-phase
revised simplex using Bland's anti-cycling rule (the standard form is set out
in solve_lp), and provides the vertex-enumeration oracle, the smallest
singular value and the column-major (de)vectorization helpers used
throughout the package.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Tolerances. These sit well below the O(n^{-1/2}) statistical noise of any
# instance this package is meant for, while staying far above float 64 error
# for the small dense systems involved.
TAU_FEAS = 1e-8    # feasibility slack
TAU_BIND = 1e-7    # binding-row classification
TAU_RANK = 1e-9    # invertibility threshold (scaled by the matrix)
TAU_DEDUP = 1e-7   # vertex deduplication
TAU_VAL = 1e-9     # value consistency

ENUMERATION_CAP = 10**6

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_PIVOT_TOL = 1e-10
_REDUCED_COST_TOL = 1e-9


class DimensionError(ValueError):
    """Raised when inputs are not dimensionally consistent."""


class EnumerationCapError(RuntimeError):
    """Raised when a subset enumeration would exceed ENUMERATION_CAP."""


class SolverError(RuntimeError):
    """Raised when the simplex reports a status its problem cannot have."""


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _as_matrix(m, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be two-dimensional, got shape {arr.shape}")
    return arr


@dataclass
class LpParams:
    """The LP triplet theta = (p, M, c) plus the known compact box X.

    The program is  min p'x  s.t.  Mx >= c  and x in the box.  Box bounds may
    be +-inf for unconstrained coordinates; box=None leaves every coordinate
    unconstrained.
    """

    p: np.ndarray
    M: np.ndarray
    c: np.ndarray
    box: tuple = None  # (lower, upper) arrays of length d

    def __post_init__(self):
        self.p = _as_vector(self.p, "p")
        self.M = _as_matrix(self.M, "M")
        self.c = _as_vector(self.c, "c")
        q, d = self.M.shape
        if q < 1 or d < 1:
            raise DimensionError("M must have at least one row and one column")
        if self.p.shape[0] != d:
            raise DimensionError(f"p has length {self.p.shape[0]}, expected {d}")
        if self.c.shape[0] != q:
            raise DimensionError(f"c has length {self.c.shape[0]}, expected {q}")
        if not (np.all(np.isfinite(self.p)) and np.all(np.isfinite(self.M)) and np.all(np.isfinite(self.c))):
            raise DimensionError("p, M, c entries must be finite")
        if self.box is None:
            self.box = (np.full(d, -np.inf), np.full(d, np.inf))
        lower = _as_vector(self.box[0], "box lower")
        upper = _as_vector(self.box[1], "box upper")
        if lower.shape[0] != d or upper.shape[0] != d:
            raise DimensionError("box bounds must have length d")
        if np.any(lower > upper):
            raise DimensionError("box lower bound exceeds upper bound")
        self.box = (lower, upper)

    @property
    def d(self) -> int:
        return self.M.shape[1]

    @property
    def q(self) -> int:
        return self.M.shape[0]

    def effective_system(self):
        """Constraint rows actually used by the solver: M, then the finite
        box rows x_i >= lower_i and -x_i >= -upper_i, in coordinate order."""
        lower, upper = self.box
        eye = np.eye(self.d)
        rows = np.hstack([eye, -eye]).reshape(2 * self.d, self.d)
        rhs = np.column_stack([lower, -upper]).ravel()
        finite = np.isfinite(rhs)
        return np.vstack([self.M, rows[finite]]), np.concatenate([self.c, rhs[finite]])


@dataclass
class LpSolution:
    status: str
    value: Optional[float] = None
    vertex: Optional[np.ndarray] = None

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def binding_rows(M: np.ndarray, c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Indices j with |M_j x - c_j| <= TAU_BIND * (1 + |c_j|)."""
    resid = np.abs(M @ x - c)
    return np.flatnonzero(resid <= TAU_BIND * (1.0 + np.abs(c)))


def _bland_simplex(cost: np.ndarray, A: np.ndarray, b: np.ndarray, basis: list,
                   allowed: np.ndarray = None):
    """min cost'z s.t. Az = b, z >= 0 from a feasible starting basis.

    Revised simplex: the basis system is re-factorized each iteration (dense
    solve), entering/leaving chosen by Bland's rule so cycling is impossible.
    `allowed` optionally masks columns permitted to enter the basis (used to
    restrict optimization to an optimal face). Returns (status, z, basis,
    reduced), with the reduced costs of the final basis when optimal.
    """
    m, nvar = A.shape
    basis = list(basis)
    # relative to the cost scale: with penalties in the hundreds, rounding
    # alone leaves reduced costs of -1e-9 at an optimal basis
    tol = _REDUCED_COST_TOL * max(1.0, float(np.abs(cost).max()))
    while True:
        Binv = np.linalg.inv(A[:, basis])
        xB = Binv @ b
        y = Binv.T @ cost[basis]
        reduced = cost - A.T @ y
        reduced[basis] = 0.0
        eligible = reduced < -tol
        if allowed is not None:
            eligible &= allowed
        candidates = np.flatnonzero(eligible)
        if candidates.size == 0:
            z = np.zeros(nvar)
            z[basis] = np.maximum(xB, 0.0)
            return OPTIMAL, z, basis, reduced
        enter = int(candidates[0])  # Bland: smallest eligible index
        direction = Binv @ A[:, enter]
        positive = direction > _PIVOT_TOL
        if not positive.any():
            return UNBOUNDED, None, basis, None
        ratios = np.full(m, np.inf)
        ratios[positive] = np.maximum(xB[positive], 0.0) / direction[positive]
        rmin = ratios.min()
        ties = np.flatnonzero(ratios <= rmin + 1e-12)
        leave = min(ties, key=lambda i: basis[i])  # Bland tie-break
        basis[leave] = enter


def solve_lp(params: LpParams, secondary: np.ndarray = None) -> LpSolution:
    """Solve min p'x s.t. Mx >= c and x in the box; a basic optimal solution
    (a vertex of the feasible polyhedron whenever it has vertices).

    Standard form over z = (x+, x-, s) >= 0: x = x+ - x-, and row i of the
    effective system (M, then the finite box rows) reads A_i x - s_i = rhs_i
    with its surplus s_i in column 2d + i. Each row is multiplied by the sign
    of rhs_i, so a row with rhs_i <= 0 starts with s_i basic and a row with
    rhs_i > 0 gets a phase-1 artificial. Phase 1 minimizes the sum of the
    artificials and drives any left basic at zero out of the basis; phase 2
    minimizes p'x.

    When `secondary` (length d) is given, secondary'x is minimized exactly
    over the set of optima of the primary objective: with reduced costs
    r >= 0 at an optimal basis, the face is {z feasible : z_j = 0 whenever
    r_j > 0}, so those columns are barred from entering. value and vertex
    then describe the returned point of that face.
    """
    A_rows, rhs = params.effective_system()
    d = params.d
    m = A_rows.shape[0]
    nvar = 2 * d + m
    cost = np.concatenate([params.p, -params.p, np.zeros(m)])
    stage2 = None
    if secondary is not None:
        secondary = np.asarray(secondary, dtype=float)
        if secondary.shape != (d,):
            raise DimensionError(f"secondary objective must have length {d}")
        stage2 = np.concatenate([secondary, -secondary, np.zeros(m)])
    sign = np.where(rhs < 0, -1.0, 1.0)
    A = sign[:, None] * np.hstack([A_rows, -A_rows, -np.eye(m)])
    b = sign * rhs
    basis = list(range(2 * d, nvar))
    artificial_rows = np.flatnonzero(rhs > 0)
    if artificial_rows.size:
        for k, i in enumerate(artificial_rows):
            basis[i] = nvar + k
        A1 = np.hstack([A, np.eye(m)[:, artificial_rows]])
        c1 = np.concatenate([np.zeros(nvar), np.ones(artificial_rows.size)])
        status, z, basis, _ = _bland_simplex(c1, A1, b, basis)
        if status != OPTIMAL:
            raise SolverError("phase 1, bounded below by zero, reported unbounded")
        if float(z[nvar:].sum()) > 1e-7:
            return LpSolution(status=INFEASIBLE)
        # Drive residual artificials (basic at zero) out of the basis. One
        # always can: if the artificial e_r sits at position i, then
        # u = B^-T e_i has u_r = 1, so row r's surplus is nonbasic with
        # entry +-1 in u'A.
        for i in range(m):
            if basis[i] < nvar:
                continue
            u = np.linalg.solve(A1[:, basis].T, np.eye(m)[i])
            entering = np.abs(u @ A) > 1e-9
            entering[[j for j in basis if j < nvar]] = False
            if not entering.any():
                raise SolverError(f"no column can replace the artificial of row {i}")
            basis[i] = int(np.argmax(entering))

    status, z, basis, reduced = _bland_simplex(cost, A, b, basis)
    if status == OPTIMAL and stage2 is not None:
        allowed = reduced <= _REDUCED_COST_TOL
        status, z, basis, _ = _bland_simplex(stage2, A, b, basis, allowed=allowed)
    if status != OPTIMAL:
        return LpSolution(status=status)
    x = z[:d] - z[d:2 * d]
    return LpSolution(status=OPTIMAL, value=float(params.p @ x), vertex=x)


def enumerate_vertices(params: LpParams):
    """All vertices of {x: Mx >= c} inside the box.

    Returns a list of (vertex, binding-set) pairs; binding sets index the
    effective rows (params.M first, then the finite box rows). Candidate vertices are
    x = A_J^{-1} rhs_J over d-subsets J with |det| above the rank tolerance,
    kept when feasible within TAU_FEAS, deduplicated within TAU_DEDUP.
    """
    A_rows, rhs = params.effective_system()
    q_eff, d = A_rows.shape
    if math.comb(q_eff, d) > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"instance too large: C({q_eff},{d}) subsets exceed cap {ENUMERATION_CAP}"
        )
    scale = max(1.0, float(np.abs(A_rows).max()))
    feas_tol = TAU_FEAS * max(1.0, float(np.abs(rhs).max()), scale)
    found = []
    for J in itertools.combinations(range(q_eff), d):
        sub = A_rows[list(J)]
        det = np.linalg.det(sub)
        if abs(det) <= TAU_RANK * scale**d:
            continue
        x = np.linalg.solve(sub, rhs[list(J)])
        if not np.all(A_rows @ x >= rhs - feas_tol):
            continue
        if any(np.max(np.abs(x - v)) <= TAU_DEDUP for v, _ in found):
            continue
        found.append((x, binding_rows(A_rows, rhs, x)))
    return found


def smallest_singular_value(m) -> float:
    """sigma_min(m), the last of the LAPACK singular values."""
    arr = _as_matrix(m, "m")
    if arr.size == 0:
        raise DimensionError("matrix must be nonempty")
    return float(np.linalg.svd(arr, compute_uv=False)[-1])


def vectorize(m) -> np.ndarray:
    """Column-major vec(M)."""
    return _as_matrix(m, "m").flatten(order="F")


def inverse_vectorize(x, q: int, d: int) -> np.ndarray:
    """Inverse of the column-major vectorization: a q x d matrix from vec(M)."""
    arr = _as_vector(x, "x")
    if arr.shape[0] != q * d:
        raise DimensionError(f"x has length {arr.shape[0]}, expected q*d = {q * d}")
    return arr.reshape((q, d), order="F")
