"""Dense linear-algebra utilities and a small exact-tolerance LP solver.

Solves min p'x subject to Mx >= c and the box rows with a two-phase
revised simplex using Bland's anti-cycling rule, and provides the
vertex-enumeration oracle, the smallest singular value and the column-major
(de)vectorization helpers used throughout the package.
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

    def box_rows(self):
        """Finite box bounds as explicit constraint rows (B, b): Bx >= b."""
        lower, upper = self.box
        d = self.d
        rows = []
        rhs = []
        eye = np.eye(d)
        for i in range(d):
            if np.isfinite(lower[i]):
                rows.append(eye[i])
                rhs.append(lower[i])
            if np.isfinite(upper[i]):
                rows.append(-eye[i])
                rhs.append(-upper[i])
        if not rows:
            return np.zeros((0, d)), np.zeros(0)
        return np.array(rows), np.array(rhs)

    def effective_system(self):
        """Constraint rows actually used by the solver: M, then the box rows."""
        B, b = self.box_rows()
        if B.shape[0] == 0:
            return self.M, self.c
        return np.vstack([self.M, B]), np.concatenate([self.c, b])


@dataclass
class LpSolution:
    status: str
    value: Optional[float] = None
    vertex: Optional[np.ndarray] = None
    binding: Optional[np.ndarray] = None  # indices into the rows of params.M

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
    restrict optimization to an optimal face). Returns (status, z, basis).
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
            return OPTIMAL, z, basis
        enter = int(candidates[0])  # Bland: smallest eligible index
        direction = Binv @ A[:, enter]
        positive = direction > _PIVOT_TOL
        if not positive.any():
            return UNBOUNDED, None, basis
        ratios = np.full(m, np.inf)
        ratios[positive] = np.maximum(xB[positive], 0.0) / direction[positive]
        rmin = ratios.min()
        ties = np.flatnonzero(ratios <= rmin + 1e-12)
        leave = min(ties, key=lambda i: basis[i])  # Bland tie-break
        basis[leave] = enter


def _solve_standard(cost: np.ndarray, A: np.ndarray, b: np.ndarray, slack_cols,
                    stage2_cost=None):
    """Two-phase simplex for min cost'z s.t. Az = b, z >= 0.

    slack_cols maps each row to a column holding a +-1 unit slack; rows whose
    slack can start basic skip phase-1 artificials entirely.

    stage2_cost, when given, is minimized exactly over the optimal face of the
    first objective: with reduced costs r >= 0 at an optimal basis, the face
    is {z feasible : z_j = 0 whenever r_j > 0}, so those columns are barred
    from entering and the simplex is re-run with the second objective.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    m, nvar = A.shape
    sign = np.where(b < 0, -1.0, 1.0)
    A *= sign[:, None]
    b *= sign

    basis = [-1] * m
    artificial_rows = []
    for i in range(m):
        j = slack_cols[i]
        # after the sign flip the slack coefficient is +-1; it can start
        # basic iff its value b_i / A[i, j] is nonnegative
        if A[i, j] > 0.0 or b[i] == 0.0:
            basis[i] = j
        else:
            artificial_rows.append(i)

    if artificial_rows:
        E = np.zeros((m, len(artificial_rows)))
        for k, i in enumerate(artificial_rows):
            E[i, k] = 1.0
            basis[i] = nvar + k
        A1 = np.hstack([A, E])
        c1 = np.concatenate([np.zeros(nvar), np.ones(len(artificial_rows))])
        status, z, basis = _bland_simplex(c1, A1, b, basis)
        if status != OPTIMAL:
            raise SolverError("phase 1, bounded below by zero, reported unbounded")
        if float(z[nvar:].sum()) > 1e-7:
            return INFEASIBLE, None
        # Drive residual artificials (basic at zero) out of the basis; rows
        # where that is impossible are redundant and dropped.
        drop_rows = []
        for i in range(m):
            if basis[i] < nvar:
                continue
            Bmat = A1[:, basis]
            ei = np.zeros(m)
            ei[i] = 1.0
            u = np.linalg.solve(Bmat.T, ei)
            row = u @ A
            basis_set = set(basis)
            replacement = next(
                (j for j in range(nvar) if j not in basis_set and abs(row[j]) > 1e-9),
                None,
            )
            if replacement is None:
                drop_rows.append(i)
            else:
                basis[i] = replacement
        if drop_rows:
            keep = [i for i in range(m) if i not in set(drop_rows)]
            A = A[keep]
            b = b[keep]
            basis = [basis[i] for i in keep]

    status, z, basis = _bland_simplex(cost, A, b, basis)
    if status == UNBOUNDED:
        return UNBOUNDED, None
    if stage2_cost is not None:
        Binv = np.linalg.inv(A[:, basis])
        y = Binv.T @ cost[basis]
        reduced = cost - A.T @ y
        reduced[basis] = 0.0
        allowed = reduced <= _REDUCED_COST_TOL
        status, z, basis = _bland_simplex(stage2_cost, A, b, basis, allowed=allowed)
        if status == UNBOUNDED:
            return UNBOUNDED, None
    return OPTIMAL, z[:nvar]


def solve_lp(params: LpParams, secondary: np.ndarray = None) -> LpSolution:
    """Solve min p'x s.t. Mx >= c and x in the box.

    Returns a basic optimal solution (a vertex of the feasible polyhedron
    whenever it has vertices); the binding set is classified post hoc over the
    rows of params.M so degenerate vertices report all binding rows.

    When `secondary` (length d) is given, secondary'x is minimized exactly
    over the set of optima of the primary objective; value/vertex/binding then
    describe the returned point of that face.
    """
    A_rows, rhs = params.effective_system()
    d = params.d
    m = A_rows.shape[0]
    # Standard form variables: x = xp - xm (free split), slack s >= 0 with
    # A x - s = rhs.
    A = np.hstack([A_rows, -A_rows, -np.eye(m)])
    cost = np.concatenate([params.p, -params.p, np.zeros(m)])
    slack_cols = [2 * d + i for i in range(m)]
    stage2 = None
    if secondary is not None:
        secondary = np.asarray(secondary, dtype=float)
        if secondary.shape != (d,):
            raise DimensionError(f"secondary objective must have length {d}")
        stage2 = np.concatenate([secondary, -secondary, np.zeros(m)])
    status, z = _solve_standard(cost, A, rhs, slack_cols, stage2_cost=stage2)
    if status != OPTIMAL:
        return LpSolution(status=status)
    x = z[:d] - z[d:2 * d]
    value = float(params.p @ x)
    return LpSolution(
        status=OPTIMAL,
        value=value,
        vertex=x,
        binding=binding_rows(params.M, params.c, x),
    )


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
        binding = np.flatnonzero(np.abs(A_rows @ x - rhs) <= TAU_BIND * (1.0 + np.abs(rhs)))
        found.append((x, binding))
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
