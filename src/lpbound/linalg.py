"""Dense linear-algebra utilities and a small exact-tolerance LP solver.

Solves min p'x subject to Mx >= c and the box rows with a two-phase
revised simplex (the standard form is set out in solve_lp). It prices by the
most negative reduced cost (Dantzig's rule) and falls back to Bland's
smallest-index rule, which cannot cycle, after _STALL_LIMIT degenerate pivots
in a row, so every solve terminates. The simplex keeps a dense basis
inverse, updated by one rank-one step per pivot and taken afresh every
_REFACTOR_EVERY pivots and before every verdict (see _simplex). A caller
that solves many LPs of one shape can pass solve_lp a list of bases from
earlier solves: the first one still primal feasible replaces phase 1 (a
warm start), and each optimal solve moves its final basis to the front of
the list. The module also provides the vertex-enumeration oracle, the
smallest singular value, the inverse of the column-major vectorization
behind LpParams.theta, and check_fields, which checks each field of a
config dataclass against its type annotation.
"""
from __future__ import annotations

import collections.abc
import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Literal, Optional, Union, get_args, get_origin, get_type_hints

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
_REFACTOR_EVERY = 50  # simplex pivots between fresh basis inverses
_STALL_LIMIT = 50  # degenerate pivots in a row before the switch to Bland's rule
_WARM_FEAS_TOL = 1e-12  # a warm-start basis needs x_B >= -_WARM_FEAS_TOL


class DimensionError(ValueError):
    """Raised when inputs are not dimensionally consistent."""


class EnumerationCapError(RuntimeError):
    """Raised when a subset enumeration would exceed ENUMERATION_CAP."""


class SolverError(RuntimeError):
    """Raised when the simplex reports a status its problem cannot have."""


def is_real(v) -> bool:
    """v is a real number. JSON true and false load as bool, which
    isinstance counts as an int, so they are not."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _matches(value, tp) -> bool:
    """value fits the annotation tp. float is a real number and int an
    integral one, neither a bool; Literal is one of its strings; Union takes
    any member; Sequence[X] and List[X] are a list or tuple of X, and
    FrozenSet[X] also a set or frozenset of X; any other class is isinstance."""
    origin, args = get_origin(tp), get_args(tp)
    if tp is float:
        return is_real(value)
    if tp is int:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if origin is Literal:
        return isinstance(value, str) and value in args
    if origin is Union:
        return any(_matches(value, member) for member in args)
    if origin in (collections.abc.Sequence, list, frozenset):
        kinds = (list, tuple, frozenset, set) if origin is frozenset else (list, tuple)
        return isinstance(value, kinds) and all(_matches(v, args[0]) for v in value)
    return isinstance(value, tp)


def is_finite(value) -> bool:
    """Each real number in value (a number, or a list or tuple of values) is
    a finite float or converts to one: not NaN or Infinity, which json
    loads, nor an integer literal beyond the float range."""
    if isinstance(value, (list, tuple)):
        return all(map(is_finite, value))
    return not is_real(value) or abs(value) <= sys.float_info.max


def check_fields(obj, error, infinite=()) -> None:
    """Check each field of the dataclass obj against its annotation (see
    _matches); the first mismatch raises error("<name> must be <type>, got
    <value>"). A number in a field must also be finite (see is_finite), or
    error("<name> must be finite, got <value>") is raised, except in the
    fields named in `infinite`."""
    for name, tp in get_type_hints(type(obj)).items():
        value = getattr(obj, name)
        if not _matches(value, tp):
            shown = tp.__name__ if isinstance(tp, type) else str(tp).replace("typing.", "")
            raise error(f"{name} must be {shown}, got {value!r}")
        if name not in infinite and not is_finite(value):
            raise error(f"{name} must be finite, got {value!r}")


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

    The program is  min p'x  s.t.  Mx >= c  and x in the box.  M may have no
    rows (shape (0, d)), leaving the box alone. Box bounds may be +-inf for
    unconstrained coordinates; box=None leaves every coordinate unconstrained.
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
        if d < 1:  # q = 0 rows is a program of its box alone
            raise DimensionError("M must have at least one column")
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

    def theta(self) -> np.ndarray:
        """The stacked parameter vector (p, vec M column-major, c)."""
        return np.concatenate([self.p, self.M.flatten(order="F"), self.c])

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


def _simplex(cost: np.ndarray, A: np.ndarray, b: np.ndarray, basis: list,
             allowed: np.ndarray = None, Binv: np.ndarray = None):
    """min cost'z s.t. Az = b, z >= 0 from a feasible starting basis.

    Revised simplex. The entering column is the eligible one with the most
    negative reduced cost (Dantzig's rule, ties to the smallest index). The
    leaving row is the minimum ratio, ties to the smallest basic column
    (Bland's leaving rule). A pivot is degenerate when that minimum ratio is
    0; after _STALL_LIMIT degenerate pivots in a row the entering column is
    the smallest eligible index (Bland's rule) for the rest of the call.
    Dantzig's rule takes far fewer pivots than Bland's but can cycle at a
    degenerate vertex (Beale's LP does). A cycle revisits a basis, so the
    objective cannot fall along it: every pivot in it is degenerate, and the
    run triggers the switch. With Bland's rule for both columns the simplex
    cannot cycle (Bland 1977), so every call terminates.

    The basis is inverted once; each pivot then updates the inverse by one
    rank-one (product-form) step: row `leave` is divided by the pivot entry
    and `outer(direction, row)` is subtracted from the others. The inverse is
    taken afresh every _REFACTOR_EVERY pivots, and before any verdict: when
    the updated inverse finds no entering column or no positive pivot entry,
    the basis is inverted again and tested again, so OPTIMAL and UNBOUNDED
    (with z and the reduced costs) come from a fresh inverse only.
    `allowed` optionally masks columns permitted to enter the basis (used to
    restrict optimization to an optimal face). `Binv`, when given, is a fresh
    inverse of A[:, basis], taken by the caller or returned by the stage
    before, which the simplex starts from (and overwrites) in place of its
    own first inversion. Returns (status, z, basis, reduced, Binv): the
    reduced costs of the final basis when optimal, and the fresh inverse of
    A[:, basis] the verdict came from.
    """
    m, nvar = A.shape
    basis = list(basis)
    # relative to the cost scale: with penalties in the hundreds, rounding
    # alone leaves reduced costs of -1e-9 at an optimal basis
    tol = _REDUCED_COST_TOL * max(1.0, float(np.abs(cost).max()))
    updates = 0  # pivots made since the inverse was taken
    stall = 0  # degenerate pivots in a row, frozen once it reaches _STALL_LIMIT
    while True:
        if Binv is None:
            Binv = np.linalg.inv(A[:, basis])
            updates = 0
        xB = Binv @ b
        y = Binv.T @ cost[basis]
        reduced = cost - A.T @ y
        reduced[basis] = 0.0
        eligible = reduced < -tol
        if allowed is not None:
            eligible &= allowed
        candidates = np.flatnonzero(eligible)
        if candidates.size == 0:
            if updates:
                Binv = None
                continue
            z = np.zeros(nvar)
            z[basis] = np.maximum(xB, 0.0)
            return OPTIMAL, z, basis, reduced, Binv
        if stall >= _STALL_LIMIT:  # Bland: smallest eligible index
            enter = int(candidates[0])
        else:  # most negative reduced cost; argmin keeps the first of ties
            enter = int(candidates[np.argmin(reduced[candidates])])
        direction = Binv @ A[:, enter]
        positive = direction > _PIVOT_TOL
        if not positive.any():
            if updates:
                Binv = None
                continue
            return UNBOUNDED, None, basis, None, Binv
        ratios = np.full(m, np.inf)
        ratios[positive] = np.maximum(xB[positive], 0.0) / direction[positive]
        rmin = ratios.min()
        ties = np.flatnonzero(ratios <= rmin + 1e-12)
        leave = min(ties, key=lambda i: basis[i])  # Bland tie-break
        if stall < _STALL_LIMIT:
            stall = stall + 1 if rmin == 0.0 else 0
        basis[leave] = enter
        updates += 1
        if updates == _REFACTOR_EVERY:
            Binv = None
        else:
            row = Binv[leave] / direction[leave]
            Binv -= np.outer(direction, row)
            Binv[leave] = row


def _warm_basis(A: np.ndarray, b: np.ndarray, bases) -> Optional[tuple]:
    """(basis, B^-1) for the first of `bases` that is a basis of Az = b (m
    columns B of A, well conditioned) with x_B = B^-1 b >= -_WARM_FEAS_TOL,
    or None."""
    m, nvar = A.shape
    for basis in bases:
        if len(basis) != m or max(basis) >= nvar:
            continue
        B = A[:, basis]
        try:
            Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            continue
        # the infinity-norm condition number; NaN and inf fail the test too
        if not np.abs(B).sum(axis=1).max() * np.abs(Binv).sum(axis=1).max() <= 1.0 / TAU_RANK:
            continue
        if np.all(Binv @ b >= -_WARM_FEAS_TOL):
            return basis, Binv
    return None


def solve_lp(params: LpParams, *, secondary: np.ndarray = None,
             bases: Optional[list] = None) -> LpSolution:
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

    `bases`, when given, is a list of standard-form bases (lists of column
    indices) from earlier solves of LPs of the same shape; the caller owns it
    and solve_lp updates it in place. The first that is nonsingular and
    primal feasible here (x_B >= -_WARM_FEAS_TOL) replaces phase 1, and phase
    2 (and the secondary stage) starts from it; when none is, the solve starts
    cold as without the list. An OPTIMAL solve moves its final basis to the
    front of the list, so the list holds each set of columns once. Any
    optimal basis gives the same value, and the secondary stage's optimum is
    unique in value, but at a degenerate optimum the vertex may depend on
    the start.
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
    warm = None if bases is None else _warm_basis(A, b, bases)
    if warm is not None:  # _simplex starts from the inverse taken here
        basis, Binv = warm
    else:  # a cold start from the slack basis
        Binv = None
        basis = list(range(2 * d, nvar))
        artificial_rows = np.flatnonzero(rhs > 0)
        if artificial_rows.size:
            for k, i in enumerate(artificial_rows):
                basis[i] = nvar + k
            A1 = np.hstack([A, np.eye(m)[:, artificial_rows]])
            c1 = np.concatenate([np.zeros(nvar), np.ones(artificial_rows.size)])
            status, z, basis, _, Binv = _simplex(c1, A1, b, basis)
            if status != OPTIMAL:
                raise SolverError("phase 1, bounded below by zero, reported unbounded")
            if float(z[nvar:].sum()) > 1e-7:
                return LpSolution(status=INFEASIBLE)
            # Drive residual artificials (basic at zero) out of the basis. One
            # always can: if the artificial e_r sits at position i, then
            # u = B^-T e_i has u_r = 1, so row r's surplus is nonbasic with
            # entry +-1 in u'A. With none left, B is a basis of A as well, and
            # phase 2 starts from phase 1's inverse of it.
            for i in range(m):
                if basis[i] < nvar:
                    continue
                Binv = None
                u = np.linalg.solve(A1[:, basis].T, np.eye(m)[i])
                entering = np.abs(u @ A) > 1e-9
                entering[[j for j in basis if j < nvar]] = False
                if not entering.any():
                    raise SolverError(f"no column can replace the artificial of row {i}")
                basis[i] = int(np.argmax(entering))

    status, z, basis, reduced, Binv = _simplex(cost, A, b, basis, Binv=Binv)
    if status == OPTIMAL and stage2 is not None:
        allowed = reduced <= _REDUCED_COST_TOL
        status, z, basis, _, _ = _simplex(stage2, A, b, basis, allowed=allowed, Binv=Binv)
    if status != OPTIMAL:
        return LpSolution(status=status)
    if bases is not None:  # front of the list; drop the same columns in another order
        members = set(basis)
        bases[:] = [basis] + [other for other in bases if set(other) != members]
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


def inverse_vectorize(x, q: int, d: int) -> np.ndarray:
    """Inverse of the column-major vectorization: a q x d matrix from vec(M)."""
    arr = _as_vector(x, "x")
    if arr.shape[0] != q * d:
        raise DimensionError(f"x has length {arr.shape[0]}, expected q*d = {q * d}")
    return arr.reshape((q, d), order="F")
