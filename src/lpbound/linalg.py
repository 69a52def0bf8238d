"""The LP type, its exact-tolerance solver, and the checks of every document.

LpParams holds one LP, min p'x subject to Mx >= c and x in the box, with
its inputs theta = (p, vec M, c) (stack_theta, and inverse_vectorize back).
solve_lp solves it with a two-phase, bounded-variable revised simplex: the
rows are M x - s = c, the box stays bounds, a nonbasic variable sits at one
of its bounds and may flip to the other with no basis change (see solve_lp
and _simplex). It prices by Dantzig's rule and falls back to Bland's rule,
which cannot cycle, after _STALL_LIMIT degenerate pivots in a row. The dense
basis inverse is updated by one rank-one step per pivot and taken afresh
every _REFACTOR_EVERY pivots and before every verdict. solve_lp can start
from a list of (basis, upper bound) entries of earlier solves of one shape
(a warm start). The module also provides subset_blocks (the one row-subset
enumerator and cap check), the smallest singular value, and check_fields,
which checks each field of a config dataclass against its type annotation.
"""
from __future__ import annotations

import collections.abc
import functools
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
_SUBSET_BLOCK = 4096  # subsets per block of subset_blocks


class DimensionError(ValueError):
    """Raised when inputs are not dimensionally consistent."""


class EnumerationCapError(RuntimeError):
    """Raised when a subset enumeration would exceed ENUMERATION_CAP."""


class SolverError(RuntimeError):
    """Raised when the simplex reports a status its problem cannot have."""


type_hints = functools.cache(get_type_hints)  # each string annotation is compiled once
# item annotation -> the types of the JSON values that fit it, checked in C over a list
_PLAIN = {float: {float, int}, int: {int}, Optional[float]: {float, int, type(None)}}


def is_real(v) -> bool:
    """v is a real number. JSON true and false load as bool, which
    isinstance counts as an int, so they are not."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _matches(value, tp) -> bool:
    """value fits the annotation tp. float is a real number and int an
    integral one, neither a bool; Literal is one of its strings; Union takes
    any member; Sequence[X] and List[X] are a list or tuple of X, and
    FrozenSet[X] also a set or frozenset of X; any other class is isinstance."""
    if tp is float:
        return is_real(value)
    if tp is int:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    origin, args = get_origin(tp), get_args(tp)
    if origin is Literal:
        return isinstance(value, str) and value in args
    if origin is Union:
        return any(_matches(value, member) for member in args)
    if origin in (collections.abc.Sequence, list, frozenset):
        kinds = (list, tuple, frozenset, set) if origin is frozenset else (list, tuple)
        if not isinstance(value, kinds):
            return False
        item = args[0]
        if get_origin(item) is collections.abc.Sequence and set(map(type, value)) <= {list, tuple}:
            value, item = list(itertools.chain.from_iterable(value)), get_args(item)[0]  # rows
        return set(map(type, value)) <= _PLAIN.get(item, set()) or all(
            _matches(v, item) for v in value)
    return isinstance(value, tp)


def is_finite(value) -> bool:
    """Each real number in value (a number, or a list or tuple of values) is
    a finite float or converts to one: not NaN or Infinity, which json
    loads, nor an integer literal beyond the float range."""
    if isinstance(value, (list, tuple)):
        if set(map(type, value)) <= {list, tuple}:  # rows: check their entries as one list
            value = list(itertools.chain.from_iterable(value))
        if set(map(type, value)) <= {float, int}:  # plain numbers, checked in C
            try:
                return all(map(math.isfinite, value))
            except OverflowError:  # an integer beyond the float range
                return False
        return all(map(is_finite, value))
    return not is_real(value) or abs(value) <= sys.float_info.max


def check_fields(obj, error, infinite=()) -> None:
    """Check each field of the dataclass obj against its annotation (see
    _matches); the first mismatch raises error("<name> must be <type>, got
    <value>"). A number in a field must also be finite (see is_finite), or
    error("<name> must be finite, got <value>") is raised, except in the
    fields named in `infinite`."""
    for name, tp in type_hints(type(obj)).items():
        value = getattr(obj, name)
        if not _matches(value, tp):
            shown = tp.__name__ if isinstance(tp, type) else str(tp).replace("typing.", "")
            raise error(f"{name} must be {shown}, got {value!r}")
        if name not in infinite and not is_finite(value):
            raise error(f"{name} must be finite, got {value!r}")


def _as_array(v, name: str, ndim: int) -> np.ndarray:
    try:
        arr = np.asarray(v, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, not numbers, or beyond the float range
        raise DimensionError(f"{name} must be a numeric array") from None
    if ndim == 1:
        arr = np.atleast_1d(arr)
    if arr.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    return arr


@dataclass
class LpParams:
    """The LP triplet theta = (p, M, c) plus the known compact box X.

    The program is  min p'x  s.t.  Mx >= c  and x in the box.  M may have no
    rows (shape (0, d)), leaving the box alone. Box bounds may be +-inf for
    unconstrained coordinates; box=None leaves every coordinate unconstrained.

    An LP built from the arrays of one already checked goes through _derived,
    which skips these checks: the relaxed penalty LP (estimators
    ._relaxed_params), the expanded LP of estimators.set_expansion_value, a
    design's LP (montecarlo.AffineDesign.params) and the sign-flipped
    objective of an aicm bound (aicm.bound_value, aicm.bound_interval).
    """

    p: np.ndarray
    M: np.ndarray
    c: np.ndarray
    box: tuple = None  # (lower, upper) arrays of length d

    def __post_init__(self):
        self.p = _as_array(self.p, "p", 1)
        self.M = _as_array(self.M, "M", 2)
        self.c = _as_array(self.c, "c", 1)
        q, d = self.M.shape
        if d < 1:  # q = 0 rows is a program of its box alone
            raise DimensionError("M must have at least one column")
        if self.p.shape[0] != d:
            raise DimensionError(f"p has length {self.p.shape[0]}, expected {d}")
        if self.c.shape[0] != q:
            raise DimensionError(f"c has length {self.c.shape[0]}, expected {q}")
        if not (np.isfinite(self.p).all() and np.isfinite(self.M).all() and np.isfinite(self.c).all()):
            raise DimensionError("p, M, c entries must be finite")
        if self.box is None:
            self.box = (np.full(d, -np.inf), np.full(d, np.inf))
        lower = _as_array(self.box[0], "box lower", 1)
        upper = _as_array(self.box[1], "box upper", 1)
        if lower.shape[0] != d or upper.shape[0] != d:
            raise DimensionError("box bounds must have length d")
        if not ((lower <= upper) & (lower < np.inf) & (upper > -np.inf)).all():
            raise DimensionError("box bounds need lower <= upper, lower < inf and upper > -inf")
        self.box = (lower, upper)

    @classmethod
    def _derived(cls, p: np.ndarray, M: np.ndarray, c: np.ndarray, box: tuple,
                 added=()) -> "LpParams":
        """The LP of float arrays p, M, c and box whose shapes and box agree by
        construction from a checked LP, without __post_init__. Only the new
        entries `added` (a penalty w, a shifted c, a design's theta) are
        checked to be finite, with __post_init__'s error."""
        if not np.isfinite(added).all():
            raise DimensionError("p, M, c entries must be finite")
        lp = cls.__new__(cls)
        lp.p, lp.M, lp.c, lp.box = p, M, c, box
        return lp

    def theta(self) -> np.ndarray:
        """The stacked parameter vector (p, vec M column-major, c)."""
        return stack_theta(self.p, self.M, self.c)

    @classmethod
    def from_theta(cls, theta, q: int, d: int, box: tuple = None) -> "LpParams":
        """The inverse of theta(): the LP of a q x d M whose stacked vector
        is theta, with the given box."""
        theta = _as_array(theta, "theta", 1)
        if theta.shape[0] != d + q * d + q:
            raise DimensionError(f"theta has length {theta.shape[0]}, expected {d + q * d + q}")
        M = inverse_vectorize(theta[d : d + q * d], q, d)
        return cls(p=theta[:d], M=M, c=theta[d + q * d :], box=box)

    @property
    def d(self) -> int:
        return self.M.shape[1]

    @property
    def q(self) -> int:
        return self.M.shape[0]

    @property
    def theta_size(self) -> int:
        """S, the length of theta()."""
        return self.d + self.q * self.d + self.q

    def effective_system(self):
        """The constraints as rows, for geometry, enumeration and inference:
        M, then the finite box rows x_i >= lower_i and -x_i >= -upper_i, in
        coordinate order. solve_lp keeps the box as bounds instead."""
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


def _simplex(cost: np.ndarray, A: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray,
             basis: list, z: np.ndarray, allowed: np.ndarray = None, Binv: np.ndarray = None):
    """min cost'z s.t. Az = b, lo <= z <= hi from a feasible starting basis.

    Bounded-variable revised simplex (Dantzig's upper-bounding technique):
    each nonbasic z_j stays where z holds it, at lo_j or hi_j (or 0 when both
    are infinite), and x_B = B^-1 (b - A_N z_N). A column is eligible when
    r_j < -tol and z_j can rise, or r_j > tol and z_j can fall; the largest
    |r_j| enters (Dantzig's rule, ties to the smallest index). The two-sided
    ratio test stops each basic variable at the bound it moves towards, ties
    to the smallest basic column (Bland's leaving rule); an entering variable
    that meets its own other bound first flips to it, and the basis stays.
    Dantzig's rule can cycle at a degenerate vertex (Beale's LP does), with
    every step 0, so after _STALL_LIMIT zero steps in a row the smallest
    eligible index enters (Bland's rule, acyclic by Bland 1977) for good.

    Each pivot updates the inverse by one rank-one step (row `leave` divided
    by the pivot entry, `direction[:, None] * row` subtracted from the others)
    and x_B by its step. Both are taken afresh every _REFACTOR_EVERY pivots
    and before any verdict, so OPTIMAL and UNBOUNDED come from a fresh
    inverse only. `allowed` masks the columns permitted to move (an optimal
    face); `Binv` is a fresh inverse of A[:, basis] to start from (it is
    overwritten). Returns (status, z, basis, reduced, Binv): z with the basic
    values and the reduced costs when optimal, and the verdict's inverse.
    """
    basis, z = np.array(basis, dtype=np.intp), z.copy()
    # relative to the cost scale: with penalties in the hundreds, rounding
    # alone leaves reduced costs of -1e-9 at an optimal basis
    tol = _REDUCED_COST_TOL * max(1.0, float(np.abs(cost).max()))
    may = True if allowed is None else allowed
    up, down = (z < hi) & may, (z > lo) & may  # where nonbasic z_j may rise, and fall
    updates = stall = 0  # pivots since the inverse; zero steps in a row (up to _STALL_LIMIT)
    ratios = np.empty(len(basis))  # the ratio test's buffer, refilled at each pivot
    while True:
        if Binv is None:
            Binv, updates = np.linalg.inv(A.take(basis, axis=1)), 0
        if not updates:
            z[basis] = 0.0
            xB, lo_B, hi_B = Binv @ (b - A @ z), lo[basis], hi[basis]
        reduced = cost - A.T @ (Binv.T @ cost[basis])
        reduced[basis] = 0.0
        gain = np.maximum(up * -reduced, down * reduced)  # |r_j| where moving z_j improves
        enter = int(gain.argmax())  # Dantzig's rule; argmax keeps the first of ties
        if gain[enter] <= tol:
            if updates:
                Binv = None
                continue
            z[basis] = np.minimum(np.maximum(xB, lo_B), hi_B)
            return OPTIMAL, z, basis.tolist(), reduced, Binv
        if stall >= _STALL_LIMIT:  # Bland: smallest eligible index
            enter = int((gain > tol).argmax())
        direction = Binv @ A[:, enter]
        sense = 1.0 if reduced[enter] < 0.0 else -1.0  # z_enter rises or falls
        move = sense * direction  # x_B falls by t * move as z_enter moves by t
        ratios.fill(np.inf)  # distance to the bound met / |move|
        np.divide(xB - np.where(move > 0.0, lo_B, hi_B), move, out=ratios,
                  where=np.abs(move) > _PIVOT_TOL)
        rmin = max(np.minimum.reduce(ratios, initial=np.inf), 0.0)
        span = hi[enter] - lo[enter]
        if span <= rmin:  # z_enter meets its own bound first
            if span == np.inf:
                if updates:
                    Binv = None
                    continue
                return UNBOUNDED, None, basis.tolist(), None, Binv
            xB -= span * move  # a bound flip: the basis stays
            z[enter] = hi[enter] if sense > 0.0 else lo[enter]
            up[enter], down[enter] = sense < 0.0, sense > 0.0
            if stall < _STALL_LIMIT:
                stall = 0
            continue
        ties = (ratios <= rmin + 1e-12).nonzero()[0]
        leave = ties[basis[ties].argmin()]  # Bland tie-break: the smallest column
        if stall < _STALL_LIMIT:
            stall = stall + 1 if rmin == 0.0 else 0
        out, to_upper = basis[leave], move[leave] < 0.0
        z[out] = hi_B[leave] if to_upper else lo_B[leave]
        movable = lo_B[leave] < hi_B[leave]
        up[out], down[out] = movable and not to_upper, movable and to_upper
        xB -= rmin * move
        xB[leave], lo_B[leave], hi_B[leave] = z[enter] + sense * rmin, lo[enter], hi[enter]
        basis[leave] = enter
        updates += 1
        if updates == _REFACTOR_EVERY:
            Binv = None
        else:
            row = Binv[leave] / direction[leave]
            Binv -= direction[:, None] * row
            Binv[leave] = row


def _warm_basis(A: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                start: np.ndarray, bases) -> Optional[tuple]:
    """(basis, z, B^-1) for the first entry of `bases` whose columns B are a
    basis of A with x_B within _WARM_FEAS_TOL of its bounds and B
    well-conditioned, the nonbasics at `start` or at their upper bound where
    listed; or None. x_B is tested first and the condition number only where
    x_B passes, so an infeasible entry pays for no condition test; the pick is
    the first entry that passes both. An entry that holds B and B^-1 lends
    that inverse if A[:, basis] is B."""
    m, nvar = A.shape
    for basis, at_upper, *factor in bases:
        if len(basis) != m or max(basis, default=-1) >= nvar or not np.isfinite(hi[at_upper]).all():
            continue
        z = start.copy()
        z[at_upper] = hi[at_upper]
        idx = np.array(basis, dtype=np.intp)
        B = A.take(idx, axis=1)
        if factor and (B == factor[0]).all():
            Binv = factor[1].copy()
        else:
            try:
                Binv = np.linalg.inv(B)
            except np.linalg.LinAlgError:
                continue
        z[idx] = 0.0
        xB = Binv @ (b - A @ z)
        if not ((xB >= lo[idx] - _WARM_FEAS_TOL) & (xB <= hi[idx] + _WARM_FEAS_TOL)).all():
            continue
        # the infinity-norm condition number; NaN and inf fail the test too
        if np.abs(B).sum(1).max(initial=0.0) * np.abs(Binv).sum(1).max(initial=0.0) <= 1.0 / TAU_RANK:
            return basis, z, Binv
    return None


@functools.lru_cache(maxsize=16)
def standard_blocks(q: int) -> tuple:
    """The blocks that turn q rows into a bounded standard form: -I and +I
    (q x q), q zeros and q infinities, built once per q and read-only, since
    every caller of one q shares them."""
    eye = np.eye(q)
    blocks = (-eye, eye, np.zeros(q), np.full(q, np.inf))
    for block in blocks:
        block.flags.writeable = False
    return blocks


def solve_lp(params: LpParams, *, secondary: np.ndarray = None,
             bases: Optional[list] = None) -> LpSolution:
    """Solve min p'x s.t. Mx >= c and x in the box; a basic optimal solution
    (a vertex of the feasible polyhedron whenever it has vertices).

    Bounded standard form over z = (x, s): the rows are M x - s = c, with the
    box bounds on x and s >= 0 (see _simplex). A cold start puts each x_j at
    its finite lower bound, else its finite upper bound, else 0, with each
    surplus basic, except that a row this point violates gets a phase-1
    artificial. Phase 1 minimizes their sum, phase 2 minimizes p'x.

    When `secondary` (length d) is given, secondary'x is minimized exactly
    over the optima of p'x: a nonbasic z_j at its lower bound with reduced
    cost r_j > 0, or at its upper bound with r_j < 0, is barred from moving.
    value and vertex then describe the returned point of that face.

    `bases`, when given, is a list of entries (basic columns, the columns at
    their upper bound) from earlier solves of LPs of the same shape, updated
    in place. The first entry that passes two tests replaces phase 1 (see
    _warm_basis): x_B within its bounds, tested first, then the condition
    number of B, tested only where x_B passes. With no such entry, the solve
    starts cold. The standard form's -I, zero and infinity blocks come from
    standard_blocks, built once per q. An OPTIMAL solve moves its entry to the
    front, with its basis matrix B and the inverse of B its verdict came
    from; the list holds each set of basic columns once. The value (and the
    secondary stage's value) does not depend on the start, but at a
    degenerate optimum the vertex may.
    """
    (q, d), (lower, upper) = params.M.shape, params.box
    nvar = d + q
    neg_eye, eye, zeros_q, inf_q = standard_blocks(q)
    A, b = np.concatenate((params.M, neg_eye), axis=1), params.c
    lo, hi = np.concatenate((lower, zeros_q)), np.concatenate((upper, inf_q))
    cost = np.concatenate((params.p, zeros_q))
    if secondary is not None and np.shape(secondary) != (d,):
        raise DimensionError(f"secondary objective must have length {d}")
    start = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    warm = None if bases is None else _warm_basis(A, b, lo, hi, start, bases)
    if warm is not None:  # _simplex starts from the inverse taken here
        basis, z, Binv = warm
    else:  # a cold start from the surplus basis
        basis, z, Binv = list(range(d, nvar)), start, None
        violated = np.flatnonzero(params.M @ start[:d] < b)
        if violated.size:  # row i: M_i x - s_i + a_i = c_i, with a_i basic and s_i = 0
            for k, i in enumerate(violated):
                basis[i] = nvar + k
            A1, zeros = np.hstack([A, eye[:, violated]]), np.zeros(violated.size)
            status, z, basis, _, Binv = _simplex(
                np.concatenate((np.zeros(nvar), zeros + 1.0)), A1, b, np.concatenate((lo, zeros)),
                np.concatenate((hi, zeros + np.inf)), basis, np.concatenate((start, zeros)))
            if status != OPTIMAL:
                raise SolverError("phase 1, bounded below by zero, reported unbounded")
            if float(z[nvar:].sum()) > 1e-7:
                return LpSolution(status=INFEASIBLE)
            z = z[:nvar]
            # Drive artificials left basic at zero out: if e_r sits at position
            # i, u = B^-T e_i has u_r = 1, so row r's nonbasic surplus has -1 in
            # u'A. With none left, phase 2 starts from phase 1's inverse of B.
            for i in [i for i, j in enumerate(basis) if j >= nvar]:
                Binv = None
                u = np.linalg.solve(A1[:, basis].T, eye[i])
                entering = np.abs(u @ A) > 1e-9
                entering[[j for j in basis if j < nvar]] = False
                if not entering.any():
                    raise SolverError(f"no column can replace the artificial of row {i}")
                basis[i] = int(np.argmax(entering))

    status, z, basis, reduced, Binv = _simplex(cost, A, b, lo, hi, basis, z, Binv=Binv)
    if status == OPTIMAL and secondary is not None:
        allowed = np.where(z == hi, -reduced, reduced) <= _REDUCED_COST_TOL
        status, z, basis, _, Binv = _simplex(np.concatenate((secondary, zeros_q)), A, b, lo, hi,
                                             basis, z, allowed=allowed, Binv=Binv)
    if status != OPTIMAL:
        return LpSolution(status=status)
    if bases is not None:  # front of the list; drop the same columns in another order
        members, front = set(basis), (basis, (z == hi).nonzero()[0], A.take(basis, axis=1), Binv)
        bases[:] = [front] + [entry[:2] for entry in bases if set(entry[0]) != members]
    return LpSolution(status=OPTIMAL, value=float(params.p @ z[:d]), vertex=z[:d])


def subset_blocks(n: int, r: int):
    """The r-subsets of range(n) in itertools.combinations order, as (k, r)
    index arrays of at most _SUBSET_BLOCK rows. The one cap rule: raises
    EnumerationCapError before any block when C(n, r) > ENUMERATION_CAP."""
    total = math.comb(n, r)
    if total > ENUMERATION_CAP:
        raise EnumerationCapError(f"C({n},{r}) = {total} subsets exceed the cap {ENUMERATION_CAP}")
    subsets = itertools.combinations(range(n), r)
    while block := list(itertools.islice(subsets, _SUBSET_BLOCK)):
        yield np.array(block, dtype=np.intp).reshape(len(block), r)


def smallest_singular_value(m) -> float:
    """sigma_min(m), the last of the LAPACK singular values."""
    arr = _as_array(m, "m", 2)
    if arr.size == 0:
        raise DimensionError("matrix must be nonempty")
    return float(np.linalg.svd(arr, compute_uv=False)[-1])


def stack_theta(p, M, c) -> np.ndarray:
    """theta = (p, vec M column-major, c), the one layout of an LP's inputs;
    over leading axes (p (..., d), M (..., q, d), c (..., q)), a stack of them."""
    M = np.asarray(M)
    vec_M = np.swapaxes(M, -1, -2).reshape(M.shape[:-2] + (-1,))
    return np.concatenate([p, vec_M, c], axis=-1)


def inverse_vectorize(x, q: int, d: int) -> np.ndarray:
    """Inverse of the column-major vectorization: a q x d matrix from vec(M)."""
    arr = _as_array(x, "x", 1)
    if arr.shape[0] != q * d:
        raise DimensionError(f"x has length {arr.shape[0]}, expected q*d = {q * d}")
    return arr.reshape((q, d), order="F")
