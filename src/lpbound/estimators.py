"""LP-value estimators: plug-in, exact penalty, debiased penalty, set expansion.

The penalty estimator minimizes L(x; theta, w) = p'x + w'(c - Mx)^+ over the
known box, computed through its relaxed-LP representation in variables (x, a):

    min p'x + w'a   s.t.  Mx + a >= c,  a >= 0,  x in X.

The debiased estimator re-optimizes p'x over the optimal face of that relaxed
LP and reports a vertex together with its binding rows; dropping the penalty
term removes the first-order bias when the penalty dominates a KKT vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from .linalg import (
    DimensionError,
    LpParams,
    LpSolution,
    solve_lp,
    smallest_singular_value,
    binding_rows,
    check_fields,
    SolverError,
    TAU_RANK,
    standard_blocks,
)



class PenaltyError(ValueError):
    pass


@dataclass
class PenaltyConfig:
    """Penalty vector (or the rule that selects it).

    w: explicit penalty (nonnegative scalar broadcast or length-q vector);
       when None the data-driven rule of select_penalty is used.
    alpha: quantile level for the singular-value lower bound (default 0.2).
    """

    w: Optional[Union[float, List[float]]] = None
    alpha: float = 0.2

    def __post_init__(self):
        check_fields(self, PenaltyError)
        if not 0.0 < self.alpha < 1.0:
            raise PenaltyError(f"alpha must lie in (0,1), got {self.alpha!r}")
        if tao_vu_quantile(self.alpha) == 0.0:  # select_penalty divides by it
            raise PenaltyError(f"alpha is so small that its quantile delta_alpha rounds to 0, "
                               f"got {self.alpha!r}")
        if self.w is not None and not np.all(np.asarray(self.w, dtype=float) >= 0):
            raise PenaltyError(f"w must be a nonnegative number or list, got {self.w!r}")

    def resolve_w(self, params: LpParams, n: Optional[int] = None):
        """The explicit w, or the data-driven choice of select_penalty."""
        if self.w is not None:
            return self.w
        if n is None:
            raise PenaltyError("no explicit penalty given and no sample size to select one")
        return select_penalty(params, n, self)


@dataclass
class DebiasedResult:
    value: float
    vertex: np.ndarray
    binding: np.ndarray
    penalty_residual: float


def plug_in_value(params: LpParams, bases: Optional[list] = None) -> LpSolution:
    """B(theta-hat): the LP solved at the estimated parameters; `bases` is
    passed to solve_lp as its warm-start list."""
    return solve_lp(params, bases=bases)


def penalty_rows(w, q: int) -> np.ndarray:
    """The penalty w (a scalar or one entry per row of M) as a length-q vector:
    a float vector of q entries as it is, a single entry broadcast."""
    w = np.asarray(w, dtype=float)
    if w.shape == (q,):
        return w
    if w.ndim > 1 or w.size != 1:
        raise DimensionError(f"penalty w has {w.size} entries for {q} rows of M")
    return np.broadcast_to(w, (q,))


def _relaxed_params(params: LpParams, w) -> LpParams:
    """The (x, a)-space LP whose value equals min_X L(x; theta, w)."""
    lower, upper = params.box
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise PenaltyError("penalized estimation requires a compact box")
    q = params.q
    w = penalty_rows(w, q)
    if (w < 0).any():
        raise PenaltyError("penalty vector must be nonnegative")
    _, eye, zeros_q, inf_q = standard_blocks(q)
    return LpParams._derived(
        np.concatenate((params.p, w)),
        np.concatenate((params.M, eye), axis=1),
        params.c.copy(),
        (np.concatenate((lower, zeros_q)), np.concatenate((upper, inf_q))),
        added=w,
    )


def penalty_value(params: LpParams, w, bases: Optional[list] = None) -> float:
    """min over the box of p'x + w'(c - Mx)^+ (always finite on a compact box).

    w is a scalar broadcast to every row or a length-q vector, nonnegative.
    `bases` is passed to solve_lp as its warm-start list.
    """
    sol = solve_lp(_relaxed_params(params, w), bases=bases)
    if not sol.optimal:  # feasible (a = (c - Mx)^+) and box-bounded
        raise SolverError(f"relaxed penalty LP reported {sol.status}")
    return float(sol.value)


def debiased_estimate(params: LpParams, w, bases: Optional[list] = None) -> DebiasedResult:
    """Vertex-solution of the penalized problem with the penalty term dropped.

    Solves the relaxed LP while maximizing p'x over the optimal face (exact
    lexicographic second stage), and returns the resulting vertex with its
    binding rows. `bases` is passed to solve_lp as its warm-start list: the
    value does not depend on the start, but at a degenerate optimum the
    vertex and binding rows may.
    """
    relaxed = _relaxed_params(params, w)
    secondary = np.concatenate([-params.p, np.zeros(params.q)])
    sol = solve_lp(relaxed, secondary=secondary, bases=bases)
    if not sol.optimal:  # feasible (a = (c - Mx)^+) and box-bounded
        raise SolverError(f"relaxed penalty LP reported {sol.status}")
    x_hat = sol.vertex[: params.d]
    binding = binding_rows(params.M, params.c, x_hat)
    residual = float(np.sum(np.clip(params.c - params.M @ x_hat, 0.0, None)))
    return DebiasedResult(
        value=float(params.p @ x_hat),
        vertex=x_hat,
        binding=binding,
        penalty_residual=residual,
    )


def full_rank_binding(rows: np.ndarray, binding: np.ndarray) -> bool:
    """Whether the binding rows of `rows` (M, or the effective system of M
    and the box rows) span R^d within the rank tolerance."""
    d = rows.shape[1]
    if binding.size < d:
        return False
    sub = rows[binding]
    scale = max(1.0, float(np.abs(sub).max()))
    return smallest_singular_value(sub) > TAU_RANK * scale * 10.0


def default_kappa_n(n: int, kappa0: float = 0.1) -> float:
    """Default expansion level: kappa_n = kappa0 * (ln ln n)^2, so that
    sqrt(kappa_n) grows proportionally to ln ln n."""
    if n < 3:
        raise PenaltyError("n must be at least 3 for ln ln n")
    return kappa0 * math.log(math.log(n)) ** 2


def set_expansion_value(params: LpParams, kappa_n: float, n: int,
                        bases: Optional[list] = None) -> LpSolution:
    """LP with the right-hand side relaxed by sqrt(kappa_n / n); `bases` is
    passed to solve_lp as its warm-start list."""
    if kappa_n < 0:
        raise PenaltyError("kappa_n must be nonnegative")
    eps = math.sqrt(kappa_n / n)
    c = params.c - eps
    return solve_lp(LpParams._derived(params.p, params.M, c, params.box, added=c), bases=bases)


def tao_vu_quantile(alpha: float) -> float:
    """delta_alpha with 1 - exp(-delta/2 - sqrt(delta)) = alpha."""
    if not (0.0 < alpha < 1.0):
        raise PenaltyError(f"alpha must lie in (0,1), got {alpha}")
    return (math.sqrt(1.0 - 2.0 * math.log1p(-alpha)) - 1.0) ** 2


def _wn(n: int) -> float:
    """w_n = ln ln n / ln ln 100, floored at 1."""
    if n < 3:
        raise PenaltyError("n must be at least 3 so ln ln n is defined")
    return max(1.0, math.log(math.log(n)) / math.log(math.log(100.0)))


def _row_norms(M: np.ndarray) -> np.ndarray:
    """||M_j|| per row; a zero row raises PenaltyError naming the first."""
    row_norms = np.linalg.norm(M, axis=1)
    if np.any(row_norms <= 0.0):
        bad = int(np.flatnonzero(row_norms <= 0.0)[0])
        raise PenaltyError(f"row {bad} of M has zero norm; drop or renormalize it")
    return row_norms


def select_penalty(params: LpParams, n: int, cfg: PenaltyConfig) -> np.ndarray:
    """Data-driven penalty vector w_j = w_n * d * ||p|| / (delta_alpha * ||M_j||)."""
    row_norms = _row_norms(params.M)
    wn = _wn(n)
    delta = tao_vu_quantile(cfg.alpha)
    return wn * params.d * float(np.linalg.norm(params.p)) / (delta * row_norms)


def select_v_bar(params: LpParams, alpha: float = 0.1) -> float:
    """Radius bound v_bar = d * ||p|| / (min_j ||E_j|| * delta_alpha) over
    the rows E_j of the effective system: M, then the finite box rows, each
    of norm 1."""
    row_norms = _row_norms(params.effective_system()[0])
    if not row_norms.size:
        raise PenaltyError("v_bar needs a constraint row: M has none and the box is unbounded")
    delta = tao_vu_quantile(alpha)
    return params.d * float(np.linalg.norm(params.p)) / (float(row_norms.min()) * delta)
