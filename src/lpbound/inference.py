"""Split-sample inference on the LP value.

Pipeline: split the sample into two folds; on fold 1, estimate a vertex of the
debiased penalty estimator together with its binding set and a ball-constrained
least-squares dual weight; on fold 2, evaluate the bias-corrected linear
statistic and its standard error; report one- and two-sided intervals.

Parameter vectors are ordered (p, vec(M) column-major, c), of total length
S = d + q*d + q; covariance matrices follow the same ordering, with the p
block identically zero when p is deterministic.

Only fold 2's covariance enters the standard error, so a fold estimator may
return its covariance as a zero-argument function (see ThetaEstimate): fold
1's is then never computed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .linalg import LpParams, DimensionError, binding_rows, check_fields, stack_theta
from .estimators import (
    PenaltyConfig,
    debiased_estimate,
    full_rank_binding,
    select_v_bar,
    tao_vu_quantile,
)

_PSD_TOL = 1e-8
_SYM_RTOL = 1e-5  # np.allclose's default rtol
_VAR_CLIP = -1e-10


class InferenceError(ValueError):
    pass


class ThetaEstimate:
    """Estimated LP parameters with the covariance of the estimate.

    sigma is the S x S covariance of the full parameter vector in the
    (p, vec M, c) ordering, scaled so that theta_hat ~ (theta, sigma / n).
    It is given as an array, checked here, or as a zero-argument function
    that returns one, called and checked the first time .sigma is read:
    run_inference reads only fold 2's.
    """

    def __init__(self, params: LpParams,
                 sigma: Union[np.ndarray, Callable[[], np.ndarray]]):
        self.params = params
        self._sigma = sigma if callable(sigma) else self._checked(sigma)

    @property
    def sigma(self) -> np.ndarray:
        if callable(self._sigma):
            self._sigma = self._checked(self._sigma())
        return self._sigma

    def _checked(self, sigma) -> np.ndarray:
        sigma = np.asarray(sigma, dtype=float)
        S = self.params.theta_size
        if sigma.shape != (S, S):
            raise DimensionError(
                f"sigma must be {S}x{S} for (q,d)=({self.params.q},{self.params.d})"
            )
        return sigma


# A ThetaEstimator maps a subset of observation indices to a ThetaEstimate.
# It must be deterministic given the subset.
ThetaEstimator = Callable[[np.ndarray], ThetaEstimate]


@dataclass
class OptimalTriplet:
    A: np.ndarray  # binding M-row indices; with binding box rows |A| may be below d
    x: np.ndarray  # point in R^d
    v: np.ndarray  # vector in R^q, support within A


@dataclass
class InferenceResult:
    estimate: float
    se: float
    alpha: float  # the interval ends derive from (estimate, se, alpha)
    triplet: OptimalTriplet
    n1: int
    n2: int
    degenerate_variance: bool = False

    @property
    def ci_lower_onesided(self) -> float:  # [ci_lower_onesided, +inf)
        return self.estimate - NormalDist().inv_cdf(1.0 - self.alpha) * self.se

    @property
    def ci_upper_onesided(self) -> float:  # (-inf, ci_upper_onesided]
        return self.estimate + NormalDist().inv_cdf(1.0 - self.alpha) * self.se

    @property
    def ci_twosided(self) -> Tuple[float, float]:
        z = NormalDist().inv_cdf(1.0 - self.alpha / 2.0)
        return self.estimate - z * self.se, self.estimate + z * self.se


@dataclass
class InferenceConfig:
    gamma: float = 0.5
    alpha: float = 0.05
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    v_bar: Optional[float] = None  # None -> select_v_bar on fold-1 estimates
    v_bar_alpha: float = 0.1
    sigma_min: float = 0.0

    def __post_init__(self):
        check_fields(self, InferenceError, infinite=("v_bar",))  # an unbounded dual ball
        for key in ("gamma", "alpha", "v_bar_alpha"):
            value = getattr(self, key)
            if not 0.0 < value < 1.0:
                raise InferenceError(f"{key} must lie in (0,1), got {value!r}")
        if tao_vu_quantile(self.v_bar_alpha) == 0.0:  # select_v_bar divides by it
            raise InferenceError(f"v_bar_alpha is so small that its quantile delta_alpha rounds "
                                 f"to 0, got {self.v_bar_alpha!r}")
        if 1.0 - self.alpha / 2.0 == 1.0:  # the two-sided quantile's level rounds to 1
            raise InferenceError(f"alpha must exceed 2**-53 so that 1 - alpha/2 < 1, "
                                 f"got {self.alpha!r}")
        if not self.sigma_min >= 0:
            raise InferenceError("sigma_min must be nonnegative")
        if self.v_bar is not None and not self.v_bar > 0:
            raise InferenceError(f"v_bar must be positive, got {self.v_bar!r}")


def split_sample(n: int, gamma: float, seed) -> Tuple[np.ndarray, np.ndarray]:
    """Random disjoint exhaustive folds of sizes (floor(gamma*n), rest), each
    in increasing order: fold 1 holds the first n1 entries of a random
    permutation of range(n), fold 2 the rest.

    Each fold holds at least 2 records, since every fold estimator takes a
    sample covariance of its fold."""
    if not (0.0 < gamma < 1.0):
        raise InferenceError(f"gamma must lie in (0,1), got {gamma}")
    n1 = int(math.floor(gamma * n))
    if min(n1, n - n1) < 2:
        raise InferenceError(f"degenerate fold sizes ({n1}, {n - n1})")
    perm = np.random.default_rng(seed).permutation(n)
    in_fold1 = np.zeros(n, dtype=bool)
    in_fold1[perm[:n1]] = True
    return np.flatnonzero(in_fold1), np.flatnonzero(~in_fold1)


def ball_constrained_lstsq(
    mat: np.ndarray, rhs: np.ndarray, radius: float
) -> np.ndarray:
    """argmin_v ||rhs - mat'v||^2 subject to ||v|| <= radius.

    Unconstrained minimum-norm solution first; when it violates the ball, the
    trust-region step v(mu) = (mat mat' + mu I)^{-1} mat rhs = U (b / (s^2 + mu)),
    with mat = U diag(s) W' a thin SVD and b = s * W'rhs: its norm falls as mu
    grows, to at most radius at mu = ||b|| / radius, and mu is bisected below that.
    """
    if not radius > 0:
        raise InferenceError("radius must be positive")
    mat = np.asarray(mat, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    v0, *_ = np.linalg.lstsq(mat.T, rhs, rcond=None)
    if np.linalg.norm(v0) <= radius:
        return v0
    U, s, Wt = np.linalg.svd(mat, full_matrices=False)
    b = s * (Wt @ rhs)
    s2 = s * s
    # bisect mu's bit patterns (they order nonnegative floats) to two adjacent floats in
    # <= 63 halvings; ||v(mu)|| = ||b / (s^2 + mu)||, by hypot so tiny entries don't underflow
    lo, hi = 0, int(np.float64(math.hypot(*b) / radius).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.hypot(*(b / (s2 + np.int64(mid).view(np.float64)))) > radius:
            lo = mid
        else:
            hi = mid
    return U @ (b / (s2 + np.int64(hi).view(np.float64)))


def find_triplet(
    theta1: LpParams, w: np.ndarray, v_bar: float
) -> OptimalTriplet:
    """Fold-1 triplet: debiased vertex, its binding set, and dual weights.

    The binding rows of the effective system (M, then the finite box rows)
    must span R^d, and v is fitted to p over all of them. The box rows are
    known, not estimated, so the triplet keeps only the rows of M among them
    (A) and their weights (v, in R^q); the box rows' weights are dropped.
    """
    result = debiased_estimate(theta1, w)
    rows, rhs = theta1.effective_system()
    binding = binding_rows(rows, rhs, result.vertex)
    if not full_rank_binding(rows, binding):
        raise InferenceError(
            "no full-rank vertex-solution found on fold 1: binding rows "
            f"{binding.tolist()} of M and the box do not span R^{theta1.d}; "
            "increase the penalty"
        )
    v_binding = ball_constrained_lstsq(rows[binding], theta1.p, v_bar)
    on_M = binding < theta1.q
    v = np.zeros(theta1.q)
    v[binding[on_M]] = v_binding[on_M]
    return OptimalTriplet(A=binding[on_M], x=result.vertex, v=v)


def check_covariance(sigma: np.ndarray, name: str = "Sigma") -> None:
    """Raise InferenceError unless sigma is finite, symmetric and positive
    semidefinite, each within _PSD_TOL (relative to its largest entry).

    Symmetry is np.allclose(sigma, sigma.T, atol=_PSD_TOL), with its rtol,
    as one comparison of the finite entries. The symmetric part S has no
    eigenvalue below -_PSD_TOL * scale exactly when S + _PSD_TOL * scale * I
    is positive definite, which one Cholesky factorization tells; the
    diagonal is shifted in place, and the eigenvalues are computed only to
    word a refusal."""
    if not np.all(np.isfinite(sigma)):
        raise InferenceError(f"{name} must be finite")
    magnitude = np.abs(sigma)
    # allclose bounds |sigma - sigma.T| at (i, j) by |sigma.T[i, j]|; that
    # difference is symmetric, so bounding it by |sigma[i, j]| tests the same
    # pairs, with the bound read in memory order
    if not (np.abs(sigma - sigma.T) <= _PSD_TOL + _SYM_RTOL * magnitude).all():
        raise InferenceError(f"{name} must be symmetric")
    scale = max(1.0, float(magnitude.max()))
    shifted = 0.5 * (sigma + sigma.T)
    shifted.reshape(-1)[::len(shifted) + 1] += _PSD_TOL * scale  # the diagonal, a view
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        lowest = np.linalg.eigvalsh(0.5 * (sigma + sigma.T)).min()
        raise InferenceError(f"{name} is not PSD (min eigenvalue {lowest:.3e})") from None


def asymptotic_variance(
    A: np.ndarray, x: np.ndarray, v: np.ndarray, Sigma: np.ndarray
) -> float:
    """Variance of v_A'(c_A - M_A x) under theta ~ (theta_0, Sigma).

    Delta method: the statistic is linear in theta with gradient
    g = (0_d, vec(-v_A x') = -x (x) v_A, v_A) in the (p, vec M, c) ordering,
    where v_A is v zeroed off A, so sigma^2 = g' Sigma g.
    """
    A = np.asarray(A, dtype=int)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    v_A = np.zeros(v.shape[0])
    v_A[A] = v[A]
    g = stack_theta(np.zeros(x.shape[0]), -np.outer(v_A, x), v_A)
    if Sigma.shape != (g.size, g.size):
        raise DimensionError(f"Sigma must be {g.size}x{g.size}, got {Sigma.shape}")
    check_covariance(Sigma)
    scale = max(1.0, float(np.abs(Sigma).max()))
    var = float(g @ Sigma @ g)
    if var < _VAR_CLIP * scale:
        raise InferenceError(f"variance formula returned {var:.3e} < clip threshold")
    return max(var, 0.0)


def run_inference(
    n: int, estimator: ThetaEstimator, cfg: InferenceConfig, seed
) -> InferenceResult:
    """Full split-sample procedure on a sample of size n; the estimator
    receives index subsets of range(n)."""
    fold1, fold2 = split_sample(n, cfg.gamma, seed)
    n1, n2 = len(fold1), len(fold2)

    est1 = estimator(fold1)
    theta1 = est1.params
    w = cfg.penalty.resolve_w(theta1, n1)
    v_bar = cfg.v_bar if cfg.v_bar is not None else select_v_bar(theta1, cfg.v_bar_alpha)
    triplet = find_triplet(theta1, w, v_bar)

    est2 = estimator(fold2)
    theta2 = est2.params
    A, x, v = triplet.A, triplet.x, triplet.v
    v_A = v[A]
    estimate = float(v_A @ (theta2.c[A] - theta2.M[A] @ x) + theta1.p @ x)

    sigma_hat = math.sqrt(asymptotic_variance(A, x, v, est2.sigma))

    degenerate = sigma_hat <= cfg.sigma_min
    sigma_hat = max(sigma_hat, cfg.sigma_min)
    se = sigma_hat / math.sqrt(n2)

    return InferenceResult(
        estimate=estimate,
        se=se,
        alpha=cfg.alpha,
        triplet=triplet,
        n1=n1,
        n2=n2,
        degenerate_variance=degenerate,
    )


@dataclass
class TwoSidedInterval:
    lower: float
    upper: float
    crossed: bool


def combine_two_sided(lower: InferenceResult, upper: InferenceResult) -> TwoSidedInterval:
    """Union-bound two-sided interval from min- and max-direction results:
    the lower end of the lower bound's two-sided interval and the upper end
    of the upper bound's. Crossed bounds are flagged, never swapped."""
    lb, ub = lower.ci_twosided[0], upper.ci_twosided[1]
    return TwoSidedInterval(lower=lb, upper=ub, crossed=lb > ub)
