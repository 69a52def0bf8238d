"""Replicated simulation studies for the LP-value estimators.

Three studies: estimator consistency on the two worked example designs,
one-sided confidence interval coverage on the noisy-design variant, and the
uniform-rate grid study that contrasts the sqrt(n)- and sqrt(n)/w_n-scaled
sup-deviations of the penalty estimator.

Each design is one AffineDesign: its LP inputs theta = (p, vec M, c) are
exactly affine in a short vector phi of sample means, theta = theta0 + G phi,
so G is also the delta-method Jacobian d theta / d phi of the noisy design's
inference. Replications stack as Theta = theta0 + Phi G'.

Randomness is counter-based (Philox keyed by the scenario seed, with the
counter encoding replication, sample-size index, and stream), so replications
are reproducible independently of execution order.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Dict, List, Literal, Optional, Sequence, get_args

import numpy as np

from .linalg import LpParams, SolverError, check_fields, solve_lp, OPTIMAL
from .estimators import (
    PenaltyConfig,
    PenaltyError,
    penalty_value,
    debiased_estimate,
    set_expansion_value,
    default_kappa_n,
)
from .geometry import delta_condition
from .inference import InferenceConfig, InferenceError, ThetaEstimate, run_inference

DGP_EXAMPLE_A = "example_a"
DGP_EXAMPLE_B = "example_b"
DGP_UNIFORM_GRID = "uniform_grid"

Estimator = Literal["plugin", "penalty", "debiased", "setexp"]
ESTIMATORS = get_args(Estimator)


class ScenarioError(ValueError):
    pass


@dataclass
class SimulationScenario:
    dgp: Literal[DGP_EXAMPLE_A, DGP_EXAMPLE_B, DGP_UNIFORM_GRID]
    b: float = 0.0
    sample_sizes: Sequence[int] = (100, 500, 1000, 5000)
    replications: int = 1000
    estimators: Sequence[Estimator] = ESTIMATORS
    seed: int = 0
    alpha: float = 0.05
    kappa0: float = 0.1
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    slater: bool = False  # uniform-grid: draw the intercept noise from U[0,1]
    grid: Literal["full", "single"] = "full"  # uniform-grid: 9-point grid or {0}

    def __post_init__(self):
        check_fields(self, ScenarioError)
        if self.replications < 1:
            raise ScenarioError("replications must be at least 1")
        if not (0.0 < self.alpha < 1.0):
            raise ScenarioError(f"alpha must lie in (0,1), got {self.alpha}")
        if not self.kappa0 >= 0:
            raise ScenarioError(f"kappa0 must be nonnegative, got {self.kappa0}")
        sizes = self.sample_sizes
        if not sizes:
            raise ScenarioError("sample_sizes must be a nonempty list")
        if not self.estimators:
            raise ScenarioError("estimators must be a nonempty list")
        if any(n < 3 for n in sizes):
            raise ScenarioError(f"sample_sizes must be integers >= 3, got {sizes!r}")
        if any(b >= a for a, b in zip(sizes[1:], sizes)):
            raise ScenarioError("sample_sizes must be strictly increasing")


@dataclass
class ReportRow:
    estimator: str
    n: int
    mean: Optional[float] = None
    bias: Optional[float] = None
    std: Optional[float] = None
    rmse: Optional[float] = None
    failures: int = 0
    coverage: Optional[float] = None
    mean_lcb: Optional[float] = None


@dataclass
class SimulationReport:
    scenario: SimulationScenario
    rows: List[ReportRow]

    CSV_COLUMNS = ("estimator", "n", "mean", "bias", "std", "rmse",
                   "failures", "coverage", "mean_lcb")

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.CSV_COLUMNS)
        for r in self.rows:
            writer.writerow([
                r.estimator,
                r.n,
                *("" if v is None else repr(v) for v in
                  (r.mean, r.bias, r.std, r.rmse)),
                r.failures,
                *("" if v is None else repr(v) for v in (r.coverage, r.mean_lcb)),
            ])
        return buf.getvalue()


def rng_for(seed: int, n_idx: int, rep: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed per (replication, n, stream): draws are
    identical regardless of execution order and streams never overlap."""
    bit = np.random.Philox(seed=np.random.SeedSequence((seed, n_idx, rep, stream)))
    return np.random.Generator(bit)


@dataclass(frozen=True)
class AffineDesign:
    """The LPs of one design: q x d programs in one box whose stacked inputs
    theta = (p, vec M, c) are theta0 + G phi for a vector phi of means."""

    theta0: np.ndarray
    G: np.ndarray
    q: int
    d: int
    box: tuple

    def params(self, phi) -> LpParams:
        return LpParams.from_theta(self.theta0 + self.G @ phi, self.q, self.d, self.box)


# example_a and example_b: min x1 s.t. x2 >= (1 + b) x1 + nu, (1 + zeta) x1 - x2 >= zeta,
# -1 - nu <= x1 <= 1 and x in [-2, 2]^2, with phi = (b, zeta, nu); example_a is the LP
# at zeta = nu = 0. theta's entries run p, M[:, 0], M[:, 1], c.
_EXAMPLE = AffineDesign(
    theta0=np.array([1.0, 0.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, -1.0, -1.0]),
    G=np.array([
        [0, 0, 0], [0, 0, 0],                         # p
        [-1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0],  # M[:, 0]
        [0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0],   # M[:, 1]
        [0, 0, 1], [0, 1, 0], [0, 0, -1], [0, 0, 0],  # c
    ], dtype=float),
    q=4, d=2, box=(np.array([-2.0, -2.0]), np.array([2.0, 2.0])),
)


def draw_theta(scenario: SimulationScenario, n: int, rng: np.random.Generator) -> LpParams:
    """One parameter estimate of size n under the scenario's design."""
    if n < 1:
        raise ScenarioError("n must be at least 1")
    if scenario.dgp == DGP_EXAMPLE_A:
        b_hat = scenario.b + float(rng.uniform(-1.0, 1.0, size=n).mean())
        return _EXAMPLE.params((b_hat, 0.0, 0.0))
    if scenario.dgp == DGP_EXAMPLE_B:
        U = rng.uniform(-0.5, 0.5, size=(n, 3))
        return _EXAMPLE.params((scenario.b + U[:, 0].mean(), U[:, 1].mean(), U[:, 2].mean()))
    raise ScenarioError(f"draw_theta does not support dgp {scenario.dgp!r}")


def _with_moments(row: ReportRow, vals: np.ndarray, truth: float) -> ReportRow:
    """Fill mean, bias, std and rmse of the successful draws, if any."""
    if vals.size:
        row.mean = float(vals.mean())
        row.bias = row.mean - truth
        row.std = float(vals.std(ddof=0))
        row.rmse = float(np.sqrt(np.mean((vals - truth) ** 2)))
    return row


def run_consistency(scenario: SimulationScenario) -> SimulationReport:
    """Replicated point estimation; failed draws are counted, never imputed.

    The plug-in and set-expansion solves share one list of simplex bases for
    the whole study, and the penalty and debiased solves another, since each
    pair solves LPs with one constraint matrix; every solve warm-starts from
    the first of them still feasible (see linalg.solve_lp). The values equal
    those of cold solves up to rounding.
    """
    if scenario.dgp == DGP_UNIFORM_GRID:
        raise ScenarioError(f"no closed truth for dgp {scenario.dgp!r}")
    truth_sol = solve_lp(_EXAMPLE.params((scenario.b, 0.0, 0.0)))
    if truth_sol.status != OPTIMAL:
        raise ScenarioError(f"true LP is {truth_sol.status}")
    truth = float(truth_sol.value)
    original, relaxed = [], []
    bases = {"plugin": original, "setexp": original, "penalty": relaxed, "debiased": relaxed}
    rows: List[ReportRow] = []
    for n_idx, n in enumerate(scenario.sample_sizes):
        values: Dict[str, List[float]] = {e: [] for e in scenario.estimators}
        failures: Dict[str, int] = {e: 0 for e in scenario.estimators}
        kappa_n = default_kappa_n(n, scenario.kappa0)
        penalized = {"penalty", "debiased"} & set(scenario.estimators)
        for rep in range(scenario.replications):
            params = draw_theta(scenario, n, rng_for(scenario.seed, n_idx, rep))
            if penalized:
                w = scenario.penalty.resolve_w(params, n)
            for est in scenario.estimators:
                try:
                    if est == "plugin":
                        value = solve_lp(params, bases=bases[est]).value
                    elif est == "penalty":
                        value = penalty_value(params, w, bases=bases[est])
                    elif est == "debiased":
                        value = debiased_estimate(params, w, bases=bases[est]).value
                    else:
                        value = set_expansion_value(params, kappa_n, n, bases=bases[est]).value
                except (SolverError, PenaltyError):
                    value = None
                if value is None:
                    failures[est] += 1
                else:
                    values[est].append(float(value))
        for est in scenario.estimators:
            row = ReportRow(estimator=est, n=n, failures=failures[est])
            rows.append(_with_moments(row, np.array(values[est]), truth))
    return SimulationReport(scenario=scenario, rows=rows)


def _example_b_estimator(U: np.ndarray, b: float):
    """Fold estimator for the noisy design: subset means plus delta-method
    covariance of (p, vec M, c) driven by the sample covariance of the noise."""

    G = _EXAMPLE.G

    def estimate(idx: np.ndarray) -> ThetaEstimate:
        sub = U[idx]
        params = _EXAMPLE.params((b + sub[:, 0].mean(), sub[:, 1].mean(), sub[:, 2].mean()))
        return ThetaEstimate(params=params, sigma=G @ np.cov(sub.T) @ G.T)

    return estimate


def run_inference_study(scenario: SimulationScenario) -> SimulationReport:
    """Coverage of the true LP value by the one-sided split-sample interval.

    A replication whose inference fails is counted in `failures`; the
    statistics and the coverage come from the replications that succeeded.
    """
    if scenario.dgp != DGP_EXAMPLE_B:
        raise ScenarioError("the inference study runs on the noisy design (example_b)")
    truth = float(solve_lp(_EXAMPLE.params((scenario.b, 0.0, 0.0))).value)
    cfg = InferenceConfig(alpha=scenario.alpha, penalty=scenario.penalty)
    rows: List[ReportRow] = []
    for n_idx, n in enumerate(scenario.sample_sizes):
        covered = 0
        estimates = []
        lcbs = []
        failures = 0
        for rep in range(scenario.replications):
            U = rng_for(scenario.seed, n_idx, rep).uniform(-0.5, 0.5, size=(n, 3))
            try:
                result = run_inference(
                    n,
                    _example_b_estimator(U, scenario.b),
                    cfg,
                    seed=np.random.SeedSequence((scenario.seed, n_idx, rep, 1)),
                )
            except (InferenceError, PenaltyError, SolverError):
                failures += 1
                continue
            estimates.append(result.estimate)
            lcbs.append(result.ci_lower_onesided)
            if result.ci_lower_onesided <= truth:
                covered += 1
        row = ReportRow(estimator="debiased_ci", n=n, failures=failures)
        if estimates:
            row.coverage = covered / len(estimates)
            row.mean_lcb = float(np.mean(lcbs))
        rows.append(_with_moments(row, np.array(estimates), truth))
    return SimulationReport(scenario=scenario, rows=rows)


# -- uniform-rate grid study -------------------------------------------------

# min y - (1 + a) x s.t. y <= (1 + b) x + dshift, y >= (1 + c) x, |x| <= 1 and
# (x, y) in [-1.5, 1.5] x [-3, 3], with phi = (a, b, c, dshift): the grid slope a is in
# phi, so one design serves every grid point. theta's entries run p, M[:, 0], M[:, 1], c.
_GRID = AffineDesign(
    theta0=np.array([-1.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0, -1.0, -1.0]),
    G=np.array([
        [-1, 0, 0, 0], [0, 0, 0, 0],                                # p
        [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0], [0, 0, 0, 0],    # M[:, 0]
        [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],     # M[:, 1]
        [0, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],    # c
    ], dtype=float),
    q=4, d=2, box=(np.array([-1.5, -3.0]), np.array([1.5, 3.0])),
)


def _grid_delta() -> float:
    """Worst-case basis conditioning across the target range of slopes."""
    return min(delta_condition(_GRID.params((a, 0.0, 0.0, 0.0))).delta for a in (-0.1, 0.0, 0.1))


def grid_wn(n: int, delta: float) -> float:
    return (math.log(n) / math.log(100.0)) * (1.5 / delta)


def grid_points(n: int, delta: float, grid: str = "full") -> List[float]:
    """Slope grid: three fixed points plus three symmetric moving pairs whose
    positions equal +-0.1 at n = 100."""
    if grid == "single":
        return [0.0]
    wn = grid_wn(n, delta)
    c1 = 10.0
    c2 = 10.0 * delta / 1.5
    c3 = 1.5 / delta
    pts = [-0.1, 0.0, 0.1]
    for mag in (0.1 * c1 / math.sqrt(n), 0.1 * c2 * wn / math.sqrt(n), 0.1 * c3 / wn):
        pts.extend([-mag, mag])
    return pts


@dataclass
class UniformGridResult:
    sample_sizes: List[int]
    sup_std: np.ndarray            # std across reps of the sup-|error|
    sqrt_n_scaled: np.ndarray      # sup_std * sqrt(n)
    adaptive_scaled: np.ndarray    # sup_std * sqrt(n) / w_n
    sqrt_n_normalized: np.ndarray  # sqrt_n series matched to adaptive at n[0]
    delta: float
    failures: List[int]  # replications left out of each size's sup_std

    CSV_COLUMNS = ("n", "sup_std", "sqrt_n_scaled", "adaptive_scaled", "sqrt_n_normalized",
                   "failures")

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.CSV_COLUMNS)
        for i, n in enumerate(self.sample_sizes):
            series = (getattr(self, col)[i] for col in self.CSV_COLUMNS[1:-1])
            writer.writerow([n, *(repr(float(v)) for v in series), self.failures[i]])
        return buf.getvalue()


def run_uniform_grid(scenario: SimulationScenario) -> UniformGridResult:
    """Std of per-replication sup-deviations of the penalty estimator, scaled
    by sqrt(n) and by sqrt(n)/w_n. A replication with a failed penalty solve
    is counted in `failures` and left out of its size's std (NaN if none is
    left).

    Each grid point of each sample size keeps one list of simplex bases, and
    every penalty solve warm-starts from the first of them still feasible
    (see linalg.solve_lp). The values equal those of cold solves up to
    rounding.
    """
    if scenario.dgp != DGP_UNIFORM_GRID:
        raise ScenarioError("run_uniform_grid needs the uniform_grid dgp")
    delta = _grid_delta()
    sizes = list(scenario.sample_sizes)
    sup_std = np.zeros(len(sizes))
    failures = [0] * len(sizes)
    for n_idx, n in enumerate(sizes):
        wn = grid_wn(n, delta)
        w = np.full(4, wn)
        pts = grid_points(n, delta, scenario.grid)
        true_d = 0.5 if scenario.slater else 0.0
        truths = [float(solve_lp(_GRID.params((a, 0.0, 0.0, true_d))).value) for a in pts]
        bases = [[] for _ in pts]
        sups = []
        for rep in range(scenario.replications):
            rng = rng_for(scenario.seed, n_idx, rep)
            noise = rng.uniform(-0.5, 0.5, size=(n, 3)).mean(axis=0)
            if scenario.slater:
                dshift = float(rng.uniform(0.0, 1.0, size=n).mean())
            else:
                dshift = float(noise[2])
            worst = 0.0
            try:
                for a, truth, point_bases in zip(pts, truths, bases):
                    params = _GRID.params((a, noise[0], noise[1], dshift))
                    value = penalty_value(params, w, bases=point_bases)
                    worst = max(worst, abs(value - truth))
            except (SolverError, PenaltyError):
                failures[n_idx] += 1
                continue
            sups.append(worst)
        sup_std[n_idx] = np.std(sups) if sups else np.nan
    ns = np.array(sizes, dtype=float)
    wns = np.array([grid_wn(n, delta) for n in sizes])
    sqrt_series = sup_std * np.sqrt(ns)
    adaptive = sqrt_series / wns
    factor = adaptive[0] / sqrt_series[0] if sqrt_series[0] > 0 else 1.0
    return UniformGridResult(
        sample_sizes=sizes,
        sup_std=sup_std,
        sqrt_n_scaled=sqrt_series,
        adaptive_scaled=adaptive,
        sqrt_n_normalized=sqrt_series * factor,
        delta=delta,
        failures=failures,
    )


def loglog_slope(ns: Sequence[int], series: np.ndarray) -> float:
    """Least-squares slope of log(series) against log(n)."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(series, dtype=float))
    return float(np.polyfit(x, y, 1)[0])
