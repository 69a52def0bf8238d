"""Replicated simulation studies for the LP-value estimators.

Three studies: estimator consistency on the two worked example designs,
one-sided confidence interval coverage on the noisy-design variant, and the
uniform-rate grid study that contrasts the sqrt(n)- and sqrt(n)/w_n-scaled
sup-deviations of the penalty estimator.

Each study reads one dataclass, whose fields are all the keys its runner
reads: SimulationScenario holds those of every study (dgp, sample_sizes,
replications, seed), and ConsistencyScenario, InferenceScenario and
UniformGridScenario add their own and narrow dgp to the designs they run on.

Each design is one AffineDesign: its LP inputs theta = (p, vec M, c) are
exactly affine in a short vector phi of sample means, theta = theta0 + G phi,
so G is also the delta-method Jacobian d theta / d phi of the noisy design's
inference. Replications stack as Theta = theta0 + Phi G'.

Each study is a per-replication draw one(n_idx, n, rep), run in order over
sizes and replications by one driver (_replicate), plus a reduction of the
outcomes to rows (_row). One failure rule holds for all three: a replication
that raises a SolverError, PenaltyError or InferenceError counts in
`failures` and is left out of the statistics. A consistency replication that
fails before its estimators run counts one failure for each estimator.

Randomness is counter-based (Philox keyed by the scenario seed, with the
counter encoding replication, sample-size index, and stream), so replications
are reproducible independently of execution order.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import List, Literal, Optional, Sequence, get_args

import numpy as np

from .linalg import LpParams, SolverError, check_fields, inverse_vectorize, solve_lp, OPTIMAL
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
    """The keys every study reads; each study's class adds the keys its runner
    reads and narrows dgp to the designs it runs on."""

    dgp: Literal[DGP_EXAMPLE_A, DGP_EXAMPLE_B, DGP_UNIFORM_GRID]
    sample_sizes: Sequence[int] = (100, 500, 1000, 5000)
    replications: int = 1000
    seed: int = 0

    def __post_init__(self):
        check_fields(self, ScenarioError)
        if self.replications < 1:
            raise ScenarioError("replications must be at least 1")
        sizes = self.sample_sizes
        if not sizes:
            raise ScenarioError("sample_sizes must be a nonempty list")
        if any(n < 3 for n in sizes):
            raise ScenarioError(f"sample_sizes must be integers >= 3, got {sizes!r}")
        if any(b >= a for a, b in zip(sizes[1:], sizes)):
            raise ScenarioError("sample_sizes must be strictly increasing")


def check_estimator_keys(cfg, error) -> None:
    """The checks of the estimators and kappa0 keys, shared by the consistency
    study and the estimate command: error(message) on the first that fails."""
    if not cfg.estimators or len(set(cfg.estimators)) < len(cfg.estimators):
        raise error("estimators must be a nonempty list with no entry twice, "
                    f"got {cfg.estimators!r}")
    if not cfg.kappa0 >= 0:
        raise error(f"kappa0 must be nonnegative, got {cfg.kappa0}")


@dataclass(kw_only=True)
class ConsistencyScenario(SimulationScenario):
    """The consistency study (run_consistency) on a worked example design."""

    dgp: Literal[DGP_EXAMPLE_A, DGP_EXAMPLE_B]
    b: float = 0.0
    estimators: Sequence[Estimator] = ESTIMATORS
    kappa0: float = 0.1
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)

    def __post_init__(self):
        super().__post_init__()
        check_estimator_keys(self, ScenarioError)


@dataclass(kw_only=True)
class InferenceScenario(SimulationScenario):
    """The coverage study (run_inference_study) on the noisy design."""

    dgp: Literal[DGP_EXAMPLE_B]
    b: float = 0.0
    alpha: float = InferenceConfig.alpha
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)

    def __post_init__(self):
        super().__post_init__()
        self.inference = InferenceConfig(alpha=self.alpha, penalty=self.penalty)


@dataclass(kw_only=True)
class UniformGridScenario(SimulationScenario):
    """The uniform-rate grid study (run_uniform_grid)."""

    dgp: Literal[DGP_UNIFORM_GRID]
    slater: bool = False  # draw the intercept noise from U[0,1]
    grid: Literal["full", "single"] = "full"  # the 9-point grid or {0}


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
    rows: List[ReportRow]

    CSV_COLUMNS = ("estimator", "n", "mean", "bias", "std", "rmse",
                   "failures", "coverage", "mean_lcb")

    def to_csv(self) -> str:
        return _csv(self.CSV_COLUMNS, ([getattr(r, col) for col in self.CSV_COLUMNS]
                                       for r in self.rows))


def _csv(columns: Sequence[str], rows) -> str:
    """CSV text: a float cell as its repr, None as an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if v is None else repr(float(v)) if isinstance(v, float) else v
                         for v in row])
    return buf.getvalue()


def rng_for(seed: int, n_idx: int, rep: int) -> np.random.Generator:
    """Counter-based generator keyed per (replication, n) on stream 0: draws are
    identical regardless of execution order. The coverage study's split seed is
    stream 1, SeedSequence((seed, n_idx, rep, 1)), which run_inference_study
    builds itself, so the two streams never overlap."""
    bit = np.random.Philox(seed=np.random.SeedSequence((seed, n_idx, rep, 0)))
    return np.random.Generator(bit)


@dataclass(frozen=True)
class AffineDesign:
    """The LPs of one design: q x d programs in one box whose stacked inputs
    theta = (p, vec M, c) are theta0 + G phi for a vector phi of means. The
    layout and box are checked once, on the LP of theta0; params(phi) builds
    each LP by LpParams._derived, checking only that theta is finite."""

    theta0: np.ndarray
    G: np.ndarray
    q: int
    d: int
    box: tuple

    def __post_init__(self):
        checked = LpParams.from_theta(self.theta0, self.q, self.d, self.box)
        object.__setattr__(self, "box", checked.box)

    def params(self, phi) -> LpParams:
        theta, q, d = self.theta0 + self.G @ phi, self.q, self.d
        return LpParams._derived(theta[:d], inverse_vectorize(theta[d:d + q * d], q, d),
                                 theta[d + q * d:], self.box, added=theta)


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


def draw_theta(scenario: ConsistencyScenario, n: int, rng: np.random.Generator) -> LpParams:
    """One parameter estimate of size n under the scenario's design."""
    if n < 1:
        raise ScenarioError("n must be at least 1")
    if scenario.dgp == DGP_EXAMPLE_A:
        b_hat = scenario.b + float(rng.uniform(-1.0, 1.0, size=n).mean())
        return _EXAMPLE.params((b_hat, 0.0, 0.0))
    U = rng.uniform(-0.5, 0.5, size=(n, 3))
    return _EXAMPLE.params((scenario.b + U[:, 0].mean(), U[:, 1].mean(), U[:, 2].mean()))


def _truth(design: AffineDesign, phi) -> float:
    """Value of the design's LP at the population phi."""
    sol = solve_lp(design.params(phi))
    if sol.status != OPTIMAL:
        raise ScenarioError(f"true LP is {sol.status}")
    return float(sol.value)


def _attempt(fn, *args):
    """fn(*args), or None when it raises a solver, penalty or inference error:
    the one failure rule of every study."""
    try:
        return fn(*args)
    except (SolverError, PenaltyError, InferenceError):
        return None


def _replicate(scenario: SimulationScenario, one) -> List[list]:
    """Per sample size, the outcomes one(n_idx, n, rep) of every replication
    in order; a replication that fails comes back as None."""
    return [[_attempt(one, n_idx, n, rep) for rep in range(scenario.replications)]
            for n_idx, n in enumerate(scenario.sample_sizes)]


def _row(estimator: str, n: int, outcomes: list, truth: float) -> ReportRow:
    """The failures (None outcomes) and the mean, bias, std and rmse of the
    other outcomes, if any."""
    vals = np.array([v for v in outcomes if v is not None], dtype=float)
    row = ReportRow(estimator=estimator, n=n, failures=len(outcomes) - vals.size)
    if vals.size:
        row.mean = float(vals.mean())
        row.bias = row.mean - truth
        row.std = float(vals.std(ddof=0))
        row.rmse = float(np.sqrt(np.mean((vals - truth) ** 2)))
    return row


def run_consistency(scenario: ConsistencyScenario) -> SimulationReport:
    """Replicated point estimation; failed draws are counted, never imputed.

    A replication whose draw or penalty selection fails counts one failure
    for each estimator; an estimator that fails on its own counts for itself.

    The plug-in and set-expansion solves share one list of simplex bases for
    the whole study, and the penalty and debiased solves another, since each
    pair solves LPs with one constraint matrix; every solve warm-starts from
    the first of them still feasible (see linalg.solve_lp). The values equal
    those of cold solves up to rounding.
    """
    truth = _truth(_EXAMPLE, (scenario.b, 0.0, 0.0))
    original, relaxed = [], []
    value_of = {
        "plugin": lambda params, w, n: solve_lp(params, bases=original).value,
        "penalty": lambda params, w, n: penalty_value(params, w, bases=relaxed),
        "debiased": lambda params, w, n: debiased_estimate(params, w, bases=relaxed).value,
        "setexp": lambda params, w, n: set_expansion_value(
            params, default_kappa_n(n, scenario.kappa0), n, bases=original).value,
    }
    penalized = {"penalty", "debiased"} & set(scenario.estimators)

    def one(n_idx, n, rep):
        params = draw_theta(scenario, n, rng_for(scenario.seed, n_idx, rep))
        w = scenario.penalty.resolve_w(params, n) if penalized else None
        return [_attempt(value_of[est], params, w, n) for est in scenario.estimators]

    rows = [_row(est, n, [None if o is None else o[i] for o in outcomes], truth)
            for n, outcomes in zip(scenario.sample_sizes, _replicate(scenario, one))
            for i, est in enumerate(scenario.estimators)]
    return SimulationReport(rows=rows)


def _example_b_estimator(U: np.ndarray, b: float):
    """Fold estimator for the noisy design: subset means plus delta-method
    covariance of (p, vec M, c) driven by the sample covariance of the noise,
    computed only when read (run_inference reads fold 2's alone)."""

    G = _EXAMPLE.G

    def estimate(idx: np.ndarray) -> ThetaEstimate:
        sub = U.take(idx, axis=0)
        params = _EXAMPLE.params((b + sub[:, 0].mean(), sub[:, 1].mean(), sub[:, 2].mean()))
        return ThetaEstimate(params=params, sigma=lambda: G @ np.cov(sub.T) @ G.T)

    return estimate


def run_inference_study(scenario: InferenceScenario) -> SimulationReport:
    """Coverage of the true LP value by the one-sided split-sample interval.

    A replication whose inference fails is counted in `failures`; the
    statistics and the coverage come from the replications that succeeded.
    """
    truth = _truth(_EXAMPLE, (scenario.b, 0.0, 0.0))

    def one(n_idx, n, rep):
        U = rng_for(scenario.seed, n_idx, rep).uniform(-0.5, 0.5, size=(n, 3))
        result = run_inference(n, _example_b_estimator(U, scenario.b), scenario.inference,
                               seed=np.random.SeedSequence((scenario.seed, n_idx, rep, 1)))
        return result.estimate, result.ci_lower_onesided

    rows = []
    for n, outcomes in zip(scenario.sample_sizes, _replicate(scenario, one)):
        row = _row("debiased_ci", n, [None if o is None else o[0] for o in outcomes], truth)
        lcbs = [o[1] for o in outcomes if o is not None]
        if lcbs:
            row.coverage = sum(1 for lcb in lcbs if lcb <= truth) / len(lcbs)
            row.mean_lcb = float(np.mean(lcbs))
        rows.append(row)
    return SimulationReport(rows=rows)


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


def grid_points(n: int, delta: float, grid: str) -> List[float]:
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
    failures: List[int]  # replications left out of each size's sup_std

    CSV_COLUMNS = ("n", "sup_std", "sqrt_n_scaled", "adaptive_scaled", "sqrt_n_normalized",
                   "failures")

    def to_csv(self) -> str:
        return _csv(self.CSV_COLUMNS,
                    zip(self.sample_sizes, *(getattr(self, col) for col in self.CSV_COLUMNS[1:])))


def run_uniform_grid(scenario: UniformGridScenario) -> UniformGridResult:
    """Std of per-replication sup-deviations of the penalty estimator, scaled
    by sqrt(n) and by sqrt(n)/w_n. A replication with a failed penalty solve
    is counted in `failures` and left out of its size's std (NaN if none is
    left).

    Each grid point of each sample size keeps one list of simplex bases, and
    every penalty solve warm-starts from the first of them still feasible
    (see linalg.solve_lp). The values equal those of cold solves up to
    rounding.
    """
    delta = _grid_delta()
    sizes = list(scenario.sample_sizes)
    wns = np.array([grid_wn(n, delta) for n in sizes])
    pts = [grid_points(n, delta, scenario.grid) for n in sizes]
    true_d = 0.5 if scenario.slater else 0.0
    truths = [[_truth(_GRID, (a, 0.0, 0.0, true_d)) for a in p] for p in pts]
    bases = [[[] for _ in p] for p in pts]

    def one(n_idx, n, rep):
        rng = rng_for(scenario.seed, n_idx, rep)
        noise = rng.uniform(-0.5, 0.5, size=(n, 3)).mean(axis=0)
        dshift = float(rng.uniform(0.0, 1.0, size=n).mean() if scenario.slater else noise[2])
        w = np.full(4, wns[n_idx])
        worst = 0.0
        for a, truth, point_bases in zip(pts[n_idx], truths[n_idx], bases[n_idx]):
            value = penalty_value(_GRID.params((a, noise[0], noise[1], dshift)), w,
                                  bases=point_bases)
            worst = max(worst, abs(value - truth))
        return worst

    # each size's sup-deviations as one row: its std is the sup_std
    rows = [_row("penalty", n, sups, 0.0) for n, sups in zip(sizes, _replicate(scenario, one))]
    sup_std = np.array([np.nan if r.std is None else r.std for r in rows])
    ns = np.array(sizes, dtype=float)
    sqrt_series = sup_std * np.sqrt(ns)
    adaptive = sqrt_series / wns
    factor = adaptive[0] / sqrt_series[0] if sqrt_series[0] > 0 else 1.0
    return UniformGridResult(
        sample_sizes=sizes,
        sup_std=sup_std,
        sqrt_n_scaled=sqrt_series,
        adaptive_scaled=adaptive,
        sqrt_n_normalized=sqrt_series * factor,
        failures=[r.failures for r in rows],
    )

