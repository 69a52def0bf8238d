"""Compile causal assumptions over conditional moments into LP parameters.

Microdata (Y, T, Z) is summarized into a table of cell means and
probabilities. Assumption sets (outcome bounds, monotone treatment response,
monotone-instrument conditions and their conditional refinements) are compiled
into (p, M, c) plus an identified offset so that

    bound on E[Y(t)] (or an ATE) = optimum of p'x over {Mx >= c} + offset,

where x collects the unobserved counterfactual conditional means. A closed
form recursion evaluates the weak conditional-monotonicity bounds for binary
treatment, which doubles as an independent oracle for the compiled LPs.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .linalg import LpParams, solve_lp, OPTIMAL

_PROB_TOL = 1e-10

KIND_BOUNDS = "bounds"
KIND_MTR = "mtr"
KIND_MIV = "miv"
KIND_CMIV_S = "cmiv_s"
KIND_CMIV_P = "cmiv_p"
_KNOWN_KINDS = {KIND_BOUNDS, KIND_MTR, KIND_MIV, KIND_CMIV_S, KIND_CMIV_P}


class TableError(ValueError):
    pass


class CompileError(ValueError):
    pass


@dataclass
class ConditionalMomentTable:
    """Cell-level moments of (Y, T, Z) on finite ordered supports.

    mean[t_idx, z_idx] = E[Y | T=t, Z=z] (NaN when t is unobserved),
    prob[t_idx, z_idx] = P[T=t, Z=z], count holds cell sizes (0 allowed for
    synthetic tables). observed is the subset of treatments with outcome data.
    """

    treatments: List
    instruments: List
    mean: np.ndarray
    prob: np.ndarray
    count: np.ndarray
    observed: frozenset

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.prob = np.asarray(self.prob, dtype=float)
        self.count = np.asarray(self.count)
        nt, nz = len(self.treatments), len(self.instruments)
        if self.mean.shape != (nt, nz) or self.prob.shape != (nt, nz):
            raise TableError(f"mean/prob must be {nt}x{nz}")
        if np.any(self.prob <= 0.0):
            t, z = np.unravel_index(int(np.argmin(self.prob)), self.prob.shape)
            raise TableError(
                f"cell (T={self.treatments[t]}, Z={self.instruments[z]}) has "
                f"probability {self.prob[t, z]}; full support is required"
            )
        if abs(self.prob.sum() - 1.0) > _PROB_TOL:
            raise TableError(f"cell probabilities sum to {self.prob.sum()!r}, not 1")
        self.observed = frozenset(self.observed)
        for i, t in enumerate(self.treatments):
            finite = np.all(np.isfinite(self.mean[i]))
            if t in self.observed and not finite:
                raise TableError(f"treatment {t} is observed but has undefined cell means")
            if t not in self.observed and finite:
                raise TableError(f"treatment {t} is unobserved but has cell means")

    @property
    def n_treatments(self) -> int:
        return len(self.treatments)

    @property
    def n_instruments(self) -> int:
        return len(self.instruments)

    def t_index(self, t) -> int:
        try:
            return self.treatments.index(t)
        except ValueError:
            raise TableError(f"treatment {t!r} not in support {self.treatments}") from None

    def z_prob(self) -> np.ndarray:
        """P[Z = z] per instrument level."""
        return self.prob.sum(axis=0)

    def t_given_z(self) -> np.ndarray:
        """P[T = t | Z = z], same shape as prob."""
        return self.prob / self.z_prob()[None, :]


_MISSING = {None, ""}


def ingest_sample(records: Sequence[Tuple]) -> ConditionalMomentTable:
    """Empirical conditional moment table from (y, t, z) records.

    y is None/NaN/"" for missing outcomes; within a treatment level the
    presence of y must be consistent. Every (t, z) cell must be populated.
    """
    rows = [(r[0], r[1], r[2]) for r in records]
    if not rows:
        raise TableError("no records")
    ys, ts, zs = zip(*rows)
    treatments = sorted(set(ts))
    instruments = sorted(set(zs))
    nt, nz = len(treatments), len(instruments)
    t_idx = {t: i for i, t in enumerate(treatments)}
    z_idx = {z: i for i, z in enumerate(instruments)}
    t_code = np.array([t_idx[v] for v in ts])
    cell = t_code * nz + np.array([z_idx[v] for v in zs])
    missing = np.array([y in _MISSING or (isinstance(y, float) and math.isnan(y)) for y in ys])
    y = np.array([0.0 if gone else float(v) for v, gone in zip(ys, missing)])
    # bincount adds in record order, as a running sum over the records would
    count = np.bincount(cell, minlength=nt * nz).reshape(nt, nz)
    total = np.bincount(cell, weights=y, minlength=nt * nz).reshape(nt, nz)
    present = np.bincount(t_code[~missing], minlength=nt)
    absent = np.bincount(t_code[missing], minlength=nt)
    observed = set()
    for i, t in enumerate(treatments):
        if present[i] and absent[i]:
            raise TableError(
                f"treatment {t!r} has {present[i]} records with outcomes and "
                f"{absent[i]} without; outcome presence must be consistent"
            )
        if present[i]:
            observed.add(t)
    empty = np.argwhere(count == 0)
    if empty.size:
        i, j = empty[0]
        raise TableError(
            f"empty cell (T={treatments[i]}, Z={instruments[j]}): "
            "every treatment-instrument cell needs observations"
        )
    mean = np.full((nt, nz), np.nan)
    for i, t in enumerate(treatments):
        if t in observed:
            mean[i] = total[i] / count[i]
    prob = count / count.sum()
    return ConditionalMomentTable(treatments, instruments, mean, prob, count, frozenset(observed))


def read_microdata_csv(path) -> List[Tuple]:
    """Records from a CSV with header y,t,z; empty y denotes a missing outcome."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["y", "t", "z"]:
            raise TableError(f"microdata CSV must have header 'y,t,z', got {reader.fieldnames}")
        for row in reader:
            y = row["y"].strip()
            out.append((float(y) if y else None, row["t"].strip(), row["z"].strip()))
    return out


@dataclass
class MeanPotential:
    t: object


@dataclass
class ATE:
    t: object
    d: object


@dataclass
class AssumptionSpec:
    kinds: frozenset
    bounds: Optional[Tuple[float, float]] = None
    relax: float = 0.0  # slack subtracted from every monotonicity restriction
    target: object = None

    def __post_init__(self):
        self.kinds = frozenset(self.kinds)
        unknown = self.kinds - _KNOWN_KINDS
        if unknown:
            raise CompileError(f"unknown assumption kinds: {sorted(unknown)}")
        if KIND_BOUNDS in self.kinds:
            if self.bounds is None:
                raise CompileError("bounds assumption requires (K0, K1)")
            k0, k1 = self.bounds
            if not (k0 < k1):
                raise CompileError(f"bounds need K0 < K1, got ({k0}, {k1})")
        if not isinstance(self.relax, (int, float)) or self.relax < 0:
            raise CompileError(f"relaxation must be a nonnegative number, got {self.relax!r}")
        # conditional monotonicity refines the plain monotone-instrument
        # condition, so the latter is always part of the compiled system
        if self.kinds & {KIND_CMIV_S, KIND_CMIV_P}:
            self.kinds = self.kinds | {KIND_MIV}


@dataclass
class CompiledProgram:
    lp: LpParams
    offset: float
    variable_labels: List[Tuple]
    valid_only: bool = False


def _block_program(table: ConditionalMomentTable, spec: AssumptionSpec, t) -> CompiledProgram:
    """Single-treatment program in counterfactual-mean blocks.

    Variables x = (x^N, ..., x^1): one block per instrument level, descending,
    each block holding E[Y(t) | T=d, Z=z_j] for d != t ascending. Monotonicity
    rows couple adjacent blocks; per-block identity rows carry the outcome
    bounds.
    """
    ti = table.t_index(t)
    if t not in table.observed:
        raise CompileError(f"target treatment {t!r} has no outcome data")
    if len(table.observed) != table.n_treatments:
        raise CompileError(
            "monotone-instrument compilation requires fully observed outcomes; "
            "only bounds-type restrictions support missing data"
        )
    nt, nz = table.n_treatments, table.n_instruments
    others = [i for i in range(nt) if i != ti]
    k = len(others)  # block width
    d_vars = k * nz
    tz = table.t_given_z()
    pz = table.z_prob()
    o = tz[ti] * table.mean[ti]  # o_j = P[T=t|z_j] E[Y|T=t,z_j]

    def col(j: int, pos: int) -> int:
        # block for z_j occupies positions (nz-1-j)*k ... in the descending layout
        return (nz - 1 - j) * k + pos

    labels = [None] * d_vars
    for j in range(nz):
        for pos, di in enumerate(others):
            labels[col(j, pos)] = (t, table.treatments[di], table.instruments[j])

    def group_rows(j: int):
        """(G_j, c_j) of the z_j block for the active assumption set."""
        if KIND_CMIV_S in spec.kinds:
            subsets = [
                s
                for r in range(1, nt + 1)
                for s in itertools.combinations(range(nt), r)
                if set(s) != {ti}
            ]
            G = np.zeros((len(subsets), k))
            cvec = np.zeros(len(subsets))
            for row, A in enumerate(subsets):
                pA = tz[list(A), j].sum()
                for pos, di in enumerate(others):
                    if di in A:
                        G[row, pos] = tz[di, j] / pA
                if ti in A:
                    cvec[row] = o[j] / pA
            return G, cvec
        if KIND_CMIV_P in spec.kinds:
            G = np.vstack([tz[others, j][None, :], np.eye(k)])
            cvec = np.concatenate([[o[j]], np.zeros(k)])
            return G, cvec
        # plain monotone instrument: one row per z level
        return tz[others, j][None, :], np.array([o[j]])

    M_rows: List[np.ndarray] = []
    c_vals: List[float] = []
    if KIND_MIV in spec.kinds:
        for j in range(1, nz):
            Gj, cj = group_rows(j)
            Gp, cp = group_rows(j - 1)
            for r in range(Gj.shape[0]):
                row = np.zeros(d_vars)
                for pos in range(k):
                    row[col(j, pos)] += Gj[r, pos]
                    row[col(j - 1, pos)] -= Gp[r, pos]
                M_rows.append(row)
                c_vals.append(cp[r] - cj[r] - spec.relax)
    if spec.bounds is not None:
        k0, k1 = spec.bounds
        for j in range(nz):
            for pos in range(k):
                up = np.zeros(d_vars)
                up[col(j, pos)] = -1.0
                M_rows.append(up)
                c_vals.append(-k1)
                lo = np.zeros(d_vars)
                lo[col(j, pos)] = 1.0
                M_rows.append(lo)
                c_vals.append(k0)
        lower_box = np.full(d_vars, k0)
        upper_box = np.full(d_vars, k1)
    else:
        lower_box = np.full(d_vars, -np.inf)
        upper_box = np.full(d_vars, np.inf)
    if not M_rows:
        M_rows.append(np.zeros(d_vars))
        c_vals.append(0.0)

    p = np.zeros(d_vars)
    for j in range(nz):
        for pos, di in enumerate(others):
            p[col(j, pos)] = pz[j] * tz[di, j]
    offset = float(np.sum(pz * o))
    lp = LpParams(p=p, M=np.array(M_rows), c=np.array(c_vals), box=(lower_box, upper_box))
    return CompiledProgram(lp=lp, offset=offset, variable_labels=labels, valid_only=False)


def _general_program(table: ConditionalMomentTable, spec: AssumptionSpec, t) -> CompiledProgram:
    """Full conditional-moment-vector program (supports MTR and missing data).

    The moment vector m has one coordinate per (treatment cell, instrument
    cell, potential-outcome leg): m[(a, z), d] = E[Y(d) | T=a, Z=z]. Almost
    sure restrictions are replicated across cells; instrument-monotonicity
    rows mix cells within adjacent z levels. Observed coordinates (d = a with
    outcome data) are substituted out.
    """
    ti = table.t_index(t)
    if t not in table.observed:
        raise CompileError(f"target treatment {t!r} has no outcome data")
    nt, nz = table.n_treatments, table.n_instruments
    tz = table.t_given_z()
    pz = table.z_prob()
    n_m = nt * nz * nt

    def midx(a: int, z: int, d: int) -> int:
        return (a * nz + z) * nt + d

    # almost-sure restrictions on the potential-outcome vector
    mt_rows = []
    mt_rhs = []
    if spec.bounds is not None:
        k0, k1 = spec.bounds
        for d in range(nt):
            e = np.zeros(nt)
            e[d] = 1.0
            mt_rows.append(e)
            mt_rhs.append(-k0)  # Y(d) - K0 >= 0
            mt_rows.append(-e)
            mt_rhs.append(k1)  # K1 - Y(d) >= 0
    if KIND_MTR in spec.kinds:
        for d in range(nt - 1):
            e = np.zeros(nt)
            e[d] = -1.0
            e[d + 1] = 1.0
            mt_rows.append(e)
            mt_rhs.append(spec.relax)  # Y(d+1) - Y(d) + relax >= 0

    rows = []
    rhs = []
    for a in range(nt):
        for z in range(nz):
            for r, row in enumerate(mt_rows):
                full = np.zeros(n_m)
                for d in range(nt):
                    full[midx(a, z, d)] = row[d]
                rows.append(full)
                rhs.append(mt_rhs[r])
    if KIND_MIV in spec.kinds:
        for d in range(nt):
            for z in range(nz - 1):
                full = np.zeros(n_m)
                for a in range(nt):
                    full[midx(a, z + 1, d)] += tz[a, z + 1]
                    full[midx(a, z, d)] -= tz[a, z]
                rows.append(full)
                rhs.append(spec.relax)  # E[Y(d)|z+1] - E[Y(d)|z] + relax >= 0

    observed_coords = {}
    for a, lab in enumerate(table.treatments):
        if lab in table.observed:
            for z in range(nz):
                observed_coords[midx(a, z, a)] = table.mean[a, z]
    free = [i for i in range(n_m) if i not in observed_coords]
    labels = []
    for i in free:
        a, rem = divmod(i, nz * nt)
        z, d = divmod(rem, nt)
        labels.append((table.treatments[d], table.treatments[a], table.instruments[z]))

    mu = np.zeros(n_m)
    for a in range(nt):
        for z in range(nz):
            mu[midx(a, z, ti)] = table.prob[a, z]

    A = np.array(rows) if rows else np.zeros((0, n_m))
    b = np.array(rhs) if rhs else np.zeros(0)
    # A m + b >= 0 with m = (free part) + (observed values)
    obs_contrib = np.zeros(n_m)
    for i, val in observed_coords.items():
        obs_contrib[i] = val
    M = A[:, free]
    c = -b - A @ obs_contrib
    p = mu[free]
    offset = float(mu @ obs_contrib)
    if spec.bounds is not None:
        box = (np.full(len(free), spec.bounds[0]), np.full(len(free), spec.bounds[1]))
    else:
        box = (np.full(len(free), -np.inf), np.full(len(free), np.inf))
    as_restrictions = bool(mt_rows)
    valid_only = as_restrictions and KIND_MIV in spec.kinds
    lp = LpParams(p=p, M=M, c=c, box=box)
    return CompiledProgram(lp=lp, offset=offset, variable_labels=labels, valid_only=valid_only)


def _single_target_program(table, spec, t) -> CompiledProgram:
    conditional = bool(spec.kinds & {KIND_CMIV_S, KIND_CMIV_P})
    missing = len(table.observed) != table.n_treatments
    if conditional and KIND_MTR in spec.kinds:
        raise CompileError(
            "conditional monotonicity combined with monotone treatment "
            "response is not supported"
        )
    if conditional and missing:
        raise CompileError("conditional monotonicity requires fully observed outcomes")
    if KIND_MTR in spec.kinds or missing:
        return _general_program(table, spec, t)
    return _block_program(table, spec, t)


def compile(table: ConditionalMomentTable, spec: AssumptionSpec) -> CompiledProgram:
    """LP whose direction-appropriate optimum plus offset is the target bound."""
    target = spec.target
    if isinstance(target, MeanPotential):
        return _single_target_program(table, spec, target.t)
    if isinstance(target, ATE):
        prog_t = _single_target_program(table, spec, target.t)
        prog_d = _single_target_program(table, spec, target.d)
        dt, dd = prog_t.lp.d, prog_d.lp.d
        p = np.concatenate([prog_t.lp.p, -prog_d.lp.p])
        M = np.block([
            [prog_t.lp.M, np.zeros((prog_t.lp.q, dd))],
            [np.zeros((prog_d.lp.q, dt)), prog_d.lp.M],
        ])
        c = np.concatenate([prog_t.lp.c, prog_d.lp.c])
        box = (
            np.concatenate([prog_t.lp.box[0], prog_d.lp.box[0]]),
            np.concatenate([prog_t.lp.box[1], prog_d.lp.box[1]]),
        )
        return CompiledProgram(
            lp=LpParams(p=p, M=M, c=c, box=box),
            offset=prog_t.offset - prog_d.offset,
            variable_labels=prog_t.variable_labels + prog_d.variable_labels,
            valid_only=prog_t.valid_only or prog_d.valid_only,
        )
    raise CompileError(f"unsupported target {target!r}")


def bound_value(program: CompiledProgram, direction: str):
    """(bound, status): the direction-appropriate optimum plus the offset."""
    if direction == "lower":
        sol = solve_lp(program.lp)
        value = sol.value
    elif direction == "upper":
        flipped = LpParams(-program.lp.p, program.lp.M, program.lp.c, program.lp.box)
        sol = solve_lp(flipped)
        value = -sol.value if sol.value is not None else None
    else:
        raise CompileError(f"direction must be lower/upper, got {direction!r}")
    if sol.status != OPTIMAL:
        return None, sol.status
    return value + program.offset, OPTIMAL


@dataclass
class RecursionBounds:
    lower: np.ndarray
    upper: np.ndarray
    lower_counterfactual: np.ndarray
    upper_counterfactual: np.ndarray
    aggregate_lower: float
    aggregate_upper: float


def cmivw_bounds(
    table: ConditionalMomentTable,
    t,
    K0: float,
    K1: float,
    kind: str = "cmiv_w",
) -> RecursionBounds:
    """Closed-form per-level bounds on E[Y(t) | Z = z_j] for binary treatment.

    kind "cmiv_w": the counterfactual ironing recursion under weak conditional
    monotonicity; kind "miv": plain running-max/min ironing of the
    no-assumption bounds. Aggregates weight levels by P[Z = z_j].
    """
    if table.n_treatments != 2:
        raise CompileError("the recursion is defined for binary treatment")
    if kind not in ("cmiv_w", "miv"):
        raise CompileError(f"kind must be 'cmiv_w' or 'miv', got {kind!r}")
    ti = table.t_index(t)
    if t not in table.observed:
        raise CompileError(f"target treatment {t!r} has no outcome data")
    nz = table.n_instruments
    tz = table.t_given_z()
    pz = table.z_prob()
    pt = tz[ti]
    o = pt * table.mean[ti]

    l = np.zeros(nz)
    lc = np.zeros(nz)
    u = np.zeros(nz)
    uc = np.zeros(nz)
    if kind == "cmiv_w":
        lc[0] = K0
        l[0] = o[0] + (1.0 - pt[0]) * K0
        for j in range(1, nz):
            lc[j] = max(lc[j - 1], (l[j - 1] - o[j]) / (1.0 - pt[j]))
            l[j] = o[j] + (1.0 - pt[j]) * lc[j]
        uc[nz - 1] = K1
        u[nz - 1] = o[nz - 1] + (1.0 - pt[nz - 1]) * K1
        for j in range(nz - 2, -1, -1):
            uc[j] = min(uc[j + 1], (u[j + 1] - o[j]) / (1.0 - pt[j]))
            u[j] = o[j] + (1.0 - pt[j]) * uc[j]
    else:
        run = -math.inf
        for j in range(nz):
            run = max(run, o[j] + (1.0 - pt[j]) * K0)
            l[j] = run
            lc[j] = (l[j] - o[j]) / (1.0 - pt[j])
        run = math.inf
        for j in range(nz - 1, -1, -1):
            run = min(run, o[j] + (1.0 - pt[j]) * K1)
            u[j] = run
            uc[j] = (u[j] - o[j]) / (1.0 - pt[j])
    return RecursionBounds(
        lower=l,
        upper=u,
        lower_counterfactual=lc,
        upper_counterfactual=uc,
        aggregate_lower=float(pz @ l),
        aggregate_upper=float(pz @ u),
    )


def ets_estimate(table: ConditionalMomentTable, t, d) -> float:
    """E[Y | T=t] - E[Y | T=d]: the exogenous-selection reference contrast."""

    def marginal(label):
        i = table.t_index(label)
        if label not in table.observed:
            raise TableError(f"treatment {label!r} has no outcome data")
        w = table.prob[i] / table.prob[i].sum()  # P[Z = z | T = label]
        return float(w @ table.mean[i])

    return marginal(t) - marginal(d)


def alpha_allocation(alpha: float, n_t: int) -> float:
    """Per-treatment level alpha_t with (1 - alpha_t)^n_t = 1 - alpha."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    if n_t < 1:
        raise ValueError(f"n_t must be at least 1, got {n_t}")
    return 1.0 - (1.0 - alpha) ** (1.0 / n_t)


def bootstrap_theta_covariance(
    records: Sequence[Tuple],
    spec: AssumptionSpec,
    B: int = 500,
    seed=0,
) -> np.ndarray:
    """Covariance of the compiled (p, vec M, c) under record resampling.

    Returns n * cov(theta-hat draws), the scale expected by the inference
    machinery (theta-hat ~ (theta, sigma / n)). Resamples that produce empty
    cells are redrawn (up to a cap) since the compiled dimensions must match.
    """
    rng = np.random.default_rng(seed)
    n = len(records)
    base = ingest_sample(records)
    draws = []
    attempts = 0
    while len(draws) < B:
        attempts += 1
        if attempts > 20 * B:
            raise TableError("bootstrap resampling keeps producing empty cells")
        idx = rng.integers(0, n, size=n)
        try:
            tab = ingest_sample([records[i] for i in idx])
        except TableError:
            continue
        if tab.treatments != base.treatments or tab.instruments != base.instruments:
            continue
        prog = compile(tab, spec)
        lp = prog.lp
        draws.append(np.concatenate([lp.p, lp.M.flatten(order="F"), lp.c]))
    theta = np.array(draws)
    return n * np.cov(theta.T, bias=False)
