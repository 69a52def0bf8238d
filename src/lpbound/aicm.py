"""Compile causal assumptions over conditional moments into LP parameters.

Microdata (Y, T, Z) is summarized into a table of cell means and
probabilities. Assumption sets (outcome bounds, monotone treatment response,
monotone-instrument conditions and their conditional refinements) are compiled
into (p, M, c) plus an identified offset so that

    bound on E[Y(t)] (or an ATE) = optimum of p'x over {Mx >= c} + offset,

where x collects the unobserved conditional means E[Y(d) | T=a, Z=z] that
the restrictions reach, the observed ones substituted out, and the outcome
bounds K0 <= x <= K1 are the box, not rows of M. Every assumption set
compiles through one layout (_general_program). A closed form recursion
evaluates the weak conditional-monotonicity bounds for binary treatment,
which doubles as an independent oracle for the compiled LPs.
"""
from __future__ import annotations

import collections.abc
import csv
import itertools
import math
from dataclasses import dataclass, replace
from typing import FrozenSet, List, Literal, Optional, Sequence, Tuple

import numpy as np

from .inference import (InferenceConfig, InferenceError, ThetaEstimate,
                        combine_two_sided, run_inference)
from .linalg import (DimensionError, LpParams, check_fields, solve_lp, stack_theta, INFEASIBLE,
                     OPTIMAL, TAU_FEAS)

_PROB_TOL = 1e-10

KIND_BOUNDS = "bounds"
KIND_MTR = "mtr"
KIND_MIV = "miv"
KIND_CMIV_S = "cmiv_s"
KIND_CMIV_P = "cmiv_p"


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
        if not (self.prob > 0.0).all():  # NaN > 0 is False
            t, z = np.unravel_index(int(np.argmin(self.prob)), self.prob.shape)
            raise TableError(
                f"cell (T={self.treatments[t]}, Z={self.instruments[z]}) has "
                f"probability {self.prob[t, z]}; full support is required"
            )
        if abs(self.prob.sum() - 1.0) > _PROB_TOL:
            raise TableError(f"cell probabilities sum to {self.prob.sum()!r}, not 1")
        self.observed = frozenset(self.observed)
        seen = np.array([t in self.observed for t in self.treatments], dtype=bool)
        wrong = np.flatnonzero(seen != np.isfinite(self.mean).all(axis=1))
        if wrong.size:
            i = wrong[0]
            state = "observed but has undefined" if seen[i] else "unobserved but has"
            raise TableError(f"treatment {self.treatments[i]} is {state} cell means")

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


def _coded(labels: list):
    """The sorted distinct labels, and each label's index into them."""
    seen = {}
    codes = np.array([seen.setdefault(label, len(seen)) for label in labels], dtype=np.intp)
    ordered = sorted(seen)
    rank = {label: i for i, label in enumerate(ordered)}
    remap = np.array([rank[label] for label in seen], dtype=np.intp)
    return ordered, remap[codes]


class Microdata(collections.abc.Sequence):
    """(y, t, z) records held as columns.

    y holds the outcomes as floats (0.0 where missing), `missing` marks the
    records without one, and t and z are integer codes into the sorted label
    lists t_labels and z_labels. Item i is the record (y or None, t, z);
    take(idx) is the resample of records idx, sharing the label lists, so a
    resample may leave some labels without records.
    """

    def __init__(self, y, missing, t, z, t_labels: List, z_labels: List):
        self.y, self.missing, self.t, self.z = y, missing, t, z
        self.t_labels, self.z_labels = t_labels, z_labels

    @classmethod
    def _of_lists(cls, y: list, missing: list, t: list, z: list) -> "Microdata":
        """Columns of floats y, flags missing and labels t and z."""
        (t_labels, t), (z_labels, z) = _coded(t), _coded(z)
        return cls(np.array(y, dtype=float), np.array(missing, dtype=bool), t, z, t_labels, z_labels)

    @classmethod
    def of(cls, records) -> "Microdata":
        """records as columns, in one pass over them: y is missing when it
        is None, "" or a float NaN, and any other y converts by float()."""
        if isinstance(records, cls):
            return records
        y, missing, t, z = [], [], [], []
        for r in records:
            v = r[0]
            gone = v in _MISSING or (isinstance(v, float) and math.isnan(v))
            missing.append(gone)
            y.append(0.0 if gone else float(v))
            t.append(r[1])
            z.append(r[2])
        return cls._of_lists(y, missing, t, z)

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, i) -> Tuple:
        return (None if self.missing[i] else float(self.y[i]),
                self.t_labels[self.t[i]], self.z_labels[self.z[i]])

    def take(self, idx) -> "Microdata":
        return Microdata(self.y[idx], self.missing[idx], self.t[idx], self.z[idx],
                         self.t_labels, self.z_labels)


def ingest_sample(records: Sequence[Tuple]) -> ConditionalMomentTable:
    """Empirical conditional moment table from (y, t, z) records, a
    Microdata or any sequence of tuples (converted by Microdata.of).

    y is None/NaN/"" for missing outcomes; within a treatment level the
    presence of y must be consistent. Every (t, z) cell of the labels that
    occur must be populated. The records are counted over the full grid of
    the data's labels; only when a cell of it is empty are the labels
    without records dropped, and the cells checked again.
    """
    data = Microdata.of(records)
    if not len(data):
        raise TableError("no records")
    treatments, instruments = data.t_labels, data.z_labels
    shape = (len(treatments), len(instruments))
    cell = data.t * shape[1] + data.z
    count = np.bincount(cell, minlength=shape[0] * shape[1]).reshape(shape)
    observed, missing = np.ones(shape[0], dtype=bool), data.missing
    if missing.any():
        present = np.bincount(data.t[~missing], minlength=shape[0])
        absent = np.bincount(data.t[missing], minlength=shape[0])
        mixed = np.flatnonzero((present > 0) & (absent > 0))
        if mixed.size:
            i = mixed[0]
            raise TableError(
                f"treatment {treatments[i]!r} has {present[i]} records with outcomes and "
                f"{absent[i]} without; outcome presence must be consistent"
            )
        observed = present > 0
    # bincount adds in record order, as a running sum over the records would
    total = np.bincount(cell, weights=data.y, minlength=count.size).reshape(shape)
    if not count.all():  # keep the labels that occur
        rows, cols = count.any(axis=1), count.any(axis=0)
        treatments = [t for t, keep in zip(treatments, rows) if keep]
        instruments = [z for z, keep in zip(instruments, cols) if keep]
        count, total, observed = count[rows][:, cols], total[rows][:, cols], observed[rows]
        empty = np.argwhere(count == 0)
        if empty.size:
            i, j = empty[0]
            raise TableError(
                f"empty cell (T={treatments[i]}, Z={instruments[j]}): "
                "every treatment-instrument cell needs observations"
            )
    mean = total / count
    mean[~observed] = np.nan
    return ConditionalMomentTable(list(treatments), list(instruments), mean, count / count.sum(),
                                  count, frozenset(itertools.compress(treatments, observed)))


def read_microdata_csv(path) -> Microdata:
    """Records from a CSV with header y,t,z, read in one pass over its rows.
    Each y is a finite number or empty, which denotes a missing outcome; a
    row that is not three fields, or whose y is neither, raises TableError
    naming its line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [f.strip() for f in header] != ["y", "t", "z"]:
            raise TableError(f"microdata CSV must have header 'y,t,z', got {header}")
        y, missing, t, z = [], [], [], []
        for row in reader:
            if not row:  # a blank line
                continue
            if len(row) != 3:
                raise TableError(f"microdata CSV line {reader.line_num}: expected 3 fields "
                                 f"y,t,z, got {len(row)}")
            field = row[0].strip()
            if field:
                try:
                    value = float(field)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise TableError(f"microdata CSV line {reader.line_num}: y must be a "
                                     f"finite number or empty, got {field!r}")
            else:
                value = 0.0
            y.append(value)
            missing.append(not field)
            t.append(row[1].strip())
            z.append(row[2].strip())
    return Microdata._of_lists(y, missing, t, z)


@dataclass
class MeanPotential:
    t: object


@dataclass
class ATE:
    t: object
    d: object


@dataclass
class AssumptionSpec:
    kinds: FrozenSet[Literal[KIND_BOUNDS, KIND_MTR, KIND_MIV, KIND_CMIV_S, KIND_CMIV_P]]
    bounds: Optional[Sequence[float]] = None  # (K0, K1), stored as a tuple of floats
    relax: float = 0.0  # slack subtracted from every monotonicity restriction
    target: object = None

    def __post_init__(self):
        check_fields(self, CompileError)
        self.kinds = frozenset(self.kinds)
        if self.bounds is not None:
            if len(self.bounds) != 2:
                raise CompileError(f"bounds must be two numbers, got {self.bounds}")
            self.bounds = tuple(map(float, self.bounds))
        if KIND_BOUNDS in self.kinds:
            if self.bounds is None:
                raise CompileError("bounds assumption requires (K0, K1)")
            k0, k1 = self.bounds
            if not (k0 < k1):
                raise CompileError(f"bounds need K0 < K1, got ({k0}, {k1})")
        if not self.relax >= 0:
            raise CompileError(f"relax must be a nonnegative number, got {self.relax!r}")
        # conditional monotonicity refines the plain monotone-instrument
        # condition, so the latter is always part of the compiled system
        if self.kinds & {KIND_CMIV_S, KIND_CMIV_P}:
            self.kinds = self.kinds | {KIND_MIV}


@dataclass
class CompiledProgram:
    lp: Optional[LpParams]  # None when no free variable is left: the data identify the target
    offset: float
    variable_labels: List[Tuple]
    valid_only: bool = False
    refuted: bool = False  # the data violate the bounds or an identified target's rows


def _general_program(table: ConditionalMomentTable, prob: np.ndarray, mean: np.ndarray,
                     spec: AssumptionSpec, ti: int):
    """The conditional-moment-vector program of E[Y(t)] for t the ti-th
    treatment over a stack of B cell tables: prob and mean are (B, nt, nz),
    draw k's P[T=a, Z=z] and E[Y | T=a, Z=z]. Returns (p, M, c, offsets,
    labels, valid_only) with p (B, d), M (B, q, d), c (B, q) and offsets
    (B,). The layout (free columns, labels, valid_only) comes from table and
    spec alone, so it is one for every draw that shares table's supports and
    observed treatments.

    The moment vector m has one coordinate per (treatment cell, instrument
    cell, potential-outcome leg): m[(a, z), d] = E[Y(d) | T=a, Z=z], at flat
    index (a*nz + z)*nt + d. Under MTR every leg is a variable, and the MTR
    rows Y(d+1) - Y(d) + relax >= 0 hold in every cell. Otherwise only the
    target's leg ti is: no row couples another leg to it, and its objective
    is zero. Under MIV, E[Y(d) | T in A, Z=z] rises with z on every leg d and
    monotone group A, one row per adjacent pair of instrument levels, ordered
    (leg, group, z) (Manski and Pepper, Econometrica 68, 2000). The groups
    are the full set, weighted by P[T=a | Z=z] itself, then under cmiv_s
    every proper subset A but {ti}, under cmiv_p each {a} but {ti}, weighted
    by P[T=a | T in A, Z=z]. Observed coordinates (d = a with outcome data)
    are substituted out; every row keeps a free entry. The outcome bounds
    are the box. valid_only marks the bounds as valid but not claimed sharp:
    MIV with MTR, or with missing outcomes and bounds. c is one gemv per
    draw, as numpy runs a stacked matmul, so draw k's (p, M, c, offset) are
    the bits of a stack of draw k alone.
    """
    nt, nz = table.n_treatments, table.n_instruments
    B = len(prob)
    tz = prob / prob.sum(axis=1, keepdims=True)  # P[T = a | Z = z] per draw
    cells = nt * nz

    # almost-sure restrictions R y + r >= 0 on y = (Y(0), ..., Y(nt-1)):
    # Y(d+1) - Y(d) + relax >= 0 under MTR
    mtr = nt - 1 if KIND_MTR in spec.kinds else 0
    R = (np.eye(nt, k=1) - np.eye(nt))[:mtr]
    # A m + b >= 0: R in the diagonal (cell, cell) block of every cell
    A = np.zeros((cells, mtr, cells, nt))
    A[np.arange(cells), :, np.arange(cells)] = R
    A = np.broadcast_to(A.reshape(cells * mtr, cells * nt), (B, cells * mtr, cells * nt))
    legs = np.arange(nt) if KIND_MTR in spec.kinds else np.array([ti])
    if KIND_MIV in spec.kinds:
        if KIND_CMIV_S in spec.kinds:
            subsets = [s for r in range(1, nt) for s in itertools.combinations(range(nt), r)
                       if s != (ti,)]
        else:
            subsets = [(a,) for a in range(nt) if a != ti and KIND_CMIV_P in spec.kinds]
        w = np.zeros((B, 1 + len(subsets), nt, nz))  # w[k, g, a, z], 0 off the group
        w[:, 0] = tz
        for j, s in enumerate(map(list, subsets), 1):
            w[:, j, s] = tz[:, s] / tz[:, s].sum(axis=1, keepdims=True)
        # row (leg d, group g, z): sum_a w[g, a, z+1] m[(a, z+1), d] - w[g, a, z] m[(a, z), d] + relax >= 0,
        # filled in place on zeros, as a negated zero weight would write -0.0
        miv = np.zeros((B, legs.size, w.shape[1], nz - 1, nt, nz, nt))
        leg = np.arange(legs.size)[:, None, None, None]
        g = np.arange(w.shape[1])[:, None, None]
        z = np.arange(nz - 1)[:, None]
        a = np.arange(nt)
        miv[:, leg, g, z, a, z + 1, legs[leg]] += w[:, None, g, a, z + 1]
        miv[:, leg, g, z, a, z, legs[leg]] -= w[:, None, g, a, z]
        A = np.concatenate([A, miv.reshape(B, -1, cells * nt)], axis=1)
    b = np.full(A.shape[1], spec.relax)

    seen = [a for a, label in enumerate(table.treatments) if label in table.observed]
    is_free = np.zeros((nt, nz, nt), dtype=bool)
    is_free[:, :, legs] = True
    is_free[seen, :, seen] = False
    free = np.flatnonzero(is_free)
    a_seen, z_all = np.array(seen, dtype=np.intp)[:, None], np.arange(nz)
    values = np.zeros((B, nt, nz, nt))
    values[:, a_seen, z_all, a_seen] = mean[:, a_seen, z_all]
    mu = np.zeros((B, nt, nz, nt))
    mu[..., ti] = prob
    values, mu = values.reshape(B, -1), mu.reshape(B, -1)
    labels = [(table.treatments[d], table.treatments[a], table.instruments[z])
              for a, z, d in zip(*np.unravel_index(free, (nt, nz, nt)))]
    valid_only = KIND_MIV in spec.kinds and (mtr > 0 or (len(seen) < nt and spec.bounds is not None))
    c = -b - (A @ values[..., None])[..., 0]
    offsets = (mu[:, None, :] @ values[..., None])[:, 0, 0]
    return mu[:, free], A[:, :, free], c, offsets, labels, valid_only


def _single_target_program(table, prob, mean, spec, t):
    """_general_program's stacked program of E[Y(t)], with refuted per draw."""
    conditional = bool(spec.kinds & {KIND_CMIV_S, KIND_CMIV_P})
    missing = len(table.observed) != table.n_treatments
    if conditional and KIND_MTR in spec.kinds:
        raise CompileError("conditional monotonicity combined with monotone treatment "
                           "response is not supported")
    if conditional and missing:
        raise CompileError("conditional monotonicity requires fully observed outcomes")
    ti = table.t_index(t)
    if t not in table.observed:
        raise CompileError(f"target treatment {t!r} has no outcome data")
    p, M, c, offsets, labels, valid_only = _general_program(table, prob, mean, spec, ti)
    k0, k1 = spec.bounds or (-np.inf, np.inf)
    # an observed cell mean outside the bounds refutes them (NaN compares False),
    # and so does a row of an identified target's program that 0 >= c fails
    refuted = np.any((k0 - mean > TAU_FEAS) | (mean - k1 > TAU_FEAS), axis=(1, 2))
    if not p.shape[1]:
        refuted |= np.any(c > TAU_FEAS, axis=1)
    return p, M, c, offsets, labels, valid_only, refuted


def _compile_stack(tables: Sequence[ConditionalMomentTable], spec: AssumptionSpec):
    """compile over B tables that share the supports and observed treatments
    of tables[0]: (p, M, c, offsets, labels, valid_only, refuted) with p
    (B, d), M (B, q, d), c (B, q), offsets and refuted (B,). An ATE fills
    the two targets' M blocks into zeros."""
    table = tables[0]
    prob = np.stack([tab.prob for tab in tables])
    mean = np.stack([tab.mean for tab in tables])
    target = spec.target
    if isinstance(target, MeanPotential):
        return _single_target_program(table, prob, mean, spec, target.t)
    if not isinstance(target, ATE):
        raise CompileError(f"unsupported target {target!r}")
    p_t, M_t, c_t, off_t, labels_t, valid_t, refuted_t = \
        _single_target_program(table, prob, mean, spec, target.t)
    p_d, M_d, c_d, off_d, labels_d, valid_d, refuted_d = \
        _single_target_program(table, prob, mean, spec, target.d)
    (B, q_t, d_t), (q_d, d_d) = M_t.shape, M_d.shape[1:]
    M = np.zeros((B, q_t + q_d, d_t + d_d))
    M[:, :q_t, :d_t] = M_t
    M[:, q_t:, d_t:] = M_d
    return (np.concatenate([p_t, -p_d], axis=1), M, np.concatenate([c_t, c_d], axis=1),
            off_t - off_d, labels_t + labels_d, valid_t or valid_d, refuted_t | refuted_d)


def compile(table: ConditionalMomentTable, spec: AssumptionSpec) -> CompiledProgram:
    """LP whose direction-appropriate optimum plus offset is the target bound.

    Each target treatment's program is _general_program's; an ATE stacks
    the two. The outcome bounds are the box. This is _compile_stack over
    the one table: the rows of M depend only on the supports, observed
    treatments and kinds, alike for every _resample of one sample, so the
    bootstrap compiles its draws in one stacked call and each CI fold by
    compile. An observed cell mean outside the bounds by more than TAU_FEAS
    refutes them: the program is compiled all the same, with `refuted` set,
    and bound_value reports it infeasible."""
    p, M, c, offsets, labels, valid_only, refuted = _compile_stack([table], spec)
    d = p.shape[1]
    k0, k1 = spec.bounds or (-np.inf, np.inf)
    lp = LpParams(p=p[0], M=M[0], c=c[0], box=(np.full(d, k0), np.full(d, k1))) if d else None
    return CompiledProgram(lp, float(offsets[0]), labels, valid_only, bool(refuted[0]))


def bound_value(program: CompiledProgram, direction: str):
    """(bound, status): the direction-appropriate optimum plus the offset;
    without a solve, (None, "infeasible") when the data refute the bounds
    and (offset, "optimal") when they identify the target."""
    if direction not in ("lower", "upper"):
        raise CompileError(f"direction must be lower/upper, got {direction!r}")
    if program.refuted:
        return None, INFEASIBLE
    if program.lp is None:
        return program.offset, OPTIMAL
    flip = -1.0 if direction == "upper" else 1.0  # the upper bound is -min(-p'x)
    sol = solve_lp(replace(program.lp, p=flip * program.lp.p))
    if sol.status != OPTIMAL:
        return None, sol.status
    return flip * sol.value + program.offset, OPTIMAL


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


def _resample(data: Microdata, idx, base: ConditionalMomentTable) -> ConditionalMomentTable:
    """The table of records idx of data. A resample with an empty cell (as
    ingest_sample raises), or with other treatments or instruments than the
    full-sample table base, raises TableError; every other resample compiles
    to the rows of base."""
    table = ingest_sample(data.take(idx))
    if table.treatments != base.treatments or table.instruments != base.instruments:
        raise TableError(f"resample levels {table.treatments} x {table.instruments}, "
                         f"not the sample's {base.treatments} x {base.instruments}")
    return table


def _theta_stack(tables: Sequence[ConditionalMomentTable], spec: AssumptionSpec) -> np.ndarray:
    """(B, S) rows (p, vec M column-major, c) of the tables' programs, bitwise
    as compile(table, spec).lp.theta() gives each; a program with no free
    variable or a non-finite entry raises DimensionError, as its LpParams
    would. The stacked M is freed on return, before the covariance."""
    p, M, c = _compile_stack(tables, spec)[:3]
    if not p.shape[1]:
        raise DimensionError("M must have at least one column")
    theta = stack_theta(p, M, c)
    if not np.isfinite(theta).all():
        raise DimensionError("p, M, c entries must be finite")
    return theta


def bootstrap_theta_covariance(
    records: Sequence[Tuple],
    spec: AssumptionSpec,
    B: int = 500,
    seed=0,
) -> np.ndarray:
    """Covariance of the compiled (p, vec M, c) under record resampling.

    Returns n * cov(theta-hat draws), the scale expected by the inference
    machinery (theta-hat ~ (theta, sigma / n)). Resamples that _resample
    rejects are redrawn (up to a cap), since the compiled dimensions must
    match; a resample that refutes the outcome bounds counts like any other.
    The B kept tables share the sample's layout, so they compile in one
    stacked call (_theta_stack), bitwise as compile gives each draw.
    """
    rng = np.random.default_rng(seed)
    data = Microdata.of(records)
    n = len(data)
    base = ingest_sample(data)
    tables = []
    for _ in range(20 * B):
        try:
            tables.append(_resample(data, rng.integers(0, n, size=n), base))
        except TableError:
            continue
        if len(tables) == B:
            break
    else:
        raise TableError("bootstrap resampling keeps losing a cell or a level")
    return n * np.cov(_theta_stack(tables, spec).T, bias=False)


def bound_interval(data: Sequence[Tuple], spec: AssumptionSpec, base: ConditionalMomentTable,
                   cfg: InferenceConfig, B: int, seed):
    """(two-sided interval, lower InferenceResult, upper InferenceResult) of
    the bounds. Both directions share the bootstrap sigma; a fold compiles its
    _resample table, or raises InferenceError. The upper bound runs on -p, as
    bound_value solves it, and maps back by the sign and fold 2's offset."""
    data = Microdata.of(data)
    sigma = bootstrap_theta_covariance(data, spec, B=B, seed=seed)
    results = []
    for flip in (1.0, -1.0):
        offsets = []  # the compiled offset of each fold, fold 2's last

        def estimator(idx: np.ndarray) -> ThetaEstimate:
            try:
                prog = compile(_resample(data, idx, base), spec)
            except TableError as exc:
                raise InferenceError(f"fold produced an invalid table: {exc}")
            offsets.append(prog.offset)
            return ThetaEstimate(params=replace(prog.lp, p=flip * prog.lp.p), sigma=sigma)

        res = run_inference(len(data), estimator, cfg, seed)
        results.append(replace(res, estimate=flip * res.estimate + offsets[-1]))
    lower, upper = results
    return combine_two_sided(lower, upper), lower, upper
