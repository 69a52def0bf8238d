"""Output checks, run after the timed body and never inside it.

Every command output is checked against an independent computation:
HiGHS (through scipy, imported only here) for the LP values of lp_scale,
the closed-form binary-treatment recursion for the aicm bounds, and for the
Monte Carlo CSVs their shape plus a reference output recorded from this
code. Values must agree within the program's own value tolerance
TAU_VAL * (1 + |v|).
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.optimize import linprog

from lpbound.aicm import cmivw_bounds, ingest_sample, read_microdata_csv
from lpbound.linalg import TAU_VAL
from lpbound.montecarlo import SimulationReport

import workloads

_FLOAT_COLUMNS = ("mean", "bias", "std", "rmse", "coverage", "mean_lcb")


class Mismatch(Exception):
    """An output that disagrees with its oracle or is malformed."""


def _expect_close(what: str, value: float, reference: float) -> None:
    if abs(value - reference) > TAU_VAL * (1.0 + abs(reference)):
        raise Mismatch(f"{what}: program {value!r}, oracle {reference!r}")


# -- Monte Carlo CSVs -----------------------------------------------------------


def _csv_rows(text: str) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != SimulationReport.CSV_COLUMNS:
        raise Mismatch(f"CSV header {rows[0] if rows else None} != {SimulationReport.CSV_COLUMNS}")
    return [dict(zip(rows[0], r)) for r in rows[1:]]


def check_simulate(workload: str, cmd: dict, text: str) -> int:
    """Failed replications in one simulate CSV: one finite row per
    (estimator, n), whose `failures` column counts failed draws."""
    rows = _csv_rows(text)
    estimators = workloads.ESTIMATORS if workload == "mc_consistency" else ("debiased_ci",)
    keys = [(r["estimator"], r["n"]) for r in rows]
    expected = [(e, str(n)) for n in cmd["sizes"] for e in estimators]
    if keys != expected:
        raise Mismatch(f"CSV rows {keys} != {expected}")
    columns = _FLOAT_COLUMNS if workload == "mc_coverage" else _FLOAT_COLUMNS[:4]
    for r in rows:
        for col in columns:
            if not math.isfinite(float(r[col] or "nan")):
                raise Mismatch(f"{r['estimator']} n={r['n']}: {col} is {r[col]!r}")
    return min(cmd["items"], sum(int(r["failures"]) for r in rows))


def check_reference(text: str, expected_text: str) -> None:
    """The reference command's CSV against the one recorded from this code."""
    got, want = _csv_rows(text), _csv_rows(expected_text)
    if len(got) != len(want):
        raise Mismatch(f"reference CSV has {len(got)} rows, expected {len(want)}")
    for g, w in zip(got, want):
        for col in SimulationReport.CSV_COLUMNS:
            if col in _FLOAT_COLUMNS and g[col] and w[col]:
                _expect_close(f"reference {w['estimator']} n={w['n']} {col}",
                              float(g[col]), float(w[col]))
            elif g[col] != w[col]:
                raise Mismatch(f"reference {w['estimator']} n={w['n']} {col}: "
                               f"{g[col]!r} != {w[col]!r}")


# -- lp_scale -------------------------------------------------------------------


def highs_value(p, M, c, lower, upper) -> float:
    """min p'x s.t. Mx >= c, lower <= x <= upper, solved by HiGHS."""
    res = linprog(p, A_ub=-M, b_ub=-c, bounds=list(zip(lower, upper)), method="highs")
    if res.status != 0:
        raise Mismatch(f"HiGHS status {res.status}: {res.message}")
    return float(res.fun)


def check_estimate(cmd: dict, text: str, lps: dict) -> int:
    """Plug-in, set-expansion and penalty values against HiGHS, and the
    debiased vertex's penalized objective against the penalty value."""
    doc = json.loads(text)
    if cmd["lp"] not in lps:
        with open(cmd["lp"]) as fh:
            lp = json.load(fh)
        lps[cmd["lp"]] = {k: np.asarray(lp[k], dtype=float) for k in ("p", "M", "c")} | {
            "lower": np.asarray(lp["box"]["lower"]), "upper": np.asarray(lp["box"]["upper"])}
    lp = lps[cmd["lp"]]
    p, M, c, lower, upper = lp["p"], lp["M"], lp["c"], lp["lower"], lp["upper"]
    est = doc["estimators"]
    for name in workloads.ESTIMATORS:
        if est[name]["status"] != "optimal":
            raise Mismatch(f"{name} status {est[name]['status']}")
    _expect_close("plugin", est["plugin"]["value"], highs_value(p, M, c, lower, upper))
    eps = math.sqrt(doc["kappa_n"] / cmd["n"])
    _expect_close("setexp", est["setexp"]["value"], highs_value(p, M, c - eps, lower, upper))
    w = np.asarray(doc["penalty_vector"])
    q = M.shape[0]
    penalty = highs_value(
        np.concatenate([p, w]), np.hstack([M, np.eye(q)]), c,
        np.concatenate([lower, np.zeros(q)]), np.concatenate([upper, np.full(q, np.inf)]))
    _expect_close("penalty", est["penalty"]["value"], penalty)
    x = np.asarray(est["debiased"]["vertex"])
    penalized = float(p @ x + w @ np.clip(c - M @ x, 0.0, None))
    _expect_close("debiased penalized objective", penalized, est["penalty"]["value"])
    return 0


# -- aicm_ci --------------------------------------------------------------------


def recursion_ate_bounds(path: str, bounds) -> tuple:
    """ATE 1 - 0 bounds from the per-arm cmivw_bounds recursion."""
    table = ingest_sample(read_microdata_csv(path))
    rt = cmivw_bounds(table, "1", *bounds)
    rd = cmivw_bounds(table, "0", *bounds)
    return rt.aggregate_lower - rd.aggregate_upper, rt.aggregate_upper - rd.aggregate_lower


def check_aicm(cmd: dict, text: str, oracle: dict) -> int:
    doc = json.loads(text)
    for direction, status in doc["statuses"].items():
        if status != "optimal":
            raise Mismatch(f"{direction} bound status {status}")
    if cmd["data"] not in oracle:
        oracle[cmd["data"]] = recursion_ate_bounds(cmd["data"], workloads.AICM_BOUNDS)
    lower, upper = oracle[cmd["data"]]
    _expect_close("aicm lower bound", doc["bounds"]["lower"], lower)
    _expect_close("aicm upper bound", doc["bounds"]["upper"], upper)
    for side in ("lower", "upper"):
        if not math.isfinite(doc["ci"][side]):
            raise Mismatch(f"ci {side} is {doc['ci'][side]!r}")
    return 0


# -- one run --------------------------------------------------------------------


def check_outputs(workload: str, outcomes: list) -> dict:
    """Check (command, runs) pairs, `runs` being every run of the command.

    Each command counts once, however often it ran, so that a seed always
    gives the same counts: the program is deterministic, and a run whose
    exit code or output differs from the command's first run is wrong. A
    command fails all of its items when it exits nonzero, raises, or
    produces an output that fails its check; only the last kind also counts
    as wrong. A simulate CSV's `failures` column counts failed replications.
    `failed_items` lists each command's failed items, in order."""
    cache: dict = {}
    tally = {"attempted": 0, "failed": 0, "wrong": 0, "problems": [], "failed_items": []}
    for cmd, runs in outcomes:
        run = runs[0]
        failed = wrong = 0
        try:
            if any((r["rc"], r["out"]) != (run["rc"], run["out"]) for r in runs[1:]):
                raise Mismatch(f"output differs between the {len(runs)} runs of one input")
            if run["rc"] != 0:
                failed = cmd["items"]
                tally["problems"].append(
                    f"{' '.join(cmd['argv'])}: exit code {run['rc']}: {run['err'].strip()[-400:]}")
            elif workload == "lp_scale":
                failed = check_estimate(cmd, run["out"], cache)
            elif workload == "aicm_ci":
                failed = check_aicm(cmd, run["out"], cache)
            else:
                failed = check_simulate(workload, cmd, run["out"])
                if "expected" in cmd:
                    with open(cmd["expected"]) as fh:
                        check_reference(run["out"], fh.read())
        except (Mismatch, KeyError, TypeError, ValueError) as exc:
            failed = wrong = cmd["items"]
            tally["problems"].append(f"{' '.join(cmd['argv'])}: {type(exc).__name__}: {exc}")
        tally["attempted"] += cmd["items"]
        tally["failed"] += failed
        tally["wrong"] += wrong
        tally["failed_items"].append(failed)
    return tally
