"""Command-line interface: estimate, infer, simulate, and aicm commands.

Configuration documents and LP files are JSON; bulk numeric output is CSV.
All parsing is fail-closed: unknown keys are rejected, and so are keys the
selected study or mode never reads. Only the commands that draw random
numbers (infer, simulate, aicm) take --seed, for bit-reproducible output.
Exit codes: 0 success (solver statuses are data), 1 computational fault
that blocks output, 2 usage or validation fault. Faults print a
machine-readable error object.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from typing import List, Optional, Tuple

import numpy as np

from .aicm import (
    ATE,
    AssumptionSpec,
    CompileError,
    MeanPotential,
    TableError,
    bootstrap_theta_covariance,
    bound_value,
    compile as compile_program,
    ets_estimate,
    ingest_sample,
    read_microdata_csv,
)
from .estimators import (
    PenaltyConfig,
    PenaltyError,
    debiased_estimate,
    default_kappa_n,
    penalty_rows,
    penalty_value,
    plug_in_value,
    set_expansion_value,
)
from .geometry import delta_condition
from .inference import (
    InferenceConfig,
    InferenceError,
    InferenceResult,
    ThetaEstimate,
    combine_two_sided,
    run_inference,
)
from .linalg import OPTIMAL, DimensionError, LpParams, inverse_vectorize
from .linalg import solve_lp  # noqa: F401  perfbench's tracer test expects this binding
from .montecarlo import (
    ESTIMATORS,
    ScenarioError,
    SimulationScenario,
    _example_b_estimator,
    run_consistency,
    run_inference_study,
    run_uniform_grid,
)

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Fault carrying a machine-readable code and an exit status."""

    def __init__(self, code: str, message: str, exit_code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code


# -- canonical JSON -----------------------------------------------------------


def _canon_fragment(obj) -> str:
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x != x:
            return "NaN"
        if x == float("inf"):
            return "Infinity"
        if x == float("-inf"):
            return "-Infinity"
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(json.dumps(str(k)) + ":" + _canon_fragment(v) for k, v in items) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        return "[" + ",".join(_canon_fragment(v) for v in seq) + "]"
    raise CliError("serialization_error", f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    return _canon_fragment(obj) + "\n"


# -- document parsing ---------------------------------------------------------


def _check_keys(doc: dict, allowed: set, where: str) -> None:
    if not isinstance(doc, dict):
        raise CliError("invalid_document", f"{where} must be a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise CliError("unknown_key", f"unknown keys in {where}: {sorted(unknown)}")


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise CliError("missing_key", f"{where} requires key {key!r}")
    return doc[key]


def _as_float_array(value, shape_hint: str, ndim: int) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise CliError("invalid_value", f"{shape_hint} must be numeric")
    if arr.ndim != ndim:
        raise CliError("dimension_mismatch", f"{shape_hint} must be {ndim}-dimensional")
    return arr


def parse_lp_document(doc: dict) -> Tuple[LpParams, Optional[List[str]]]:
    _check_keys(doc, {"p", "M", "c", "box", "labels"}, "LP document")
    p = _as_float_array(_require(doc, "p", "LP document"), "p", 1)
    M = _as_float_array(_require(doc, "M", "LP document"), "M", 2)
    c = _as_float_array(_require(doc, "c", "LP document"), "c", 1)
    box_doc = _require(doc, "box", "LP document")
    _check_keys(box_doc, {"lower", "upper"}, "box")
    lower = _as_float_array(_require(box_doc, "lower", "box"), "box.lower", 1)
    upper = _as_float_array(_require(box_doc, "upper", "box"), "box.upper", 1)
    labels = doc.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or not all(isinstance(s, str) for s in labels)
    ):
        raise CliError("invalid_value", "labels must be a list of strings")
    try:
        params = LpParams(p=p, M=M, c=c, box=(lower, upper))
    except DimensionError as exc:
        raise CliError("dimension_mismatch", str(exc))
    if labels is not None and len(labels) != params.d:
        raise CliError("dimension_mismatch", f"{len(labels)} labels for {params.d} variables")
    return params, labels


def lp_to_document(params: LpParams, labels: Optional[List[str]] = None) -> dict:
    doc = {
        "p": params.p.tolist(),
        "M": params.M.tolist(),
        "c": params.c.tolist(),
        "box": {"lower": params.box[0].tolist(), "upper": params.box[1].tolist()},
    }
    if labels is not None:
        doc["labels"] = list(labels)
    return doc


def _load_json(path: str, where: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError("io_error", f"cannot read {where} {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError("invalid_json", f"{where} {path}: {exc}")


def load_lp_file(path: str) -> Tuple[LpParams, Optional[List[str]]]:
    return parse_lp_document(_load_json(path, "LP file"))


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError("io_error", f"cannot write {out}: {exc}")


def _seed(config: dict, args) -> int:
    """--seed when given, else the config's seed (default 0)."""
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise CliError("validation_error", f"seed must be a nonnegative integer, got {seed!r}")
    return seed


def _at_least_2(value, name: str) -> int:
    """value, when it is an integer >= 2 (a sample size or a draw count)."""
    if not isinstance(value, int) or value < 2:
        raise CliError("validation_error", f"{name} must be an integer >= 2")
    return value


def _config(cls, doc: dict, where: str, **given):
    """cls built from the config keys in doc plus the values the command
    fixes itself; the dataclass holds every default and range check."""
    _check_keys(doc, {f.name for f in fields(cls)} - set(given), where)
    if "penalty" in doc:
        doc = dict(doc, penalty=_config(PenaltyConfig, doc["penalty"], "penalty"))
    try:
        return cls(**doc, **given)
    except (TypeError, ValueError) as exc:
        raise CliError("validation_error", str(exc))


def _solution_fields(sol) -> dict:
    out = {"status": sol.status, "value": None if sol.value is None else float(sol.value)}
    if sol.vertex is not None:
        out["vertex"] = sol.vertex.tolist()
    return out


# -- estimate -----------------------------------------------------------------

_ESTIMATE_KEYS = {"lp", "estimators", "n", "penalty", "kappa_n", "kappa0"}


def cmd_estimate(config: dict, args) -> int:
    _check_keys(config, _ESTIMATE_KEYS, "estimate config")
    pcfg = _config(PenaltyConfig, config.get("penalty", {}), "penalty")
    params, labels = load_lp_file(_require(config, "lp", "estimate config"))
    names = config.get("estimators", list(ESTIMATORS))
    unknown = set(names) - set(ESTIMATORS)
    if unknown:
        raise CliError("validation_error", f"unknown estimators: {sorted(unknown)}")
    n = config.get("n")
    if n is not None and (not isinstance(n, int) or n < 1):
        raise CliError("validation_error", "n must be a positive integer")
    for key in ("kappa_n", "kappa0"):
        if key in config and not isinstance(config[key], (int, float)):
            raise CliError("validation_error", f"{key} must be a number")
    result = {"estimators": {}}

    try:
        if "plugin" in names:
            result["estimators"]["plugin"] = _solution_fields(plug_in_value(params))
        if "penalty" in names or "debiased" in names:
            w = pcfg.resolve_w(params, n)
            result["penalty_vector"] = penalty_rows(w, params.q).tolist()
        if "penalty" in names:
            result["estimators"]["penalty"] = {
                "status": OPTIMAL,
                "value": penalty_value(params, w),
            }
        if "debiased" in names:
            deb = debiased_estimate(params, w)
            result["estimators"]["debiased"] = {
                "status": OPTIMAL,
                "value": deb.value,
                "vertex": deb.vertex.tolist(),
                "binding": deb.binding.tolist(),
                "penalty_residual": deb.penalty_residual,
            }
        if "setexp" in names:
            kappa_n = config.get("kappa_n")
            if kappa_n is None:
                if n is None:
                    raise PenaltyError("set expansion needs kappa_n or a sample size n")
                kappa_n = default_kappa_n(n, config.get("kappa0", 0.1))
            if n is None:
                raise PenaltyError("set expansion needs the sample size n")
            sol = set_expansion_value(params, float(kappa_n), n)
            result["estimators"]["setexp"] = _solution_fields(sol)
            result["kappa_n"] = float(kappa_n)
    except PenaltyError as exc:
        raise CliError("validation_error", str(exc))

    if args.diagnostics:
        report = delta_condition(params)
        result["diagnostics"] = {
            "delta": report.delta,
            "lp_value": report.value,
            "n_optimal_bases": len(report.j_star_sets),
        }
    if labels is not None:
        result["labels"] = labels
    _write_output(canonical_dumps(result), args.out)
    return EXIT_OK


# -- infer --------------------------------------------------------------------

def _row_estimator(rows: np.ndarray, template: LpParams):
    """Fold estimator for i.i.d. draws of the stacked parameter vector:
    theta-hat is the column mean and sigma the per-observation covariance."""
    d, q = template.d, template.q

    def estimate(idx: np.ndarray) -> ThetaEstimate:
        sub = rows[idx]
        theta = sub.mean(axis=0)
        p = theta[:d]
        M = inverse_vectorize(theta[d : d + q * d], q, d)
        c = theta[d + q * d :]
        sigma = np.cov(sub.T) if len(sub) > 1 else np.zeros((sub.shape[1],) * 2)
        return ThetaEstimate(
            params=LpParams(p=p, M=M, c=c, box=template.box), sigma=np.atleast_2d(sigma)
        )

    return estimate


def _infer_rows(config: dict, n: Optional[int], seed: int) -> Tuple[np.ndarray, LpParams]:
    """Gaussian draws of theta when n is given, else the rows of the data CSV."""
    params, _ = load_lp_file(_require(config, "lp", "infer config"))
    if n is not None:
        theta = np.concatenate([params.p, params.M.flatten(order="F"), params.c])
        sigma = _as_float_array(_require(config, "sigma", "infer config"), "sigma", 2)
        if sigma.shape != (theta.size, theta.size):
            raise CliError(
                "dimension_mismatch",
                f"sigma must be {theta.size}x{theta.size}, got {sigma.shape}",
            )
        rng = np.random.default_rng(seed)
        rows = rng.multivariate_normal(theta, sigma, size=n, method="svd")
        return rows, params
    path = _require(config, "data", "infer config")
    try:
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CliError("io_error", f"cannot read data CSV {path}: {exc}")
    S = params.d + params.q * params.d + params.q
    if rows.shape[1] != S:
        raise CliError(
            "dimension_mismatch", f"data rows have {rows.shape[1]} columns, need {S}"
        )
    return rows, params


# mode -> the keys it reads besides mode, seed and the InferenceConfig fields
_INFER_MODES = {"example_b": {"n", "b"}, "gaussian": {"lp", "sigma", "n"}, "csv": {"lp", "data"}}


def _inference_result_doc(res: InferenceResult) -> dict:
    return {
        "estimate": res.estimate,
        "se": res.se,
        "ci_lower_onesided": res.ci_lower_onesided,
        "ci_upper_onesided": res.ci_upper_onesided,
        "ci_twosided": list(res.ci_twosided),
        "triplet": {
            "A": res.triplet.A.tolist(),
            "x": res.triplet.x.tolist(),
            "v": res.triplet.v.tolist(),
        },
        "n1": res.n1,
        "n2": res.n2,
        "degenerate_variance": res.degenerate_variance,
    }


def cmd_infer(config: dict, args) -> int:
    mode = config.get("mode", "csv")
    if not isinstance(mode, str) or mode not in _INFER_MODES:
        raise CliError("validation_error", f"unknown infer mode {mode!r}")
    own = _INFER_MODES[mode] | {"mode", "seed"}
    doc = {k: v for k, v in config.items() if k not in own}
    cfg = _config(InferenceConfig, doc, "infer config")
    seed = _seed(config, args)
    n = None if mode == "csv" else _at_least_2(_require(config, "n", "infer config"), "n")
    if mode == "example_b":
        b = config.get("b", 0.0)
        if not isinstance(b, (int, float)):
            raise CliError("validation_error", "b must be a number")
        U = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(n, 3))
        estimator = _example_b_estimator(U, b)
    else:
        rows, template = _infer_rows(config, n, seed)
        estimator = _row_estimator(rows, template)
        n = rows.shape[0]
    try:
        res = run_inference(n, estimator, cfg, seed)
    except (InferenceError, PenaltyError) as exc:
        raise CliError("inference_failed", str(exc), exit_code=EXIT_COMPUTE)
    _write_output(canonical_dumps(_inference_result_doc(res)), args.out)
    return EXIT_OK


# -- simulate -----------------------------------------------------------------

# study -> (runner, the keys it reads besides those every study reads)
_STUDIES = {
    "consistency": (run_consistency, {"b", "estimators", "kappa0", "penalty"}),
    "inference": (run_inference_study, {"b", "alpha", "penalty"}),
    "uniform_grid": (run_uniform_grid, {"slater", "grid"}),
}


def cmd_simulate(config: dict, args) -> int:
    study = config.get("study", "consistency")
    if not isinstance(study, str) or study not in _STUDIES:
        raise CliError("validation_error", f"unknown study {study!r}")
    run, keys = _STUDIES[study]
    common = {"study", "dgp", "seed", "sample_sizes", "replications"}
    _check_keys(config, keys | common, "simulate config")
    _require(config, "dgp", "simulate config")
    seed = _seed(config, args)
    doc = {k: v for k, v in config.items() if k not in ("study", "seed")}
    scenario = _config(SimulationScenario, doc, "simulate config", seed=seed)
    try:
        text = run(scenario).to_csv()
    except ScenarioError as exc:
        raise CliError("validation_error", str(exc))
    _write_output(text, args.out)
    return EXIT_OK


# -- aicm ---------------------------------------------------------------------

_AICM_KEYS = {"data", "assumptions", "target", "ci", "seed"}
_ASSUMPTION_KEYS = {"kinds", "bounds", "relax"}
_TARGET_KEYS = {"type", "t", "d"}
_CI_KEYS = {"alpha", "bootstrap_reps", "gamma"}


def _parse_target(doc: dict):
    _check_keys(doc, _TARGET_KEYS, "target")
    kind = _require(doc, "type", "target")
    if kind == "mean":
        return MeanPotential(t=str(_require(doc, "t", "target")))
    if kind == "ate":
        return ATE(t=str(_require(doc, "t", "target")), d=str(_require(doc, "d", "target")))
    raise CliError("validation_error", f"target type must be 'mean' or 'ate', got {kind!r}")


def _aicm_inference(records, base_spec, direction: str, cfg: InferenceConfig,
                    sigma: np.ndarray, seed) -> InferenceResult:
    """Split-sample CI for one direction of the compiled program's value."""
    flip = -1.0 if direction == "upper" else 1.0
    offset = 0.0  # the compiled offset, set by the estimator on each fold

    def estimator(idx: np.ndarray) -> ThetaEstimate:
        nonlocal offset
        try:
            table = ingest_sample([records[i] for i in idx])
        except TableError as exc:
            raise InferenceError(f"fold produced an invalid table: {exc}")
        prog = compile_program(table, base_spec)
        lp = prog.lp
        offset = prog.offset
        params = LpParams(p=flip * lp.p, M=lp.M, c=lp.c, box=lp.box)
        return ThetaEstimate(params=params, sigma=sigma)

    res = run_inference(len(records), estimator, cfg, seed)
    lo, up, two = res.ci_lower_onesided, res.ci_upper_onesided, res.ci_twosided
    if flip < 0:  # the upper bound is minus the minimum of -p'x: the ends swap
        lo, up, two = up, lo, two[::-1]
    return replace(
        res,
        estimate=flip * res.estimate + offset,
        ci_lower_onesided=flip * lo + offset,
        ci_upper_onesided=flip * up + offset,
        ci_twosided=(flip * two[0] + offset, flip * two[1] + offset),
    )


def cmd_aicm(config: dict, args) -> int:
    _check_keys(config, _AICM_KEYS, "aicm config")
    a_doc = _require(config, "assumptions", "aicm config")
    _check_keys(a_doc, _ASSUMPTION_KEYS, "assumptions")
    target = _parse_target(_require(config, "target", "aicm config"))
    bounds = a_doc.get("bounds")
    if bounds is not None:
        bounds = tuple(_as_float_array(bounds, "bounds", 1))
        if len(bounds) != 2:
            raise CliError("validation_error", "bounds must be [K0, K1]")
    kinds = _require(a_doc, "kinds", "assumptions")
    if not isinstance(kinds, list) or not all(isinstance(k, str) for k in kinds):
        raise CliError("validation_error", f"kinds must be a list of strings, got {kinds!r}")
    try:
        spec = AssumptionSpec(
            kinds=frozenset(kinds),
            bounds=bounds,
            relax=a_doc.get("relax", 0.0),
            target=target,
        )
    except CompileError as exc:
        raise CliError("validation_error", str(exc))

    path = _require(config, "data", "aicm config")
    try:
        records = read_microdata_csv(path)
        table = ingest_sample(records)
        program = compile_program(table, spec)
    except (TableError, CompileError, OSError) as exc:
        raise CliError("table_error", str(exc))

    result = {"target": {"type": type(target).__name__.lower()}, "bounds": {}}
    statuses = {}
    for direction in ("lower", "upper"):
        value, status = bound_value(program, direction)
        result["bounds"][direction] = value
        statuses[direction] = status
    result["statuses"] = statuses
    result["valid_only"] = program.valid_only
    if isinstance(target, ATE):
        result["ets_estimate"] = ets_estimate(table, target.t, target.d)
    if args.diagnostics:
        result["lp"] = lp_to_document(
            program.lp, labels=["/".join(map(str, lab)) for lab in program.variable_labels]
        )
        result["offset"] = program.offset

    ci_doc = config.get("ci")
    if ci_doc is not None:
        _check_keys(ci_doc, _CI_KEYS, "ci")
        seed = _seed(config, args)
        reps = _at_least_2(ci_doc.get("bootstrap_reps", 200), "bootstrap_reps")
        doc = {k: v for k, v in ci_doc.items() if k != "bootstrap_reps"}
        cfg = _config(InferenceConfig, doc, "ci")
        try:
            sigma = bootstrap_theta_covariance(records, spec, B=reps, seed=seed)
            res_lo = _aicm_inference(records, spec, "lower", cfg, sigma, seed)
            res_up = _aicm_inference(records, spec, "upper", cfg, sigma, seed)
            interval = combine_two_sided(res_lo, res_up, cfg.alpha)
        except (InferenceError, TableError, PenaltyError) as exc:
            raise CliError("inference_failed", str(exc), exit_code=EXIT_COMPUTE)
        result["ci"] = {
            "lower": interval.lower,
            "upper": interval.upper,
            "crossed": interval.crossed,
            "alpha": cfg.alpha,
            "estimates": {"lower": res_lo.estimate, "upper": res_up.estimate},
        }
    _write_output(canonical_dumps(result), args.out)
    return EXIT_OK


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpbound",
        description="Estimation and inference for linear programs with estimated parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext, seeded, diagnostics in (
        ("estimate", "LP-value estimators on an LP file", False, True),
        ("infer", "split-sample confidence intervals", True, False),
        ("simulate", "Monte Carlo studies (CSV reports)", True, False),
        ("aicm", "causal-assumption bounds from microdata", True, True),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="JSON configuration file")
        cmd.add_argument("--out", default=None, help="output path (default: stdout)")
        if seeded:
            cmd.add_argument("--seed", type=int, default=None, help="RNG seed (overrides config)")
        if diagnostics:
            cmd.add_argument("--diagnostics", action="store_true",
                             help="include extra diagnostics in the output")
    return parser


_DISPATCH = {
    "estimate": cmd_estimate,
    "infer": cmd_infer,
    "simulate": cmd_simulate,
    "aicm": cmd_aicm,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        config = _load_json(args.config, "config")
        if not isinstance(config, dict):
            raise CliError("invalid_document", f"{args.command} config must be a JSON object")
        return _DISPATCH[args.command](config, args)
    except CliError as exc:
        code, message, exit_code = exc.code, str(exc), exc.exit_code
    except DimensionError as exc:
        code, message, exit_code = "dimension_mismatch", str(exc), EXIT_USAGE
    except (ValueError, RuntimeError) as exc:
        # a library fault that no command maps to a code of its own
        code, message = "computation_failed", f"{type(exc).__name__}: {exc}"
        exit_code = EXIT_COMPUTE
    sys.stderr.write(canonical_dumps({"error": {"code": code, "message": message}}))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
