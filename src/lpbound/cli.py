"""Command-line interface: estimate, infer, simulate, and aicm commands.

Configs and LP files are JSON documents, each read by _config into a
dataclass whose annotated fields are its keys; bulk numeric output is CSV.
Parsing is fail-closed: unknown keys are rejected. The infer mode and the
simulate study pick the class (_INFER_MODES, _STUDIES) whose fields are the
keys that mode or study reads, so a key it never reads is unknown. Only the
commands that draw random numbers (infer, simulate, aicm) take --seed, for
bit-reproducible output.
Exit codes: 0 success (solver statuses are data), 1 computational fault
that blocks output (a floating-point overflow or a number JSON cannot hold
among them), 2 usage or validation fault. Faults print a machine-readable
error object, and nothing else reaches stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import List, Optional, Sequence, Tuple, Union, get_args, get_origin

import numpy as np

from .aicm import (ATE, AssumptionSpec, CompileError, MeanPotential, TableError, bound_interval,
                   bound_value, compile as compile_program, ets_estimate, ingest_sample,
                   read_microdata_csv)
from .estimators import (PenaltyConfig, PenaltyError, debiased_estimate, default_kappa_n,
                         penalty_rows, penalty_value, plug_in_value, set_expansion_value)
from .geometry import delta_condition
from .inference import (InferenceConfig, InferenceError, InferenceResult, ThetaEstimate,
                        check_covariance, run_inference)
from .linalg import OPTIMAL, DimensionError, LpParams, _as_array, check_fields, type_hints
from .linalg import solve_lp  # noqa: F401  perfbench's tracer test expects this binding
from .montecarlo import (ESTIMATORS, ConsistencyScenario, Estimator, InferenceScenario,
                         ScenarioError, UniformGridScenario, _example_b_estimator,
                         check_estimator_keys, run_consistency, run_inference_study,
                         run_uniform_grid)

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
        if not math.isfinite(x):  # NaN and Infinity are not JSON (RFC 8259)
            raise CliError("computation_failed", f"cannot serialize the non-finite number {x!r}",
                           exit_code=EXIT_COMPUTE)
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


def _object(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise CliError("invalid_document", f"{where} must be a JSON object")
    return doc


def _tag(doc: dict, key: str, choices, where: str, default: Optional[str] = None) -> str:
    """doc[key] (default when absent), the one of choices that reads the rest of doc."""
    if key not in doc and default is None:
        raise CliError("missing_key", f"{where} requires key {key!r}")
    tag = doc.get(key, default)
    if not isinstance(tag, str) or tag not in choices:
        raise CliError("validation_error", f"{key} must be one of {sorted(choices)}, got {tag!r}")
    return tag


def _config(cls, doc, where: str, **given):
    """cls from the JSON object doc and the values the command fixes; the dataclass
    holds every default, type and range check. A field annotated with a dataclass
    (or Optional of one) is an object read alike, one annotated dict an object."""
    unknown = set(_object(doc, where)) - {f.name for f in fields(cls)} - set(given)
    if unknown:
        raise CliError("unknown_key", f"unknown keys in {where}: {sorted(unknown)}")
    for f in fields(cls):
        absent = f.name not in doc and f.name not in given
        if absent and f.default is MISSING and f.default_factory is MISSING:
            raise CliError("missing_key", f"{where} requires key {f.name!r}")
    hints, doc = type_hints(cls), dict(doc)
    for name, value in doc.items():
        tp = hints[name]
        if get_origin(tp) is Union and value is not None:  # Optional[X] reads a value as X
            tp = get_args(tp)[0]
        if is_dataclass(tp):
            doc[name] = _config(tp, value, name)
        elif tp is dict:
            _object(value, name)
    try:
        return cls(**doc, **given)
    except (TypeError, ValueError) as exc:
        raise CliError("validation_error", str(exc))


@dataclass
class LpBox:
    """null (or Infinity, which json reads) leaves a side unbounded."""

    lower: Sequence[Optional[float]]
    upper: Sequence[Optional[float]]

    def __post_init__(self):
        check_fields(self, ValueError, infinite=("lower", "upper"))


@dataclass
class LpDocument:
    """An LP file: min p'x s.t. Mx >= c and x in the box; LpParams checks the shapes."""

    p: Sequence[float]
    M: Sequence[Sequence[float]]
    c: Sequence[float]
    box: LpBox
    labels: Optional[Sequence[str]] = None

    def __post_init__(self):
        check_fields(self, ValueError)


def parse_lp_document(doc: dict) -> Tuple[LpParams, Optional[List[str]]]:
    """The LP and labels of an LP document; DimensionError if its shapes disagree."""
    lp = _config(LpDocument, doc, "LP document")
    lower = [-math.inf if v is None else v for v in lp.box.lower]
    upper = [math.inf if v is None else v for v in lp.box.upper]
    M = lp.M or np.zeros((0, len(lp.p)))  # an LP with no rows writes M as []
    params = LpParams(p=lp.p, M=M, c=lp.c, box=(lower, upper))
    if lp.labels is not None and len(lp.labels) != params.d:
        raise CliError("dimension_mismatch", f"{len(lp.labels)} labels for {params.d} variables")
    return params, lp.labels


def lp_to_document(params: LpParams, labels: Optional[List[str]] = None) -> dict:
    doc = {
        "p": params.p.tolist(),
        "M": params.M.tolist(),
        "c": params.c.tolist(),
        "box": {side: [v if math.isfinite(v) else None for v in bound.tolist()]  # null: unbounded
                for side, bound in zip(("lower", "upper"), params.box)},
    }
    if labels is not None:
        doc["labels"] = list(labels)
    return doc


def _load_json(path: str, where: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError("io_error", f"cannot read {where} {path}: {exc}")
    # also a file that is not UTF-8, or JSON nested past the recursion limit
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise CliError("invalid_json", f"{where} {path}: {exc}")


def load_lp_file(path: str) -> Tuple[LpParams, Optional[List[str]]]:
    return parse_lp_document(_load_json(path, "LP file"))


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError("io_error", f"cannot write {out}: {exc}")


def _seed(config: dict, args) -> int:
    """--seed when given, else the config's seed (default 0)."""
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise CliError("validation_error", f"seed must be a nonnegative integer, got {seed!r}")
    return seed


def _solution_fields(sol) -> dict:
    out = {"status": sol.status, "value": None if sol.value is None else float(sol.value)}
    if sol.vertex is not None:
        out["vertex"] = sol.vertex.tolist()
    return out


# -- estimate -----------------------------------------------------------------

@dataclass
class EstimateConfig:
    lp: str  # the LP file
    estimators: Sequence[Estimator] = ESTIMATORS
    n: Optional[int] = None  # the sample size behind the default penalty and kappa_n
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    kappa_n: Optional[float] = None
    kappa0: float = 0.1

    def __post_init__(self):
        check_fields(self, ValueError)
        check_estimator_keys(self, ValueError)
        if self.n is not None and self.n < 1:
            raise ValueError("n must be a positive integer")


def cmd_estimate(config: dict, args) -> int:
    cfg = _config(EstimateConfig, config, "estimate config")
    params, labels = load_lp_file(cfg.lp)
    names, n = cfg.estimators, cfg.n
    result = {"estimators": {}}
    # warm-start lists: set expansion starts from the plug-in's final basis
    # and the debiased solve from the penalty solve's, which is the basis its
    # own cold phase 2 would reach
    original_bases, relaxed_bases = [], []

    try:
        if "plugin" in names:
            sol = plug_in_value(params, bases=original_bases)
            result["estimators"]["plugin"] = _solution_fields(sol)
        if "penalty" in names or "debiased" in names:
            w = cfg.penalty.resolve_w(params, n)
            result["penalty_vector"] = penalty_rows(w, params.q).tolist()
        if "penalty" in names:
            result["estimators"]["penalty"] = {
                "status": OPTIMAL,
                "value": penalty_value(params, w, bases=relaxed_bases),
            }
        if "debiased" in names:
            deb = debiased_estimate(params, w, bases=relaxed_bases)
            result["estimators"]["debiased"] = {
                "status": OPTIMAL,
                "value": deb.value,
                "vertex": deb.vertex.tolist(),
                "binding": deb.binding.tolist(),
                "penalty_residual": deb.penalty_residual,
            }
        if "setexp" in names:
            if n is None:
                raise PenaltyError("set expansion needs the sample size n")
            kappa_n = default_kappa_n(n, cfg.kappa0) if cfg.kappa_n is None else cfg.kappa_n
            sol = set_expansion_value(params, float(kappa_n), n, bases=original_bases)
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
    theta-hat is the column mean and sigma the per-observation covariance,
    computed only when read (run_inference reads fold 2's alone)."""

    def estimate(idx: np.ndarray) -> ThetaEstimate:
        sub = rows.take(idx, axis=0)
        params = LpParams.from_theta(sub.mean(axis=0), template.q, template.d, template.box)
        return ThetaEstimate(params=params, sigma=lambda: np.atleast_2d(np.cov(sub.T)))

    return estimate


@dataclass(kw_only=True)
class CsvInference(InferenceConfig):
    """infer mode csv: the rows of the CSV file data are i.i.d. draws of theta."""

    lp: str
    data: str


@dataclass(kw_only=True)
class _DrawnInference(InferenceConfig):
    n: int  # the number of draws

    def __post_init__(self):
        super().__post_init__()
        if self.n < 2:
            raise InferenceError("n must be an integer >= 2")


@dataclass(kw_only=True)
class GaussianInference(_DrawnInference):
    """infer mode gaussian: n normal draws of theta with covariance sigma."""

    lp: str
    sigma: Sequence[Sequence[float]]


@dataclass(kw_only=True)
class ExampleBInference(_DrawnInference):
    """infer mode example_b: n draws of the built-in noisy design."""

    b: float = 0.0


_INFER_MODES = {"csv": CsvInference, "gaussian": GaussianInference, "example_b": ExampleBInference}


def _infer_rows(cfg: Union[CsvInference, GaussianInference], seed: int):
    """Gaussian draws of theta in gaussian mode, else the rows of the data CSV."""
    params, _ = load_lp_file(cfg.lp)
    if isinstance(cfg, GaussianInference):
        theta = params.theta()
        sigma = _as_array(cfg.sigma, "sigma", 2)
        if sigma.shape != (theta.size, theta.size):
            raise CliError("dimension_mismatch",
                           f"sigma must be {theta.size}x{theta.size}, got {sigma.shape}")
        try:  # multivariate_normal only warns on a covariance that is not PSD
            check_covariance(sigma, "sigma")
        except InferenceError as exc:
            raise CliError("validation_error", str(exc))
        rng = np.random.default_rng(seed)
        rows = rng.multivariate_normal(theta, sigma, size=cfg.n, method="svd")
        return rows, params
    try:
        with warnings.catch_warnings():  # loadtxt only warns on a file with no data
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(cfg.data, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CliError("io_error", f"cannot read data CSV {cfg.data}: {exc}")
    if rows.shape[0] == 0:
        raise CliError("io_error", f"cannot read data CSV {cfg.data}: no data rows")
    finite = np.isfinite(rows).all(axis=1)  # loadtxt reads nan, inf and 1e400 as numbers
    if not finite.all():
        raise CliError("validation_error",
                       f"data CSV {cfg.data}: data row {finite.argmin() + 1} is not finite")
    S = params.theta_size
    if rows.shape[1] != S:
        raise CliError("dimension_mismatch", f"data rows have {rows.shape[1]} columns, need {S}")
    return rows, params


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
    mode = _tag(config, "mode", _INFER_MODES, "infer config", default="csv")
    doc = {k: v for k, v in config.items() if k not in ("mode", "seed")}
    cfg = _config(_INFER_MODES[mode], doc, "infer config")
    seed = _seed(config, args)
    if mode == "example_b":
        U = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(cfg.n, 3))
        estimator, n = _example_b_estimator(U, cfg.b), cfg.n
    else:
        rows, template = _infer_rows(cfg, seed)
        estimator, n = _row_estimator(rows, template), rows.shape[0]
    try:
        res = run_inference(n, estimator, cfg, seed)
    except (InferenceError, PenaltyError) as exc:
        raise CliError("inference_failed", str(exc), exit_code=EXIT_COMPUTE)
    _write_output(canonical_dumps(_inference_result_doc(res)), args.out)
    return EXIT_OK


# -- simulate -----------------------------------------------------------------

_STUDIES = {"consistency": ConsistencyScenario, "inference": InferenceScenario,
            "uniform_grid": UniformGridScenario}


def cmd_simulate(config: dict, args) -> int:
    study = _tag(config, "study", _STUDIES, "simulate config", default="consistency")
    doc = {k: v for k, v in config.items() if k not in ("study", "seed")}
    scenario = _config(_STUDIES[study], doc, "simulate config", seed=_seed(config, args))
    # read when the command runs, so that a rebound name (a traced span) is the one called
    run = {"consistency": run_consistency, "inference": run_inference_study,
           "uniform_grid": run_uniform_grid}[study]
    try:
        text = run(scenario).to_csv()
    except ScenarioError as exc:
        raise CliError("validation_error", str(exc))
    _write_output(text, args.out)
    return EXIT_OK


# -- aicm ---------------------------------------------------------------------

# The bootstrap holds every draw's (p, vec M, c) until it takes their covariance,
# so the draw count bounds its memory.
MAX_BOOTSTRAP_REPS = 10_000
_TARGETS = {"mean": MeanPotential, "ate": ATE}


@dataclass
class CiConfig:
    """The aicm ci object: the interval's levels and the bootstrap draw count."""

    alpha: float = InferenceConfig.alpha
    gamma: float = InferenceConfig.gamma
    bootstrap_reps: int = 200

    def __post_init__(self):
        check_fields(self, ValueError)
        if not 2 <= self.bootstrap_reps <= MAX_BOOTSTRAP_REPS:
            raise ValueError(f"bootstrap_reps must be an integer from 2 to "
                             f"{MAX_BOOTSTRAP_REPS}, got {self.bootstrap_reps}")
        self.inference = InferenceConfig(alpha=self.alpha, gamma=self.gamma)


@dataclass
class AicmConfig:
    data: str  # the microdata CSV
    assumptions: dict  # read by AssumptionSpec, given the target
    target: dict  # its type picks the class in _TARGETS that reads the rest
    ci: Optional[CiConfig] = None

    def __post_init__(self):
        check_fields(self, ValueError)


def cmd_aicm(config: dict, args) -> int:
    cfg = _config(AicmConfig, {k: v for k, v in config.items() if k != "seed"}, "aicm config")
    kind = _tag(cfg.target, "type", _TARGETS, "target")
    target = _config(_TARGETS[kind], {k: str(v) for k, v in cfg.target.items() if k != "type"},
                     "target")
    spec = _config(AssumptionSpec, cfg.assumptions, "assumptions", target=target)

    try:
        records = read_microdata_csv(cfg.data)
        table = ingest_sample(records)
        program = compile_program(table, spec)
    except OSError as exc:
        raise CliError("io_error", f"cannot read microdata CSV {cfg.data}: {exc}")
    except (TableError, CompileError) as exc:
        raise CliError("table_error", str(exc))

    result = {"target": {"type": kind}, "bounds": {}, "statuses": {}}
    for direction in ("lower", "upper"):
        result["bounds"][direction], result["statuses"][direction] = bound_value(program, direction)
    result["valid_only"] = program.valid_only
    if isinstance(target, ATE):
        result["ets_estimate"] = ets_estimate(table, target.t, target.d)
    if args.diagnostics:
        result["lp"] = None if program.lp is None else lp_to_document(
            program.lp, labels=["/".join(map(str, lab)) for lab in program.variable_labels]
        )
        result["offset"] = program.offset

    if cfg.ci is not None:
        seed = _seed(config, args)
        if program.refuted:
            raise CliError("inference_failed", "the data refute the assumptions (an "
                           "observed cell mean lies outside the outcome bounds, or an "
                           "identified target breaks a restriction), so there is no "
                           "interval to estimate", exit_code=EXIT_COMPUTE)
        if program.lp is None:
            raise CliError("inference_failed", f"the data identify the target E[Y({target.t})] "
                           f"as {program.offset!r}, so its bounds are one point and there is "
                           "no interval to estimate", exit_code=EXIT_COMPUTE)
        try:
            interval, res_lo, res_up = bound_interval(
                records, spec, table, cfg.ci.inference, cfg.ci.bootstrap_reps, seed)
        except (InferenceError, TableError, PenaltyError) as exc:
            raise CliError("inference_failed", str(exc), exit_code=EXIT_COMPUTE)
        result["ci"] = {
            "lower": interval.lower,
            "upper": interval.upper,
            "crossed": interval.crossed,
            "alpha": cfg.ci.alpha,
            "estimates": {"lower": res_lo.estimate, "upper": res_up.estimate},
            "se": {"lower": res_lo.se, "upper": res_up.se},
            "degenerate_variance": {"lower": res_lo.degenerate_variance,
                                    "upper": res_up.degenerate_variance},
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


_DISPATCH = {"estimate": cmd_estimate, "infer": cmd_infer, "simulate": cmd_simulate,
             "aicm": cmd_aicm}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: parse_args keeps no
    state between calls, so every command can share it."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        config = _object(_load_json(args.config, "config"), f"{args.command} config")
        # an overflow, a division by zero or an invalid operation raises, not warns on stderr
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _DISPATCH[args.command](config, args)
    except CliError as exc:
        code, message, exit_code = exc.code, str(exc), exc.exit_code
    except DimensionError as exc:
        code, message, exit_code = "dimension_mismatch", str(exc), EXIT_USAGE
    except (ValueError, RuntimeError, ArithmeticError, MemoryError) as exc:
        # a library fault that no command maps to a code of its own, or a failed allocation
        code, message = "computation_failed", f"{type(exc).__name__}: {exc}"
        exit_code = EXIT_COMPUTE
    sys.stderr.write(canonical_dumps({"error": {"code": code, "message": message}}))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
