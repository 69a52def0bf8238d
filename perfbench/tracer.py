"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions of each lpbound module. A function
imported by name into other modules (``from .linalg import solve_lp``) has a
binding in each of them, and every binding is replaced, or calls made through
the copies would go uncounted. Spans nest on one stack, so each layer's self
time is its span time minus the time of the spans it called.
"""
from __future__ import annotations

import math
import sys
from time import perf_counter

import numpy as np

TRACED = {
    "linalg": ("solve_lp", "smallest_singular_value"),
    "estimators": ("penalty_value", "debiased_estimate", "set_expansion_value",
                   "plug_in_value", "select_penalty", "full_rank_binding"),
    "inference": ("run_inference", "split_sample", "find_triplet",
                  "asymptotic_variance", "ball_constrained_lstsq"),
    "aicm": ("read_microdata_csv", "ingest_sample", "compile", "bound_value",
             "bootstrap_theta_covariance"),
    "montecarlo": ("run_consistency", "run_inference_study", "draw_theta", "rng_for"),
    "geometry": ("delta_condition",),
    "cli": ("main", "canonical_dumps"),
}
# The estimator callable handed to run_inference: a span of its own.
FOLD_ESTIMATOR = "inference.fold_estimator"

SPAN_NAMES = [f"{m}.{f}" for m, fns in TRACED.items() for f in fns] + [FOLD_ESTIMATOR]


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Install with `install()`, read with `metrics()`, remove with
    `uninstall()`. Counters accumulate across installs until `reset()`."""

    def __init__(self):
        self._stack = []
        self._patched = []
        self.first_call_s = {}
        self.reset()

    def reset(self) -> None:
        self.calls = {name: 0 for name in SPAN_NAMES}
        self.self_s = {name: 0.0 for name in SPAN_NAMES}
        self.lp_rows = 0
        self.lp_nonoptimal = 0
        self.inference_failures = 0
        self.lstsq_active = 0
        self.records = 0
        self.boot_depth = 0
        self.boot_ingest = 0
        self.boot_calls = 0
        self.boot_reps = 0

    # -- spans ----------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        """Wrap fn in a span. `before(args, kwargs)` may return replacement
        positional args; `after(args, kwargs, result, ok)` sees the outcome."""
        stack = self._stack

        def traced(*args, **kwargs):
            if before:
                args = before(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dur = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                self.first_call_s.setdefault(name, dur)
                if after:
                    after(args, kwargs, result if ok else None, ok)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- derived counters -------------------------------------------------------

    def _solve_lp_after(self, args, kwargs, result, ok):
        params = _arg(args, kwargs, 0, "params")
        rows = params.q
        if _arg(args, kwargs, 1, "include_box", True):
            lower, upper = params.box
            rows += int(np.isfinite(lower).sum() + np.isfinite(upper).sum())
        self.lp_rows += rows
        if not ok or result.status != "optimal":
            self.lp_nonoptimal += 1

    def _run_inference_before(self, args, kwargs):
        wrapped = self._span(FOLD_ESTIMATOR, _arg(args, kwargs, 1, "estimator"))
        if len(args) > 1:
            return args[:1] + (wrapped,) + args[2:]
        kwargs["estimator"] = wrapped
        return args

    def _run_inference_after(self, args, kwargs, result, ok):
        if not ok:
            self.inference_failures += 1

    def _lstsq_after(self, args, kwargs, result, ok):
        if ok:
            radius = float(_arg(args, kwargs, 2, "radius"))
            norm = math.sqrt(float(result @ result))
            if abs(norm - radius) <= 1e-6 * radius:
                self.lstsq_active += 1

    def _ingest_before(self, args, kwargs):
        self.records += len(_arg(args, kwargs, 0, "records"))
        if self.boot_depth:
            self.boot_ingest += 1
        return args

    def _bootstrap_before(self, args, kwargs):
        self.boot_depth += 1
        return args

    def _bootstrap_after(self, args, kwargs, result, ok):
        self.boot_depth -= 1
        self.boot_calls += 1
        self.boot_reps += int(_arg(args, kwargs, 2, "B", 500))

    # -- install ----------------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "linalg.solve_lp": (None, self._solve_lp_after),
            "inference.run_inference": (self._run_inference_before, self._run_inference_after),
            "inference.ball_constrained_lstsq": (None, self._lstsq_after),
            "aicm.ingest_sample": (self._ingest_before, None),
            "aicm.bootstrap_theta_covariance": (self._bootstrap_before, self._bootstrap_after),
        }
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "lpbound" or key.startswith("lpbound."))]
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"lpbound.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                name = f"{mod_name}.{fn_name}"
                wrapper = self._span(name, original, *hooks.get(name, (None, None)))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- report -----------------------------------------------------------------

    def metrics(self, commands: int) -> dict:
        """Per-layer metrics, as {name: (value, unit)}; counts and times are
        per CLI command."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name] / commands, "calls/cmd")
            out[f"{name}.self_s"] = (self.self_s[name] / commands, "s/cmd")
        lp_calls = self.calls["linalg.solve_lp"]
        out["linalg.solve_lp.rows_mean"] = (self.lp_rows / lp_calls if lp_calls else 0.0, "rows")
        out["linalg.solve_lp.nonoptimal"] = (self.lp_nonoptimal / commands, "calls/cmd")
        out["inference.run_inference.failures"] = (self.inference_failures / commands, "calls/cmd")
        lstsq = self.calls["inference.ball_constrained_lstsq"]
        out["inference.ball_constrained_lstsq.active_share"] = (
            self.lstsq_active / lstsq if lstsq else 0.0, "ratio")
        out["aicm.ingest_sample.records"] = (self.records / commands, "records/cmd")
        resamples = self.boot_ingest - self.boot_calls  # one base table per call
        out["aicm.bootstrap_theta_covariance.redraw_share"] = (
            (resamples - self.boot_reps) / resamples if resamples else 0.0, "ratio")
        return out
