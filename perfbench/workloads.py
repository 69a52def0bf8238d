"""Workload definitions: seeded inputs and the CLI commands one run sends.

Each workload turns a seed into a pool of input files (JSON configs, LP
documents, microdata CSVs) under the run's work directory and a manifest
listing one CLI invocation per pool entry. The same seed always writes the
same bytes. The worker cycles through the pool in order and runs all of it
at least once, so a run that outlasts the pool repeats inputs rather than
changing their mix. Every run covers its whole pool, so that a seed always
gives the same outputs to check. The Monte Carlo and aicm pools take one
to three seconds per pass: their commands differ only in seeds and cost
about the same. The random LPs of lp_scale differ in cost, so its pool is
as large as one run covers (some 20 seconds), which keeps the run's mix of
LPs close to the average.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORK_DIR = ".perfbench_work"
ESTIMATORS = ("plugin", "penalty", "debiased", "setexp")
WARMUP_LP = "scenarios/example1_b0.json"

# mc_consistency / mc_coverage: replications per simulate command.
MC_REPLICATIONS = 25
CONSISTENCY_POOL = 8
COVERAGE_POOL = 16
CONSISTENCY_SIZES = [100, 500, 1000, 5000]
COVERAGE_SIZES = [5000]

# lp_scale: one round is one LP of each rung, in this order.
LP_RUNGS = [(10, 30), (20, 60)]
LP_POOL_ROUNDS = 12
LP_BOX = 5.0
LP_N = 1000

# aicm_ci: synthetic (y, t, z) microdata.
AICM_POOL = 3
AICM_RECORDS = 2000
AICM_LEVELS = 5
AICM_BOOTSTRAP = 200
AICM_BOUNDS = [-1.0, 1.0]


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")


def _seed_stream(seed: int, count: int) -> list:
    """Per-command seeds for the program, derived from the run seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _simulate_commands(work: Path, rel: Path, seed: int, study: str, dgp: str,
                       sizes: list, pool: int) -> list:
    commands = []
    for i, s in enumerate(_seed_stream(seed, pool)):
        cfg = {
            "study": study,
            "dgp": dgp,
            "b": 0.0,
            "sample_sizes": sizes,
            "replications": MC_REPLICATIONS,
            "seed": s,
        }
        name = f"simulate_{i:03d}.json"
        _write_json(work / name, cfg)
        commands.append({
            "argv": ["simulate", "--config", str(rel / name)],
            "items": MC_REPLICATIONS * len(sizes),
            "sizes": sizes,
        })
    return commands


# Run once per run outside the timed body; the output must match the CSV
# recorded from this code (the scenario configs cut to MC_REPLICATIONS).
REFERENCE = {
    name: {
        "argv": ["simulate", "--config", f"perfbench/reference/{name}.json"],
        "items": MC_REPLICATIONS * len(sizes),
        "sizes": sizes,
        "expected": f"perfbench/reference/{name}.csv",
    }
    for name, sizes in (("mc_consistency", CONSISTENCY_SIZES), ("mc_coverage", COVERAGE_SIZES))
}


def _mc_consistency(work: Path, rel: Path, seed: int) -> dict:
    return {
        "round": 1,
        "commands": _simulate_commands(
            work, rel, seed, "consistency", "example_a", CONSISTENCY_SIZES,
            CONSISTENCY_POOL),
        "reference": REFERENCE["mc_consistency"],
    }


def _mc_coverage(work: Path, rel: Path, seed: int) -> dict:
    return {
        "round": 1,
        "commands": _simulate_commands(
            work, rel, seed, "inference", "example_b", COVERAGE_SIZES, COVERAGE_POOL),
        "reference": REFERENCE["mc_coverage"],
    }


def random_lp(rng: np.random.Generator, d: int, q: int) -> dict:
    """Feasible boxed LP document: c = M x0 - margin with x0 inside the box."""
    M = rng.standard_normal((q, d))
    p = rng.standard_normal(d)
    x0 = rng.uniform(-0.8 * LP_BOX, 0.8 * LP_BOX, d)
    margin = rng.uniform(0.1, 1.0, q)
    return {
        "p": p.tolist(),
        "M": M.tolist(),
        "c": (M @ x0 - margin).tolist(),
        "box": {"lower": [-LP_BOX] * d, "upper": [LP_BOX] * d},
    }


def _lp_scale(work: Path, rel: Path, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    commands = []
    for r in range(LP_POOL_ROUNDS):
        for d, q in LP_RUNGS:
            stem = f"lp_{r:02d}_{d}x{q}"
            _write_json(work / f"{stem}.json", random_lp(rng, d, q))
            _write_json(work / f"{stem}_cfg.json", {"lp": str(rel / f"{stem}.json"), "n": LP_N})
            commands.append({
                "argv": ["estimate", "--config", str(rel / f"{stem}_cfg.json")],
                "items": 1,
                "lp": str(rel / f"{stem}.json"),
                "n": LP_N,
            })
    return {"round": len(LP_RUNGS), "commands": commands, "reference": None}


def microdata_rows(rng: np.random.Generator, records: int = AICM_RECORDS) -> list:
    """(y, t, z) rows: binary T whose share rises with Z, outcome rising in T
    and Z, clipped to the assumed bounds. The first rows fill every cell."""
    z = rng.integers(0, AICM_LEVELS, records)
    t = (rng.random(records) < 0.25 + 0.1 * z).astype(int)
    cells = 2 * AICM_LEVELS
    z[:cells] = np.arange(cells) % AICM_LEVELS
    t[:cells] = np.arange(cells) // AICM_LEVELS
    y = np.clip(rng.normal(0.1 + 0.3 * t + 0.05 * z, 0.3), *AICM_BOUNDS)
    return [(f"{yi:.6f}", str(ti), f"z{zi + 1}") for yi, ti, zi in zip(y, t, z)]


def _aicm_ci(work: Path, rel: Path, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    commands = []
    for i, s in enumerate(_seed_stream(seed, AICM_POOL)):
        rows = microdata_rows(rng)
        data = f"micro_{i:02d}.csv"
        (work / data).write_text("y,t,z\n" + "".join(",".join(r) + "\n" for r in rows))
        cfg = {
            "data": str(rel / data),
            "assumptions": {"kinds": ["bounds", "cmiv_p"], "bounds": AICM_BOUNDS},
            "target": {"type": "ate", "t": "1", "d": "0"},
            "ci": {"bootstrap_reps": AICM_BOOTSTRAP},
            "seed": s,
        }
        _write_json(work / f"aicm_{i:02d}.json", cfg)
        commands.append({
            "argv": ["aicm", "--config", str(rel / f"aicm_{i:02d}.json")],
            "items": 1,
            "data": str(rel / data),
        })
    return {"round": 1, "commands": commands, "reference": None}


GENERATORS = {
    "mc_consistency": _mc_consistency,
    "mc_coverage": _mc_coverage,
    "lp_scale": _lp_scale,
    "aicm_ci": _aicm_ci,
}

# Exact per-command call counts the traced run must report (redraw-free
# bootstraps for aicm_ci): the check that every module binding is wrapped.
EXPECTED_CALLS = {
    "mc_consistency": {
        "linalg.solve_lp.calls": 1 + 4 * MC_REPLICATIONS * len(CONSISTENCY_SIZES),
        "montecarlo.draw_theta.calls": MC_REPLICATIONS * len(CONSISTENCY_SIZES),
    },
    "mc_coverage": {
        "linalg.solve_lp.calls": 1 + MC_REPLICATIONS * len(COVERAGE_SIZES),
        "inference.run_inference.calls": MC_REPLICATIONS * len(COVERAGE_SIZES),
        "inference.fold_estimator.calls": 2 * MC_REPLICATIONS * len(COVERAGE_SIZES),
    },
    "lp_scale": {
        "linalg.solve_lp.calls": 4,
        "estimators.penalty_value.calls": 1,
    },
    "aicm_ci": {
        "aicm.ingest_sample.calls": 6 + AICM_BOOTSTRAP,
        "linalg.solve_lp.calls": 4,
        # full sample twice, B resamples, and two folds of half the records
        # per bound direction
        "aicm.ingest_sample.records": (4 + AICM_BOOTSTRAP) * AICM_RECORDS,
    },
}


def generate(workload: str, seed: int, root: Path) -> dict:
    """Write the workload's inputs for `seed` under root/WORK_DIR/workload
    (emptied first) and return the manifest; paths are relative to root."""
    rel = Path(WORK_DIR) / workload
    work = root / rel
    if work.exists():
        for f in work.iterdir():
            f.unlink()
    work.mkdir(parents=True, exist_ok=True)
    manifest = GENERATORS[workload](work, rel, seed)
    _write_json(work / "warmup.json", {"lp": WARMUP_LP, "n": LP_N})
    manifest.update(workload=workload, seed=seed, warmup=str(rel / "warmup.json"))
    return manifest
