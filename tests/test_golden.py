"""Byte-for-byte checks of `simulate`, `infer` and `aicm` output against
files in tests/golden/.

Each golden file holds the output of one small run: the three fig_*
scenarios cut to 25 replications, the criterion-9 uniform-grid designs at
20 replications, the noisy-design `infer` example, and three `aicm` runs
with a confidence interval on microdata drawn from a fixed numpy seed, one
of whose bootstraps redraws resamples that lose a cell. No run may
raise a warning. A change that moves these bytes on purpose regenerates the
files with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from lpbound.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
_GRID = {"study": "uniform_grid", "dgp": "uniform_grid",
         "sample_sizes": [100, 500, 1000, 5000, 10000], "replications": 20, "seed": 5}


def _scenario(name: str, **overrides) -> dict:
    return {**json.loads((ROOT / "scenarios" / f"{name}.json").read_text()), **overrides}


def _microdata(seed: int, arms: int, missing=None) -> str:
    """CSV text of 400 (y, t, z) records: t in range(arms) with the higher
    arms likelier at higher z in z1..z3, y in [-1, 1] rising in t and z, and
    no outcome for t = missing. The first records fill every cell."""
    rng = np.random.default_rng(seed)
    z = rng.integers(0, 3, 400)
    t = np.minimum((rng.random(400) * arms + 0.3 * z).astype(int), arms - 1)
    z[:3 * arms], t[:3 * arms] = np.arange(3 * arms) % 3, np.arange(3 * arms) // 3
    y = np.clip(rng.normal(0.1 + 0.3 * t + 0.05 * z, 0.3), -1.0, 1.0)
    return "y,t,z\n" + "".join(f"{'' if ti == missing else f'{yi:.6f}'},{ti},z{zi + 1}\n"
                               for yi, ti, zi in zip(y, t, z))


def _thin_cell_microdata(seed: int) -> str:
    """CSV text of 36 (y, t, z) records, y uniform on [0, 1], in cells of
    12, 12, 10 and 2 records: about one bootstrap resample in eight leaves
    the thin cell (T=1, Z=b) empty and is redrawn."""
    rng = np.random.default_rng(seed)
    return "y,t,z\n" + "".join(f"{rng.uniform(0, 1):.6f},{t},{z}\n"
                               for t, z, size in (("0", "a", 12), ("1", "a", 12),
                                                  ("0", "b", 10), ("1", "b", 2))
                               for _ in range(size))


def _aicm(kinds: list, target: dict, bounds=(-1.0, 1.0)) -> dict:
    return {"assumptions": {"kinds": kinds, "bounds": list(bounds)}, "target": target,
            "ci": {"bootstrap_reps": 40}, "seed": 3}


# aicm golden file -> the microdata its config reads
MICRODATA = {
    "aicm_ate_cmiv_p.json": _microdata(11, 2),
    "aicm_ate_cmiv_p_thin_cell.json": _thin_cell_microdata(13),
    "aicm_mean_mtr_miv_missing.json": _microdata(12, 3, missing=2),
}


# golden file -> (command, config, extra arguments)
CASES = {
    "fig_consistency_b0.csv": ("simulate", _scenario("fig_consistency_b0", replications=25), []),
    "fig_consistency_bneg.csv": ("simulate", _scenario("fig_consistency_bneg", replications=25), []),
    "fig_coverage_b0.csv": ("simulate", _scenario("fig_coverage_b0", replications=25), []),
    "uniform_grid_full.csv": ("simulate", {**_GRID, "grid": "full"}, []),
    "uniform_grid_single_slater.csv": (
        "simulate", {**_GRID, "grid": "single", "slater": True}, []),
    "infer_example_b.json": ("infer", _scenario("infer_example_noisy"), ["--seed", "7"]),
    "aicm_ate_cmiv_p.json": ("aicm", _aicm(["bounds", "cmiv_p"], {"type": "ate", "t": "1", "d": "0"}),
                             ["--diagnostics"]),
    "aicm_ate_cmiv_p_thin_cell.json": (
        "aicm", _aicm(["bounds", "cmiv_p"], {"type": "ate", "t": "1", "d": "0"}, (0.0, 1.0)), []),
    "aicm_mean_mtr_miv_missing.json": (
        "aicm", _aicm(["bounds", "mtr", "miv"], {"type": "mean", "t": "1"}), []),
}


def run_case(name: str, workdir: Path) -> bytes:
    command, config, extra = CASES[name]
    cfg, out = workdir / f"{name}.config.json", workdir / name
    if name in MICRODATA:
        data = workdir / f"{name}.csv"
        data.write_text(MICRODATA[name])
        config = {**config, "data": str(data)}
    cfg.write_text(json.dumps(config))
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    if code != EXIT_OK:
        raise RuntimeError(f"{name}: {command} exited {code}")
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden(tmp_path, name):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run_case(name, tmp_path)
    assert out == (GOLDEN / name).read_bytes()
    assert [str(w.message) for w in caught] == []  # no warning escapes a golden run


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / case).write_bytes(run_case(case, Path(tmp)))
            print(f"wrote {GOLDEN / case}", file=sys.stderr)
