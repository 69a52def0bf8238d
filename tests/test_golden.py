"""Byte-for-byte checks of `simulate` and `infer` output against files in
tests/golden/.

Each golden file holds the output of one small run: the three fig_*
scenarios cut to 25 replications, the criterion-9 uniform-grid designs at
20 replications, and the noisy-design `infer` example. A change that moves
these bytes on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""
import json
import sys
import tempfile
from pathlib import Path

import pytest

from lpbound.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
_GRID = {"study": "uniform_grid", "dgp": "uniform_grid",
         "sample_sizes": [100, 500, 1000, 5000, 10000], "replications": 20, "seed": 5}


def _scenario(name: str, **overrides) -> dict:
    return {**json.loads((ROOT / "scenarios" / f"{name}.json").read_text()), **overrides}


# golden file -> (command, config, extra arguments)
CASES = {
    "fig_consistency_b0.csv": ("simulate", _scenario("fig_consistency_b0", replications=25), []),
    "fig_consistency_bneg.csv": ("simulate", _scenario("fig_consistency_bneg", replications=25), []),
    "fig_coverage_b0.csv": ("simulate", _scenario("fig_coverage_b0", replications=25), []),
    "uniform_grid_full.csv": ("simulate", {**_GRID, "grid": "full"}, []),
    "uniform_grid_single_slater.csv": (
        "simulate", {**_GRID, "grid": "single", "slater": True}, []),
    "infer_example_b.json": ("infer", _scenario("infer_example_noisy"), ["--seed", "7"]),
}


def run_case(name: str, workdir: Path) -> bytes:
    command, config, extra = CASES[name]
    cfg, out = workdir / f"{name}.config.json", workdir / name
    cfg.write_text(json.dumps(config))
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    if code != EXIT_OK:
        raise RuntimeError(f"{name}: {command} exited {code}")
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden(tmp_path, name):
    assert run_case(name, tmp_path) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / case).write_bytes(run_case(case, Path(tmp)))
            print(f"wrote {GOLDEN / case}", file=sys.stderr)
