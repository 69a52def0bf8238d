"""Tests of the benchmark itself: seeded inputs, exact traced call counts,
the oracles, and failure outside a checkout.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import lpbound  # noqa: E402
import lpbound.cli  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from run_all import COUNT_UNITS  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert lpbound.cli.main(argv) == 0
    return out.getvalue()


def digest(root: Path, workload: str) -> dict:
    work = root / workloads.WORK_DIR / workload
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_inputs_repeat_per_seed(tmp_path, workload):
    workloads.generate(workload, 5, tmp_path)
    first = digest(tmp_path, workload)
    workloads.generate(workload, 5, tmp_path)
    assert digest(tmp_path, workload) == first
    workloads.generate(workload, 6, tmp_path)
    assert digest(tmp_path, workload) != first


def test_tracer_wraps_every_binding():
    modules = [m for name, m in sys.modules.items() if name.startswith("lpbound")]
    original = lpbound.linalg.solve_lp
    holders = [m for m in modules if vars(m).get("solve_lp") is original]
    assert {m.__name__ for m in holders} >= {
        "lpbound", "lpbound.linalg", "lpbound.estimators", "lpbound.geometry",
        "lpbound.montecarlo", "lpbound.aicm", "lpbound.cli"}
    tracer = Tracer()
    tracer.install()
    try:
        assert all(m.solve_lp is not original and m.solve_lp.__wrapped__ is original
                   for m in holders)
        assert lpbound.cli.compile_program.__wrapped__ is lpbound.aicm.compile.__wrapped__
    finally:
        tracer.uninstall()
    assert all(m.solve_lp is original for m in holders)


def traced_counts(tmp_path, monkeypatch, workload) -> dict:
    manifest = workloads.generate(workload, 3, tmp_path)
    monkeypatch.chdir(tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        run_cli(manifest["commands"][0]["argv"])
    finally:
        tracer.uninstall()
    return {k: v for k, (v, unit) in tracer.metrics(1).items() if unit in COUNT_UNITS}


@pytest.mark.parametrize("workload", ["mc_consistency", "aicm_ci"])
def test_traced_counts_are_exact(tmp_path, monkeypatch, workload):
    counts = traced_counts(tmp_path, monkeypatch, workload)
    for key, want in workloads.EXPECTED_CALLS[workload].items():
        assert counts[key] == want, key


def test_estimate_oracle(tmp_path, monkeypatch):
    manifest = workloads.generate("lp_scale", 3, tmp_path)
    monkeypatch.chdir(tmp_path)
    cmd = manifest["commands"][0]
    text = run_cli(cmd["argv"])
    assert oracles.check_estimate(cmd, text, {}) == 0
    for name in ("plugin", "penalty", "setexp"):
        doc = json.loads(text)
        doc["estimators"][name]["value"] += 1e-6
        with pytest.raises(oracles.Mismatch):
            oracles.check_estimate(cmd, json.dumps(doc), {})


def test_aicm_oracle(tmp_path, monkeypatch):
    manifest = workloads.generate("aicm_ci", 3, tmp_path)
    monkeypatch.chdir(tmp_path)
    cmd = manifest["commands"][0]
    text = run_cli(cmd["argv"])
    assert oracles.check_aicm(cmd, text, {}) == 0
    doc = json.loads(text)
    doc["bounds"]["upper"] -= 1e-6
    with pytest.raises(oracles.Mismatch):
        oracles.check_aicm(cmd, json.dumps(doc), {})


def test_each_command_counts_once(tmp_path, monkeypatch):
    manifest = workloads.generate("aicm_ci", 3, tmp_path)
    monkeypatch.chdir(tmp_path)
    ok, crash = manifest["commands"][:2]
    run = {"rc": 0, "out": run_cli(ok["argv"]), "err": ""}
    crashed = {"rc": None, "out": "", "err": "AssertionError"}
    tally = oracles.check_outputs("aicm_ci", [(ok, [run, run, run]), (crash, [crashed] * 2)])
    assert (tally["attempted"], tally["failed"], tally["wrong"]) == (2, 1, 0)
    assert tally["failed_items"] == [0, 1]
    changed = dict(run, out=run["out"].replace("}", " }", 1))
    tally = oracles.check_outputs("aicm_ci", [(ok, [run, changed])])
    assert (tally["failed"], tally["wrong"]) == (1, 1)


@pytest.mark.parametrize("workload", ["mc_consistency", "mc_coverage"])
def test_reference_output(monkeypatch, workload):
    ref = workloads.REFERENCE[workload]
    monkeypatch.chdir(ROOT)
    text = run_cli(ref["argv"])
    expected = (ROOT / ref["expected"]).read_text()
    assert oracles.check_simulate(workload, ref, text) == 0
    oracles.check_reference(text, expected)
    with pytest.raises(oracles.Mismatch):
        oracles.check_reference(text.replace(",0,", ",1,", 1), expected)


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    reported = list(Tracer().metrics(1)) + [
        "linalg.first_call_s", "cli.import_s", "trace.overhead_share"]
    assert sorted(names) == sorted(reported)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lp_scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
