import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import is_dataclass
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np
import pytest

import lpbound
from lpbound import aicm, cli, montecarlo
from lpbound.aicm import ATE, AssumptionSpec, MeanPotential
from lpbound.cli import (
    EXIT_COMPUTE,
    EXIT_OK,
    EXIT_USAGE,
    CliError,
    canonical_dumps,
    lp_to_document,
    main,
    parse_lp_document,
)
from lpbound.estimators import PenaltyConfig
from lpbound.linalg import LpParams
from lpbound.montecarlo import (ConsistencyScenario, InferenceScenario, SimulationScenario,
                                UniformGridScenario)

EXAMPLE1_DOC = {
    "p": [1.0, 0.0],
    "M": [[-1.0, 1.0], [1.0, -1.0], [1.0, 0.0], [-1.0, 0.0]],
    "c": [0.0, 0.0, -1.0, -1.0],
    "box": {"lower": [-2.0, -2.0], "upper": [2.0, 2.0]},
    "labels": ["x1", "x2"],
}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args, out_path):
    code = main(list(args) + ["--out", str(out_path)])
    return code


class TestLpFileFormat:
    def test_round_trip_is_byte_identical(self):
        params, labels = parse_lp_document(EXAMPLE1_DOC)
        once = canonical_dumps(lp_to_document(params, labels))
        again_params, again_labels = parse_lp_document(json.loads(once))
        assert canonical_dumps(lp_to_document(again_params, again_labels)) == once
        assert once == canonical_dumps(EXAMPLE1_DOC)

    def test_an_lp_with_no_rows_round_trips(self):
        params = LpParams(p=[1.0, -1.0], M=np.zeros((0, 2)), c=[], box=([0.0, 0.0], [1.0, 1.0]))
        once = canonical_dumps(lp_to_document(params))
        again, _ = parse_lp_document(json.loads(once))
        assert again.M.shape == (0, 2)
        assert canonical_dumps(lp_to_document(again)) == once

    def test_unknown_keys_rejected(self):
        doc = dict(EXAMPLE1_DOC, extra=1)
        with pytest.raises(CliError, match="unknown keys"):
            parse_lp_document(doc)

    def test_canonical_floats(self):
        assert canonical_dumps({"x": 1.0 / 3.0}) == '{"x":0.33333333333333331}\n'
        assert canonical_dumps({"b": True, "n": None}) == '{"b":true,"n":null}\n'
        for x in (math.nan, math.inf, -math.inf):  # not JSON (RFC 8259)
            with pytest.raises(CliError) as caught:
                canonical_dumps({"x": [np.float64(x)]})
            assert str(caught.value) == f"cannot serialize the non-finite number {x!r}"
            assert (caught.value.code, caught.value.exit_code) == (
                "computation_failed", EXIT_COMPUTE)

    def test_an_unbounded_box_side_is_null(self):
        params = LpParams(p=[1.0, 0.0], M=[[1.0, 1.0]], c=[0.0],
                          box=([-1.0, -np.inf], [np.inf, 1.0]))
        doc = lp_to_document(params)
        assert doc["box"] == {"lower": [-1.0, None], "upper": [None, 1.0]}
        for box in (doc["box"], {"lower": [-1.0, -math.inf], "upper": [math.inf, 1.0]}):
            back, _ = parse_lp_document(dict(doc, box=box))
            assert canonical_dumps(lp_to_document(back)) == canonical_dumps(doc)


class TestEstimateCommand:
    def test_degenerate_instance_values(self, tmp_path):
        lp = write_json(tmp_path / "lp.json", EXAMPLE1_DOC)
        cfg = write_json(
            tmp_path / "cfg.json", {"lp": lp, "n": 5000, "penalty": {"w": 2.0}}
        )
        out = tmp_path / "out.json"
        assert run_cli(["estimate", "--config", cfg, "--diagnostics"], out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["estimators"]["debiased"]["value"] == -1.0
        assert doc["estimators"]["plugin"]["status"] == "optimal"
        assert abs(doc["diagnostics"]["delta"] - (math.sqrt(5) - 1) / 2) < 1e-9

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        bad = write_json(tmp_path / "bad.json", dict(EXAMPLE1_DOC, p=[1.0, 0.0, 0.0]))
        lp = write_json(tmp_path / "lp.json", EXAMPLE1_DOC)
        for doc in ({"lp": bad}, {"lp": lp, "penalty": {"w": [1.0, 2.0]}}):  # w: 2 of 4 rows
            cfg = write_json(tmp_path / "cfg.json", doc)
            assert run_cli(["estimate", "--config", cfg], tmp_path / "o.json") == EXIT_USAGE
            err = json.loads(capsys.readouterr().err)
            assert err["error"]["code"] == "dimension_mismatch"

    def test_infeasible_plugin_is_data_not_crash(self, tmp_path):
        doc = {
            "p": [1.0],
            "M": [[1.0], [-1.0]],
            "c": [1.0, 1.0],
            "box": {"lower": [-5.0], "upper": [5.0]},
        }
        lp = write_json(tmp_path / "lp.json", doc)
        cfg = write_json(
            tmp_path / "cfg.json",
            {"lp": lp, "estimators": ["plugin", "penalty"], "penalty": {"w": 1.0}},
        )
        out = tmp_path / "out.json"
        assert run_cli(["estimate", "--config", cfg], out) == EXIT_OK
        doc_out = json.loads(out.read_text())
        assert doc_out["estimators"]["plugin"]["status"] == "infeasible"
        assert doc_out["estimators"]["plugin"]["value"] is None
        assert doc_out["estimators"]["penalty"]["status"] == "optimal"

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"lp": "x.json", "mystery": 1})
        assert run_cli(["estimate", "--config", cfg], tmp_path / "o.json") == EXIT_USAGE
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "unknown_key"

    def test_diagnostics_on_box_supported_optimum_exits_1(self, tmp_path, capsys):
        # the optimum (-1, -1) rests on box rows, so no basis of M rows qualifies
        doc = {"p": [1.0, 1.0], "M": [[1.0, 1.0]], "c": [-10.0],
               "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}}
        lp = write_json(tmp_path / "lp.json", doc)
        cfg = write_json(tmp_path / "cfg.json", {"lp": lp, "estimators": ["plugin"]})
        code = run_cli(["estimate", "--config", cfg, "--diagnostics"], tmp_path / "o.json")
        assert code == EXIT_COMPUTE
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "computation_failed"
        assert err["message"].startswith("ValueError: no optimal KKT basis")

    def test_diagnostics_past_enumeration_cap_exits_1(self, tmp_path, capsys, rng):
        d, q = 20, 60
        M = rng.normal(size=(q, d))
        doc = {"p": rng.normal(size=d).tolist(), "M": M.tolist(),
               "c": (M @ rng.uniform(-1.0, 1.0, d) - 1.0).tolist(),
               "box": {"lower": [-5.0] * d, "upper": [5.0] * d}}
        lp = write_json(tmp_path / "lp.json", doc)
        cfg = write_json(tmp_path / "cfg.json", {"lp": lp, "estimators": ["plugin"]})
        code = run_cli(["estimate", "--config", cfg, "--diagnostics"], tmp_path / "o.json")
        assert code == EXIT_COMPUTE
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "computation_failed"
        assert err["message"].startswith("EnumerationCapError")


def random_lp_doc(seed: int, d: int = 10, q: int = 30) -> dict:
    """A random feasible LP in the box [-5, 5]^d, drawn as the lp_scale
    benchmark draws them."""
    rng = np.random.default_rng(seed)
    M, p = rng.standard_normal((q, d)), rng.standard_normal(d)
    c = M @ rng.uniform(-4.0, 4.0, d) - rng.uniform(0.1, 1.0, q)
    return {"p": p.tolist(), "M": M.tolist(), "c": c.tolist(),
            "box": {"lower": [-5.0] * d, "upper": [5.0] * d}}


class TestEstimateWarmStarts:
    """estimate shares one warm-start list between plugin and setexp and one
    between penalty and debiased; the outputs match solves from cold."""

    @staticmethod
    def estimate(tmp_path, config) -> dict:
        cfg = write_json(tmp_path / "cfg.json", config)
        out = tmp_path / "out.json"
        assert run_cli(["estimate", "--config", cfg], out) == EXIT_OK
        return json.loads(out.read_text())["estimators"]

    @staticmethod
    def solve_cold(monkeypatch):
        for name in ("plug_in_value", "penalty_value", "debiased_estimate",
                     "set_expansion_value"):
            solve = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args, bases, solve=solve: solve(*args))

    def test_shared_lists_match_cold_solves(self, tmp_path, monkeypatch, warm_starts):
        lp = write_json(tmp_path / "lp.json", random_lp_doc(3))
        shared = self.estimate(tmp_path, {"lp": lp, "n": 1000})
        # the debiased and set-expansion solves started warm
        assert warm_starts == [False, False, True, True]
        self.solve_cold(monkeypatch)
        cold = self.estimate(tmp_path, {"lp": lp, "n": 1000})
        assert len(warm_starts) == 4  # no list reached solve_lp
        for name in ("plugin", "penalty", "debiased"):
            assert canonical_dumps(shared[name]) == canonical_dumps(cold[name])
        assert shared["setexp"]["status"] == cold["setexp"]["status"] == "optimal"
        assert abs(shared["setexp"]["value"] - cold["setexp"]["value"]) <= 1e-12
        gap = np.subtract(shared["setexp"]["vertex"], cold["setexp"]["vertex"])
        assert np.abs(gap).max() <= 1e-12

    def test_zero_expansion_from_the_plugin_basis_is_the_plugin(self, tmp_path, warm_starts):
        lp = write_json(tmp_path / "lp.json", random_lp_doc(3))
        doc = self.estimate(tmp_path, {"lp": lp, "n": 1000, "kappa_n": 0,
                                       "estimators": ["plugin", "setexp"]})
        assert warm_starts == [False, True]
        assert doc["setexp"]["value"] == doc["plugin"]["value"]


class TestInferCommand:
    def test_zero_covariance_flags_degenerate(self, tmp_path):
        lp = write_json(tmp_path / "lp.json", EXAMPLE1_DOC)
        S = 2 + 4 * 2 + 4
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "mode": "gaussian", "lp": lp, "n": 60,
                "sigma": [[0.0] * S for _ in range(S)],
                "penalty": {"w": 2.0},
            },
        )
        out = tmp_path / "out.json"
        assert run_cli(["infer", "--config", cfg, "--seed", "4"], out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["degenerate_variance"] is True
        assert doc["ci_twosided"][0] == doc["ci_twosided"][1] == doc["estimate"]

    def test_seed_reproducibility_noisy_design(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json", {"mode": "example_b", "n": 500, "b": 0.0}
        )
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run_cli(["infer", "--config", cfg, "--seed", "11"], out) == EXIT_OK
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        doc = json.loads(outs[0])
        assert doc["ci_lower_onesided"] <= doc["estimate"] <= doc["ci_upper_onesided"]

    def test_csv_mode(self, tmp_path):
        lp = write_json(tmp_path / "lp.json", EXAMPLE1_DOC)
        params, _ = parse_lp_document(EXAMPLE1_DOC)
        theta = params.theta()
        rng = np.random.default_rng(8)
        rows = theta + 0.01 * rng.normal(size=(200, theta.size))
        data = tmp_path / "data.csv"
        np.savetxt(data, rows, delimiter=",")
        cfg = write_json(
            tmp_path / "cfg.json",
            {"mode": "csv", "lp": lp, "data": str(data), "penalty": {"w": 2.0}},
        )
        out = tmp_path / "out.json"
        assert run_cli(["infer", "--config", cfg, "--seed", "1"], out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["n1"] + doc["n2"] == 200
        assert -1.3 < doc["estimate"] < -0.7

    def test_a_binding_v_bar_bounds_the_printed_weight(self, tmp_path):
        # here the unconstrained dual weight is longer than v_bar, and every
        # binding row is a row of M, so the printed v is all of the weight
        cfg = write_json(tmp_path / "cfg.json", {"mode": "example_b", "n": 400, "v_bar": 0.5})
        out = tmp_path / "out.json"
        assert run_cli(["infer", "--config", cfg, "--seed", "3"], out) == EXIT_OK
        norm = math.hypot(*json.loads(out.read_text())["triplet"]["v"])
        assert 0.5 * (1.0 - 1e-12) <= norm <= 0.5 * (1.0 + 1e-12)

    def test_invalid_alpha_exits_2(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "cfg.json", {"mode": "example_b", "n": 100, "alpha": 1.5}
        )
        assert run_cli(["infer", "--config", cfg], tmp_path / "o.json") == EXIT_USAGE
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "validation_error"

    @pytest.mark.parametrize("command, doc", [
        pytest.param("infer", {"sigma_source": "bootstrap"}, id="sigma_source-bootstrap"),
        pytest.param("infer", {"bootstrap_reps": 500}, id="bootstrap_reps-500"),
        # removed keys
        pytest.param("estimate", {"lp": "lp.json", "penalty": {"wn_rule": "log"}},
                     id="penalty-wn_rule"),
        pytest.param("estimate", {"lp": "lp.json", "penalty": {"variant": "scalar"}},
                     id="penalty-variant"),
        pytest.param("estimate", {"lp": "lp.json", "seed": 1}, id="estimate-seed"),
        pytest.param("aicm", {"data": "micro.csv", "assumptions": {"kinds": ["bounds"]},
                              "target": {"type": "mean", "t": "1"}, "dump_lp": True},
                     id="aicm-dump_lp"),
        pytest.param("aicm", {"data": "micro.csv", "assumptions": {"kinds": ["bounds"]},
                              "target": {"type": "mean", "t": "1", "d": "0"}},
                     id="aicm-mean-d"),
        # keys the selected study or mode never reads
        pytest.param("simulate", {"study": "uniform_grid", "dgp": "uniform_grid",
                                  "penalty": {"w": 1}}, id="uniform_grid-penalty"),
        pytest.param("simulate", {"study": "inference", "dgp": "example_b",
                                  "estimators": ["plugin"]}, id="inference-estimators"),
        pytest.param("simulate", {"study": "consistency", "dgp": "example_a", "grid": "single"},
                     id="consistency-grid"),
        pytest.param("infer", {"data": "rows.csv"}, id="example_b-data"),
        pytest.param("infer", {"sigma": "junk"}, id="example_b-sigma"),
        pytest.param("infer", {"mode": "gaussian", "lp": "lp.json", "sigma": [[0.0]],
                               "data": "rows.csv"}, id="gaussian-data"),
        pytest.param("infer", {"mode": "csv", "lp": "lp.json", "data": "rows.csv", "n": 100},
                     id="csv-n"),
    ])
    def test_removed_bootstrap_keys_fail_closed(self, tmp_path, capsys, command, doc):
        if command == "infer" and "mode" not in doc:
            doc = {"mode": "example_b", "n": 100, **doc}
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert run_cli([command, "--config", cfg], tmp_path / "o.json") == EXIT_USAGE
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "unknown_key"


@pytest.mark.parametrize("argv", [
    ["estimate", "--seed", "1"], ["infer", "--diagnostics"], ["simulate", "--diagnostics"],
], ids=" ".join)
def test_flag_the_command_never_reads_exits_2(tmp_path, capsys, argv):
    cfg = write_json(tmp_path / "cfg.json", {})
    assert main(argv[:1] + ["--config", cfg] + argv[1:]) == EXIT_USAGE
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


class TestSimulateCommand:
    def test_single_replication_smoke(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "study": "consistency", "dgp": "example_a", "b": 0.0,
                "sample_sizes": [100], "replications": 1,
            },
        )
        out = tmp_path / "report.csv"
        assert run_cli(["simulate", "--config", cfg, "--seed", "2"], out) == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert {r["estimator"] for r in rows} == {"plugin", "penalty", "debiased", "setexp"}

    def test_unknown_estimator_exits_2(self, tmp_path, capsys):
        for doc in (
            {"study": "consistency", "dgp": "example_a", "estimators": ["bogus"]},
            {"study": "consistency", "dgp": "uniform_grid"},  # a study its design lacks
        ):
            cfg = write_json(tmp_path / "cfg.json", doc)
            assert run_cli(["simulate", "--config", cfg], tmp_path / "o.csv") == EXIT_USAGE
            assert json.loads(capsys.readouterr().err)["error"]["code"] == "validation_error"

    def test_the_runner_is_looked_up_when_the_command_runs(self, tmp_path, monkeypatch):
        calls = []
        real = cli.run_consistency
        monkeypatch.setattr(cli, "run_consistency",
                            lambda scenario: calls.append(scenario) or real(scenario))
        cfg = write_json(tmp_path / "cfg.json",
                         {"dgp": "example_a", "sample_sizes": [100], "replications": 1})
        assert run_cli(["simulate", "--config", cfg], tmp_path / "o.csv") == EXIT_OK
        assert [type(scenario) for scenario in calls] == [ConsistencyScenario]

    def test_uniform_grid_csv(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "study": "uniform_grid", "dgp": "uniform_grid",
                "sample_sizes": [100, 400], "replications": 10, "grid": "single",
            },
        )
        out = tmp_path / "grid.csv"
        assert run_cli(["simulate", "--config", cfg, "--seed", "2"], out) == EXIT_OK
        header = out.read_text().splitlines()[0]
        assert header == "n,sup_std,sqrt_n_scaled,adaptive_scaled,sqrt_n_normalized,failures"


@pytest.mark.parametrize("command, override", [
    ("simulate", {"replications": "x"}),
    ("simulate", {"sample_sizes": 5}),
    ("simulate", {"seed": "x"}),
    ("simulate", {"b": "x"}),
    ("estimate", {"penalty": {"alpha": "x"}}),
    ("estimate", {"kappa0": "x"}),
    ("infer", {"gamma": "x"}),
    ("infer", {"v_bar": "x"}),
    ("infer", {"v_bar_alpha": "x"}),
    ("infer", {"seed": "x"}),
    ("infer", {"b": "x"}),
    # right type, out of range
    pytest.param("simulate", {"study": "inference", "dgp": "example_b", "alpha": 1.5},
                 id="simulate-inference-alpha"),
    pytest.param("simulate", {"sample_sizes": [2]}, id="simulate-sample_sizes-range"),
    pytest.param("simulate", {"sample_sizes": []}, id="simulate-sample_sizes-empty"),
    pytest.param("simulate", {"study": "uniform_grid", "dgp": "uniform_grid", "sample_sizes": []},
                 id="simulate-uniform_grid-sample_sizes-empty"),
    pytest.param("simulate", {"estimators": []}, id="simulate-estimators-empty"),
    pytest.param("simulate", {"kappa0": -1}, id="simulate-kappa0-range"),
    pytest.param("estimate", {"estimators": []}, id="estimate-estimators-empty"),
    pytest.param("estimate", {"kappa0": -1}, id="estimate-kappa0-range"),
    pytest.param("simulate", {"penalty": {"w": -1}}, id="simulate-penalty-w"),
    # a fraction, and a bool where a number is read: bool passes isinstance(x, int)
    pytest.param("simulate", {"replications": 1.5}, id="simulate-replications-fraction"),
    pytest.param("simulate", {"replications": True}, id="simulate-replications-bool"),
    pytest.param("simulate", {"b": True}, id="simulate-b-bool"),
    pytest.param("simulate", {"study": "uniform_grid", "dgp": "uniform_grid", "slater": "yes"},
                 id="simulate-slater-string"),
    pytest.param("simulate", {"estimators": "plugin"}, id="simulate-estimators-string"),
    pytest.param("estimate", {"penalty": {"w": "x"}}, id="estimate-penalty-w"),
    pytest.param("estimate", {"n": True, "estimators": ["plugin"]}, id="estimate-n-bool"),
    pytest.param("estimate", {"estimators": "plugin"}, id="estimate-estimators-string"),
    pytest.param("estimate", {"estimators": 5}, id="estimate-estimators-number"),
    pytest.param("simulate", {"estimators": ["plugin", "plugin"]},
                 id="simulate-estimators-repeated"),
    pytest.param("estimate", {"estimators": ["plugin", "plugin"]},
                 id="estimate-estimators-repeated"),
    # the key that picks the mode, study or target type
    pytest.param("infer", {"mode": 5}, id="infer-mode-number"),
    pytest.param("simulate", {"study": "bogus"}, id="simulate-study-unknown"),
    # a design the study does not run on
    pytest.param("simulate", {"dgp": "uniform_grid"}, id="simulate-consistency-dgp"),
    pytest.param("simulate", {"study": "inference", "dgp": "example_a"},
                 id="simulate-inference-dgp"),
    pytest.param("simulate", {"study": "uniform_grid", "dgp": "example_b"},
                 id="simulate-uniform_grid-dgp"),
    pytest.param("aicm", {"target": {"type": "median", "t": "1"}}, id="aicm-target-type-unknown"),
    # gaussian infer checks n as example_b does: an integer >= 2
    pytest.param("infer-gaussian", {"n": "x"}, id="infer-gaussian-n-type"),
    pytest.param("infer-gaussian", {"n": 1.5}, id="infer-gaussian-n-fraction"),
    pytest.param("infer-gaussian", {"n": 1}, id="infer-gaussian-n-range"),
    pytest.param("aicm", {"assumptions": {"kinds": ["bounds"], "bounds": [0, 1], "relax": "x"}},
                 id="aicm-relax"),
    pytest.param("aicm", {"assumptions": {"kinds": "bounds", "bounds": [0, 1]}},
                 id="aicm-kinds-string"),
    pytest.param("aicm", {"assumptions": {"kinds": 5, "bounds": [0, 1]}}, id="aicm-kinds-number"),
    pytest.param("aicm", {"ci": {"bootstrap_reps": "x"}}, id="aicm-bootstrap_reps-type"),
    pytest.param("aicm", {"ci": {"bootstrap_reps": 0}}, id="aicm-bootstrap_reps-0"),
    pytest.param("aicm", {"ci": {"bootstrap_reps": 1}}, id="aicm-bootstrap_reps-1"),
    pytest.param("aicm", {"ci": {"bootstrap_reps": 2.5}}, id="aicm-bootstrap_reps-fraction"),
    pytest.param("aicm", {"ci": {"bootstrap_reps": cli.MAX_BOOTSTRAP_REPS + 1}},
                 id="aicm-bootstrap_reps-above-bound"),
    pytest.param("aicm", {"assumptions": {"kinds": ["bounds"], "bounds": [0, float("inf")]}},
                 id="aicm-bounds-infinite"),
    # a path key that is not a string: an int would be opened as a file descriptor
    pytest.param("estimate", {"lp": 0}, id="estimate-lp-int"),
    pytest.param("infer-gaussian", {"lp": 0}, id="infer-gaussian-lp-int"),
    pytest.param("infer-csv", {"data": 0}, id="infer-csv-data-int"),
    pytest.param("aicm", {"data": 0}, id="aicm-data-int"),
    # NaN and Infinity, which json reads, where a finite number is needed
    pytest.param("simulate", {"b": float("nan")}, id="simulate-b-nan"),
    pytest.param("simulate", {"b": float("inf")}, id="simulate-b-inf"),
    pytest.param("simulate", {"b": 10**400}, id="simulate-b-beyond-float"),
    pytest.param("infer", {"b": -10**400}, id="infer-b-beyond-float"),
    pytest.param("infer", {"b": float("nan")}, id="infer-b-nan"),
    pytest.param("estimate", {"kappa_n": float("inf")}, id="estimate-kappa_n-inf"),
    pytest.param("estimate", {"penalty": {"w": float("inf")}}, id="estimate-penalty-w-inf"),
    pytest.param("estimate", {"penalty": {"w": [1.0, float("nan"), 1.0, 1.0]}},
                 id="estimate-penalty-w-list-nan"),
    pytest.param("aicm", {"assumptions": {"kinds": ["bounds"], "bounds": [0, 1],
                                          "relax": float("inf")}}, id="aicm-relax-inf"),
    # an alpha in (0, 1) so small that 1 - alpha/2 rounds to 1, the normal
    # quantile's level, which NormalDist().inv_cdf refuses
    pytest.param("infer", {"n": 200, "alpha": 1e-300}, id="infer-alpha-tiny"),
    pytest.param("simulate", {"study": "inference", "dgp": "example_b", "sample_sizes": [200],
                              "replications": 2, "alpha": 1e-300}, id="simulate-alpha-tiny"),
    pytest.param("aicm", {"ci": {"alpha": 1e-300}}, id="aicm-alpha-tiny"),
    # a level in (0, 1) so small that its quantile delta_alpha, which the
    # penalty and v_bar rules divide by, rounds to 0
    pytest.param("infer", {"n": 200, "v_bar_alpha": 1e-300}, id="infer-v_bar_alpha-tiny"),
    pytest.param("estimate", {"n": 1000, "penalty": {"alpha": 1e-300}},
                 id="estimate-penalty-alpha-tiny"),
    pytest.param("simulate", {"penalty": {"alpha": 1e-300}}, id="simulate-penalty-alpha-tiny"),
], ids=lambda v: v if isinstance(v, str) else "-".join(v))
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, command, override):
    lp = write_json(tmp_path / "lp.json", EXAMPLE1_DOC)
    data = tmp_path / "micro.csv"
    data.write_text("y,t,z\n" + "".join(
        f"{0.1 * k},{t},{z}\n" for k in range(3) for t in "01" for z in ("z1", "z2")
    ))
    base = {
        "simulate": {"study": "consistency", "dgp": "example_a",
                     "sample_sizes": [100], "replications": 1},
        "estimate": {"lp": lp, "n": 100},
        "infer": {"mode": "example_b", "n": 100},
        "infer-gaussian": {"mode": "gaussian", "lp": lp, "n": 100, "sigma": np.eye(14).tolist()},
        "infer-csv": {"mode": "csv", "lp": lp, "data": str(data)},
        "aicm": {"data": str(data), "assumptions": {"kinds": ["bounds"], "bounds": [0, 1]},
                 "target": {"type": "ate", "t": "1", "d": "0"}},
    }[command]
    cfg = write_json(tmp_path / "cfg.json", {**base, **override})
    assert run_cli([command.split("-")[0], "--config", cfg], tmp_path / "o") == EXIT_USAGE
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["code"] == "validation_error"
    # the message opens with the key at fault, a top-level or nested key
    keys = set(override) | {k for v in override.values() if isinstance(v, dict) for k in v}
    assert error["message"].split()[0] in keys


# Every dataclass a command reads its documents with -> the command, a base
# config it accepts, and the keys from that config (or, after "LP", from the LP
# file it names) to the object the dataclass reads. "<lp>" stands for the path
# of a valid LP file. SimulationScenario holds the keys every study reads and
# is tested on them; each study's class is tested on the keys it adds.
_AICM = {"data": "micro.csv", "assumptions": {"kinds": ["bounds"], "bounds": [0, 1]},
         "target": {"type": "ate", "t": "1", "d": "0"}, "ci": {}}
_SIM = {"dgp": "example_a", "sample_sizes": [100], "replications": 1}
_SCHEMA = [
    (cli.LpDocument, "estimate", {"lp": "<lp>"}, ("LP",)),
    (cli.LpBox, "estimate", {"lp": "<lp>"}, ("LP", "box")),
    (cli.EstimateConfig, "estimate", {"lp": "<lp>"}, ()),
    (PenaltyConfig, "estimate", {"lp": "<lp>", "penalty": {}}, ("penalty",)),
    (cli.CsvInference, "infer", {"mode": "csv", "lp": "<lp>", "data": "rows.csv"}, ()),
    (cli.GaussianInference, "infer", {"mode": "gaussian", "lp": "<lp>", "n": 100,
                                      "sigma": np.eye(14).tolist()}, ()),
    (cli.ExampleBInference, "infer", {"mode": "example_b", "n": 100}, ()),
    (SimulationScenario, "simulate", dict(_SIM, study="consistency"), ()),
    (ConsistencyScenario, "simulate", dict(_SIM, study="consistency"), ()),
    (InferenceScenario, "simulate", dict(_SIM, study="inference", dgp="example_b"), ()),
    (UniformGridScenario, "simulate", dict(_SIM, study="uniform_grid", dgp="uniform_grid"), ()),
    (cli.AicmConfig, "aicm", _AICM, ()),
    (cli.CiConfig, "aicm", _AICM, ("ci",)),
    (AssumptionSpec, "aicm", _AICM, ("assumptions",)),
    (MeanPotential, "aicm", dict(_AICM, target={"type": "mean", "t": "1"}), ("target",)),
    (ATE, "aicm", _AICM, ("target",)),
]


def _members(tp) -> tuple:
    return get_args(tp) if get_origin(tp) is Union else (tp,)


def _holds_object(tp) -> bool:
    return any(is_dataclass(m) or m is dict for m in _members(tp))


def test_schema_lists_every_document_dataclass():
    read, todo = set(), [*cli._INFER_MODES.values(), *cli._STUDIES.values(),
                         *cli._TARGETS.values(), cli.LpDocument, cli.EstimateConfig,
                         cli.AicmConfig, AssumptionSpec]
    while todo:
        cls = todo.pop()
        if cls not in read:
            read.add(cls)
            todo += [m for tp in get_type_hints(cls).values() for m in _members(tp)
                     if is_dataclass(m)]
    listed = {cls for cls, *_ in _SCHEMA}
    assert read <= listed
    assert all(any(issubclass(r, cls) for r in read) for cls in listed)


def _schema_cases():
    listed = {cls for cls, *_ in _SCHEMA}
    for cls, command, base, path in _SCHEMA:
        tested = {name for b in cls.__mro__[1:] if b in listed for name in get_type_hints(b)}
        for name, tp in get_type_hints(cls).items():
            if tp is object or name in tested:  # any JSON value fits, or tested on a base
                continue
            yield pytest.param(cls, command, base, path, name, tp, id=f"{cls.__name__}.{name}")


@pytest.mark.parametrize("cls, command, base, path, name, tp", _schema_cases())
def test_schema_value_of_wrong_type_exits_2(tmp_path, capsys, cls, command, base, path, name, tp):
    wrong = "x" if tp is bool else True  # true is a JSON value of no other annotation
    config, lp_doc = json.loads(json.dumps(base)), json.loads(json.dumps(EXAMPLE1_DOC))
    obj = lp_doc if path[:1] == ("LP",) else config
    for key in path[1:] if obj is lp_doc else path:
        obj = obj[key]
    obj[name] = wrong
    lp = write_json(tmp_path / "lp.json", lp_doc)
    config = {k: lp if v == "<lp>" else v for k, v in config.items()}
    cfg = write_json(tmp_path / "cfg.json", config)
    assert run_cli([command, "--config", cfg], tmp_path / "o") == EXIT_USAGE
    error = json.loads(capsys.readouterr().err)["error"]
    # a key that holds an object fails as a document, every other as a value
    assert error["code"] == ("invalid_document" if _holds_object(tp) else "validation_error")
    assert error["message"].split()[0] == name


def test_infinite_v_bar_still_runs(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"mode": "example_b", "n": 200, "v_bar": float("inf")})
    assert run_cli(["infer", "--config", cfg, "--seed", "1"], tmp_path / "o.json") == EXIT_OK


def test_lp_path_that_is_an_int_leaves_stdout_open(tmp_path):
    # opened as a file descriptor, an int lp would be fd 1, closed on the way
    # out; a subprocess keeps the test process's own stdout out of harm's way
    cfg = write_json(tmp_path / "cfg.json", {"lp": 1})
    script = ("import os; from lpbound.cli import main; "
              f"code = main(['estimate', '--config', {cfg!r}]); os.fstat(1); print(code)")
    src = str(Path(lpbound.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, stdin=subprocess.DEVNULL, timeout=120)
    assert (done.returncode, done.stdout) == (0, f"{EXIT_USAGE}\n")
    assert json.loads(done.stderr)["error"]["code"] == "validation_error"


def _main_in_subprocess(command: str, cfg: str) -> subprocess.CompletedProcess:
    """`lpbound COMMAND --config CFG` in a fresh interpreter, whose stderr holds
    every warning as a user would see it, outside pytest's capture."""
    script = ("import sys; from lpbound.cli import main; "
              f"sys.exit(main([{command!r}, '--config', {cfg!r}]))")
    src = str(Path(lpbound.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, stdin=subprocess.DEVNULL, timeout=120)


def test_main_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    # a usage error leaves the shared parser as it was: the next command
    # prints what it prints in a fresh process
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    lp = write_json(tmp_path / "lp.json", EXAMPLE1_DOC)
    cfg = write_json(tmp_path / "cfg.json", {"lp": lp, "n": 5000})
    capsys.readouterr()
    assert main(["estimate"]) == EXIT_USAGE
    assert "the following arguments are required: --config" in capsys.readouterr().err
    assert main(["estimate", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert main(["infer", "--config", cfg, "--seed", "x"]) == EXIT_USAGE
    assert len(built) == 1
    fresh = _main_in_subprocess("estimate", cfg)
    assert (fresh.returncode, fresh.stderr) == (EXIT_OK, "")
    assert out.encode() == fresh.stdout.encode()


def test_lp_entry_beyond_the_float_range_exits_2(tmp_path, capsys):
    # json reads an integer literal exactly; float() of it overflows
    lp = write_json(tmp_path / "lp.json", dict(EXAMPLE1_DOC, c=[0, 0, -1, 10**400]))
    cfg = write_json(tmp_path / "cfg.json", {"lp": lp, "n": 100})
    assert run_cli(["estimate", "--config", cfg], tmp_path / "o.json") == EXIT_USAGE
    error = json.loads(capsys.readouterr().err)["error"]
    assert (error["code"], error["message"]) == (
        "validation_error", f"c must be finite, got {[0, 0, -1, 10**400]!r}")


def test_a_value_json_cannot_hold_exits_1_writing_nothing(tmp_path, capsys):
    # c[0] = 1e308 sends the penalty value to inf, which JSON cannot hold (RFC 8259);
    # the overflow raises where it happens
    lp = write_json(tmp_path / "lp.json", dict(EXAMPLE1_DOC, c=[1e308, 0.0, -1.0, -1.0]))
    cfg = write_json(tmp_path / "cfg.json", {"lp": lp, "n": 5000, "penalty": {"w": 2.0}})
    out = tmp_path / "o.json"
    assert run_cli(["estimate", "--config", cfg], out) == EXIT_COMPUTE
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "code": "computation_failed",
        "message": "FloatingPointError: overflow encountered in matmul"}


@pytest.mark.parametrize("field, value, doc, operation", [
    # finite entries whose norms overflow in the default penalty
    ("p", [-1e300, 1e300], {"n": 100}, "dot"),
    ("M", [[-1e300, 1e300], [1.0, -1.0], [1.0, 0.0], [-1.0, 0.0]], {"n": 100}, "multiply"),
    # a penalty value past the float range
    ("c", [1e308, 0.0, -1.0, -1.0], {"n": 5000, "penalty": {"w": 2.0}}, "matmul"),
], ids=["p", "M", "c"])
def test_floating_point_overflow_exits_1_with_one_json_error(tmp_path, field, value, doc,
                                                              operation):
    lp = write_json(tmp_path / "lp.json", dict(EXAMPLE1_DOC, **{field: value}))
    cfg = write_json(tmp_path / "cfg.json", dict(doc, lp=lp))
    done = _main_in_subprocess("estimate", cfg)
    assert (done.returncode, done.stdout) == (EXIT_COMPUTE, "")
    assert json.loads(done.stderr)["error"] == {  # the JSON error is all of stderr
        "code": "computation_failed",
        "message": f"FloatingPointError: overflow encountered in {operation}"}


@pytest.mark.parametrize("where", ["config", "LP file"])
def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys, where):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"lp": "\xff"}')
    cfg = str(bad) if where == "config" else write_json(tmp_path / "cfg.json", {"lp": str(bad)})
    assert run_cli(["estimate", "--config", cfg], tmp_path / "o.json") == EXIT_USAGE
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["code"] == "invalid_json"
    assert error["message"].startswith(f"{where} {bad}: 'utf-8' codec can't decode byte 0xff")


def test_json_nested_past_the_recursion_limit_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 100_000)
    assert run_cli(["estimate", "--config", str(cfg)], tmp_path / "o.json") == EXIT_USAGE
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["code"] == "invalid_json"
    assert error["message"].startswith(f"config {cfg}: maximum recursion depth exceeded")


def test_a_failed_allocation_exits_1_with_one_json_error(tmp_path, capsys, monkeypatch):
    # stands in for a sample size whose draws numpy cannot allocate
    def draw_theta(*args):
        raise MemoryError("Unable to allocate 728. TiB for an array")

    monkeypatch.setattr(montecarlo, "draw_theta", draw_theta)
    cfg = write_json(tmp_path / "cfg.json", {"study": "consistency", "dgp": "example_a",
                                             "sample_sizes": [100], "replications": 1,
                                             "estimators": ["plugin"]})
    out = tmp_path / "o.csv"
    assert run_cli(["simulate", "--config", cfg], out) == EXIT_COMPUTE
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "code": "computation_failed",
        "message": "MemoryError: Unable to allocate 728. TiB for an array"}


@pytest.mark.parametrize("command, doc, name", [
    ("estimate", {"n": 100}, "M"),
    ("infer", {"mode": "gaussian", "n": 100, "sigma": [[1.0] * 14, [1.0]] + [[1.0] * 14] * 12},
     "sigma"),
], ids=["M", "sigma"])
def test_ragged_array_exits_2(tmp_path, capsys, command, doc, name):
    M = [[-1.0, 1.0], [1.0], [1.0, 0.0], [-1.0, 0.0]] if name == "M" else EXAMPLE1_DOC["M"]
    lp = write_json(tmp_path / "lp.json", dict(EXAMPLE1_DOC, M=M))
    cfg = write_json(tmp_path / "cfg.json", dict(doc, lp=lp))
    assert run_cli([command, "--config", cfg], tmp_path / "o.json") == EXIT_USAGE
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"code": "dimension_mismatch", "message": f"{name} must be a numeric array"}


def test_one_record_fold_exits_1_without_warnings(tmp_path):
    # n = 3 leaves fold 1 one record, whose sample covariance numpy warns on
    cfg = write_json(tmp_path / "cfg.json", {"mode": "example_b", "n": 3})
    done = _main_in_subprocess("infer", cfg)
    assert (done.returncode, done.stdout) == (EXIT_COMPUTE, "")
    error = json.loads(done.stderr)["error"]  # the JSON error is all of stderr
    assert error == {"code": "inference_failed", "message": "degenerate fold sizes (1, 2)"}


def test_gaussian_sigma_that_is_not_psd_exits_2(tmp_path):
    # numpy only warns on such a covariance and draws from it
    lp = write_json(tmp_path / "lp.json", EXAMPLE1_DOC)
    cfg = write_json(tmp_path / "cfg.json",
                     {"mode": "gaussian", "lp": lp, "n": 100, "sigma": (-np.eye(14)).tolist()})
    done = _main_in_subprocess("infer", cfg)
    assert (done.returncode, done.stdout) == (EXIT_USAGE, "")
    error = json.loads(done.stderr)["error"]  # the JSON error is all of stderr
    assert error["code"] == "validation_error"
    assert error["message"].startswith("sigma is not PSD")


@pytest.mark.parametrize("text", ["", "# a comment and no rows\n"])
def test_data_csv_with_no_rows_exits_2_with_one_json_error(tmp_path, text):
    # numpy's loadtxt warns on a file with no data and returns one column
    lp = write_json(tmp_path / "lp.json", EXAMPLE1_DOC)
    data = tmp_path / "empty.csv"
    data.write_text(text)
    cfg = write_json(tmp_path / "cfg.json", {"mode": "csv", "lp": lp, "data": str(data)})
    done = _main_in_subprocess("infer", cfg)
    assert (done.returncode, done.stdout) == (EXIT_USAGE, "")
    error = json.loads(done.stderr)["error"]  # the JSON error is all of stderr
    assert error == {"code": "io_error", "message": f"cannot read data CSV {data}: no data rows"}


class TestAicmCommand:
    @staticmethod
    def proof_example_csv(tmp_path):
        # equal-sized instrument cells; P[T=0 | Z] = (1/8, 1/2, 1/4); all y = 0
        rows = [("y", "t", "z")]
        for z, n0 in (("z1", 1), ("z2", 4), ("z3", 2)):
            for i in range(8):
                rows.append((0.0, "0" if i < n0 else "1", z))
        path = tmp_path / "micro.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return str(path)

    def test_proof_example_bounds(self, tmp_path):
        data = self.proof_example_csv(tmp_path)
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "data": data,
                "assumptions": {"kinds": ["bounds", "cmiv_p"], "bounds": [-1.0, 1.0]},
                "target": {"type": "mean", "t": "1"},
            },
        )
        out = tmp_path / "out.json"
        assert run_cli(["aicm", "--config", cfg], out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert abs(doc["bounds"]["lower"] - (-5.0 / 48.0)) < 1e-8
        assert abs(doc["bounds"]["upper"] - 0.1875) < 1e-8
        assert doc["target"] == {"type": "mean"}  # the config's own name

    def test_degenerate_point_bounds(self, tmp_path):
        data = self.proof_example_csv(tmp_path)
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "data": data,
                "assumptions": {"kinds": ["bounds"], "bounds": [0.0, 1e-12]},
                "target": {"type": "mean", "t": "1"},
            },
        )
        out = tmp_path / "out.json"
        assert run_cli(["aicm", "--config", cfg], out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert abs(doc["bounds"]["upper"] - doc["bounds"]["lower"]) < 1e-9

    def test_ate_with_ci_and_lp_dump(self, tmp_path, rng):
        rows = [("y", "t", "z")]
        for z, pt in (("z1", 0.35), ("z2", 0.65)):
            for _ in range(120):
                t = "1" if rng.random() < pt else "0"
                y = round(float(np.clip(rng.normal(0.6 if t == "1" else 0.4, 0.2), 0, 1)), 6)
                rows.append((y, t, z))
        data = tmp_path / "micro.csv"
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "data": str(data),
                "assumptions": {"kinds": ["bounds", "miv"], "bounds": [0.0, 1.0]},
                "target": {"type": "ate", "t": "1", "d": "0"},
                "ci": {"alpha": 0.05, "bootstrap_reps": 100},
            },
        )
        out = tmp_path / "out.json"
        assert run_cli(["aicm", "--config", cfg, "--seed", "6", "--diagnostics"], out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["bounds"]["lower"] <= doc["bounds"]["upper"]
        assert doc["ci"]["lower"] <= doc["ci"]["upper"]
        for key in ("estimates", "se", "degenerate_variance"):  # one entry per direction
            assert set(doc["ci"][key]) == {"lower", "upper"}
        assert "ets_estimate" in doc
        assert doc["target"] == {"type": "ate"}
        assert "M" in doc["lp"] and "p" in doc["lp"]

    @pytest.mark.parametrize("kinds, target, missing", [
        (["bounds", "mtr"], {"type": "ate", "t": "1", "d": "0"}, False),
        (["bounds"], {"type": "mean", "t": "1"}, True),  # no outcomes for t = 0
    ], ids=["mtr-ate", "missing-mean"])
    def test_ci_on_the_general_program(self, tmp_path, rng, kinds, target, missing):
        # the outcome bounds are the box, so no row of M is zero and the
        # penalty can be selected
        cfg = self._general_config(tmp_path, self._general_rows(rng, missing), kinds, target)
        out = tmp_path / "out.json"
        assert run_cli(["aicm", "--config", cfg, "--seed", "3", "--diagnostics"], out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["statuses"] == {"lower": "optimal", "upper": "optimal"}
        assert all(any(row) for row in doc["lp"]["M"])
        ci = doc["ci"]
        assert ci["lower"] <= ci["upper"]
        for side in ("lower", "upper"):  # sigma_min is 0, so a degenerate se is 0
            assert ci["degenerate_variance"][side] == (ci["se"][side] == 0.0)
            if ci["se"][side] == 0.0:
                # a known defect, not what the interval should be: that end
                # is its point estimate, as the noise in p and the offset is
                # left out of the variance (ROADMAP.md item 2)
                assert ci[side] == ci["estimates"][side]

    @pytest.mark.parametrize("cell_mean, code", [(0.01, EXIT_OK), (-0.01, EXIT_COMPUTE)])
    def test_ci_with_an_outcome_below_k0(self, tmp_path, rng, capsys, cell_mean, code):
        # one outcome far below K0 = 0 sets the mean of cell (T=0, Z=z1) to
        # cell_mean. At 0.01 the full sample holds but the fold and the
        # bootstrap draws that hold that record twice refute the bound: the
        # folds and draws compile the full sample's rows all the same. At
        # -0.01 the full sample refutes the bounds, and there is no interval.
        rows = self._general_rows(rng, missing=False)
        cell = [i for i, (y, t, z) in enumerate(rows) if (t, z) == ("0", "z1")]
        others = sum(rows[i][0] for i in cell[1:])
        rows[cell[0]] = (round(cell_mean * len(cell) - others, 6), "0", "z1")
        cfg = self._general_config(tmp_path, rows, ["bounds", "mtr"],
                                   {"type": "ate", "t": "1", "d": "0"})
        out = tmp_path / "out.json"
        assert run_cli(["aicm", "--config", cfg, "--seed", "3"], out) == code
        if code == EXIT_OK:
            doc = json.loads(out.read_text())
            assert doc["statuses"] == {"lower": "optimal", "upper": "optimal"}
            assert doc["ci"]["lower"] <= doc["ci"]["upper"]
        else:
            err = json.loads(capsys.readouterr().err)["error"]
            assert err["code"] == "inference_failed"
            assert "refute" in err["message"]

    @pytest.mark.parametrize("missing", [False, True], ids=["full", "missing"])
    def test_no_kinds_leave_the_target_unbounded(self, tmp_path, rng, missing):
        # no assumptions and no outcome bounds: M has no rows and the box no
        # sides, with full and with missing outcomes alike
        data = tmp_path / "micro.csv"
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows([("y", "t", "z")] + self._general_rows(rng, missing))
        cfg = write_json(tmp_path / "cfg.json", {
            "data": str(data), "assumptions": {"kinds": []}, "target": {"type": "mean", "t": "1"},
        })
        out = tmp_path / "out.json"
        assert run_cli(["aicm", "--config", cfg, "--diagnostics"], out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["statuses"] == {"lower": "unbounded", "upper": "unbounded"}
        assert doc["lp"]["M"] == []

    @pytest.mark.parametrize("ci", [False, True], ids=["bounds", "ci"])
    def test_a_single_treatment_level_identifies_the_mean(self, tmp_path, monkeypatch, capsys, ci):
        # every record has t = 1, so E[Y(1)] = E[Y] is the offset and no
        # variable is left: both bounds are that point, found with no solve
        data = tmp_path / "micro.csv"
        data.write_text("y,t,z\n0.25,1,z1\n0.5,1,z1\n0.75,1,z2\n")
        config = {"data": str(data), "assumptions": {"kinds": ["bounds"], "bounds": [0.0, 1.0]},
                  "target": {"type": "mean", "t": "1"}}
        if ci:
            config["ci"] = {"bootstrap_reps": 20}
        monkeypatch.setattr(aicm, "solve_lp", None)
        out = tmp_path / "out.json"
        code = run_cli(["aicm", "--config", write_json(tmp_path / "cfg.json", config)], out)
        if not ci:
            assert code == EXIT_OK
            doc = json.loads(out.read_text())
            assert doc["bounds"] == {"lower": 0.5, "upper": 0.5}
            assert doc["statuses"] == {"lower": "optimal", "upper": "optimal"}
            return
        assert code == EXIT_COMPUTE
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "inference_failed"
        assert "identify the target E[Y(1)]" in err["message"]

    @pytest.mark.parametrize("seed", [7, 10])
    def test_a_fold_that_loses_a_level_exits_1(self, tmp_path, capsys, seed):
        # z3 has one record per treatment, and these seeds' splits put both
        # in one fold: the other fold has no level z3, so the program it
        # would compile is smaller than the bootstrap covariance
        rows = [(round(0.1 * (i % 9), 6), str(i % 2), f"z{i // 2 % 2 + 1}") for i in range(200)]
        rows += [(0.1, "0", "z3"), (0.3, "1", "z3")]
        cfg = self._general_config(tmp_path, rows, ["bounds", "miv"],
                                   {"type": "ate", "t": "1", "d": "0"})
        assert run_cli(["aicm", "--config", cfg, "--seed", str(seed)],
                       tmp_path / "o.json") == EXIT_COMPUTE
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "inference_failed"
        assert err["message"].startswith("fold produced an invalid table") and "z3" in err["message"]

    def test_a_single_treatment_level_can_refute_miv(self, tmp_path):
        # E[Y | z] falls from z1 to z2, which the monotone instrument forbids
        data = tmp_path / "micro.csv"
        data.write_text("y,t,z\n0.75,1,z1\n0.5,1,z1\n0.25,1,z2\n")
        cfg = write_json(tmp_path / "cfg.json", {
            "data": str(data), "assumptions": {"kinds": ["bounds", "miv"], "bounds": [0.0, 1.0]},
            "target": {"type": "mean", "t": "1"}})
        out = tmp_path / "out.json"
        assert run_cli(["aicm", "--config", cfg], out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["statuses"] == {"lower": "infeasible", "upper": "infeasible"}

    @staticmethod
    def _general_rows(rng, missing):
        """240 (y, t, z) records with y in [0, 1]; y is empty for t = 0 when
        missing."""
        rows = []
        for z, pt in (("z1", 0.35), ("z2", 0.65)):
            for _ in range(120):
                t = "1" if rng.random() < pt else "0"
                y = round(float(np.clip(rng.normal(0.6 if t == "1" else 0.4, 0.2), 0, 1)), 6)
                rows.append(("" if missing and t == "0" else y, t, z))
        return rows

    @staticmethod
    def _general_config(tmp_path, rows, kinds, target):
        data = tmp_path / "micro.csv"
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows([("y", "t", "z")] + rows)
        return write_json(tmp_path / "cfg.json", {
            "data": str(data),
            "assumptions": {"kinds": kinds, "bounds": [0.0, 1.0]},
            "target": target,
            "ci": {"bootstrap_reps": 50},
        })

    def test_empty_cell_surfaces_cell(self, tmp_path, capsys):
        rows = [("y", "t", "z"), (0.1, "1", "z1"), (0.2, "0", "z1"), (0.3, "1", "z2")]
        data = tmp_path / "micro.csv"
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "data": str(data),
                "assumptions": {"kinds": ["bounds"], "bounds": [0.0, 1.0]},
                "target": {"type": "mean", "t": "1"},
            },
        )
        assert run_cli(["aicm", "--config", cfg], tmp_path / "o.json") == EXIT_USAGE
        err = json.loads(capsys.readouterr().err)
        assert "z2" in err["error"]["message"]

    @pytest.mark.parametrize("content, code, fault", [
        (b"y,t,z\n0.1,1,z\xff\n", "table_error",
         "microdata CSV {data} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
        (None, "io_error", "cannot read microdata CSV {data}: [Errno 2] No such file"),
    ], ids=["not-utf8", "missing"])
    def test_a_microdata_csv_that_cannot_be_read_exits_2(self, tmp_path, capsys, content, code,
                                                         fault):
        data = tmp_path / "micro.csv"
        if content is not None:
            data.write_bytes(content)
        cfg = write_json(tmp_path / "cfg.json", {
            "data": str(data),
            "assumptions": {"kinds": ["bounds"], "bounds": [0.0, 1.0]},
            "target": {"type": "mean", "t": "1"},
        })
        assert run_cli(["aicm", "--config", cfg], tmp_path / "o.json") == EXIT_USAGE
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["code"] == code
        assert error["message"].startswith(fault.format(data=data))

    @pytest.mark.parametrize("row, fault", [
        ("abc,0,z1", "y must be a finite number or empty, got 'abc'"),
        ("0.2,0", "expected 3 fields y,t,z, got 2"),
        ("0.2,0,z1,extra", "expected 3 fields y,t,z, got 4"),
        ("inf,0,z1", "y must be a finite number or empty, got 'inf'"),
        ("-Infinity,0,z1", "y must be a finite number or empty, got '-Infinity'"),
        ("nan,0,z1", "y must be a finite number or empty, got 'nan'"),  # not a missing y
    ])
    def test_bad_csv_row_names_its_line(self, tmp_path, capsys, row, fault):
        data = tmp_path / "micro.csv"
        data.write_text(f"y,t,z\n0.1,1,z1\n\n{row}\n0.3,0,z1\n")
        cfg = write_json(tmp_path / "cfg.json", {
            "data": str(data),
            "assumptions": {"kinds": ["bounds"], "bounds": [0.0, 1.0]},
            "target": {"type": "mean", "t": "1"},
        })
        assert run_cli(["aicm", "--config", cfg], tmp_path / "o.json") == EXIT_USAGE
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"code": "table_error", "message": f"microdata CSV line 4: {fault}"}
