import csv
import json
import math

import numpy as np
import pytest

from lpbound.cli import (
    EXIT_COMPUTE,
    EXIT_OK,
    EXIT_USAGE,
    canonical_dumps,
    lp_to_document,
    main,
    parse_lp_document,
)

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

    def test_unknown_keys_rejected(self):
        doc = dict(EXAMPLE1_DOC, extra=1)
        from lpbound.cli import CliError

        with pytest.raises(CliError, match="unknown keys"):
            parse_lp_document(doc)

    def test_canonical_floats(self):
        assert canonical_dumps({"x": 1.0 / 3.0}) == '{"x":0.33333333333333331}\n'
        assert canonical_dumps({"b": True, "n": None}) == '{"b":true,"n":null}\n'


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
        theta = np.concatenate([params.p, params.M.flatten(order="F"), params.c])
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
        assert header == "n,sup_std,sqrt_n_scaled,adaptive_scaled,sqrt_n_normalized"


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
    pytest.param("simulate", {"kappa0": -1}, id="simulate-kappa0-range"),
    pytest.param("simulate", {"penalty": {"w": -1}}, id="simulate-penalty-w"),
    pytest.param("estimate", {"penalty": {"w": "x"}}, id="estimate-penalty-w"),
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
        "infer-gaussian": {"mode": "gaussian", "lp": lp, "sigma": np.eye(14).tolist()},
        "aicm": {"data": str(data), "assumptions": {"kinds": ["bounds"], "bounds": [0, 1]},
                 "target": {"type": "ate", "t": "1", "d": "0"}},
    }[command]
    cfg = write_json(tmp_path / "cfg.json", {**base, **override})
    assert run_cli([command.split("-")[0], "--config", cfg], tmp_path / "o") == EXIT_USAGE
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "validation_error"


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
        assert "ets_estimate" in doc
        assert "M" in doc["lp"] and "p" in doc["lp"]

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
