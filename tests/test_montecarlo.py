import math

import numpy as np
import pytest

from lpbound.linalg import INFEASIBLE, solve_lp
from lpbound.montecarlo import (
    ScenarioError,
    SimulationScenario,
    draw_theta,
    example_a_params,
    example_b_params,
    grid_points,
    grid_wn,
    loglog_slope,
    rng_for,
    run_consistency,
    run_inference_study,
    run_uniform_grid,
)


class TestScenarioValidation:
    def test_unknown_estimator(self):
        with pytest.raises(ScenarioError):
            SimulationScenario(dgp="example_a", estimators=("bogus",))

    def test_sample_sizes_must_increase(self):
        with pytest.raises(ScenarioError):
            SimulationScenario(dgp="example_a", sample_sizes=(100, 100))

    def test_unknown_dgp(self):
        with pytest.raises(ScenarioError):
            SimulationScenario(dgp="mystery")


class TestDrawTheta:
    def test_clt_centering(self):
        scenario = SimulationScenario(dgp="example_a", b=0.3, replications=1)
        rng = np.random.default_rng(0)
        draws = np.array(
            [draw_theta(scenario, 50, rng).M[0, 0] for _ in range(100_000)]
        )
        b_hats = -draws - 1.0
        se = (1.0 / math.sqrt(3.0)) / math.sqrt(50) / math.sqrt(draws.size)
        assert abs(b_hats.mean() - 0.3) < 3.0 * se

    def test_noisy_rhs_can_be_infeasible(self):
        params = example_b_params(0.0, 0.0, 0.1)
        assert solve_lp(params).status == INFEASIBLE

    def test_truth_from_solver(self):
        assert solve_lp(example_a_params(0.0)).value == -1.0
        assert solve_lp(example_a_params(-0.05)).value == 0.0


class TestRngDiscipline:
    def test_reproducible_streams(self):
        a = rng_for(3, 1, 7).uniform(size=5)
        b = rng_for(3, 1, 7).uniform(size=5)
        assert np.array_equal(a, b)

    def test_replications_are_independent(self):
        means = [rng_for(3, 1, rep).uniform(-1, 1, 2000).mean() for rep in range(40)]
        # adjacent replications must not share their streams
        diffs = np.abs(np.diff(means))
        assert np.median(diffs) > 1e-3

    def test_streams_differ(self):
        assert not np.array_equal(
            rng_for(3, 1, 7, 0).uniform(size=4), rng_for(3, 1, 7, 1).uniform(size=4)
        )


class TestConsistencyStudy:
    def test_bit_reproducible(self):
        scenario = SimulationScenario(
            dgp="example_a", b=0.0, sample_sizes=(100,), replications=25, seed=5
        )
        a = run_consistency(scenario).to_csv()
        b = run_consistency(scenario).to_csv()
        assert a == b

    @pytest.mark.parametrize("b", [0.0, -0.05])
    def test_warm_started_study_matches_cold_solves(self, warm_starts, b):
        from lpbound.estimators import (
            PenaltyConfig, debiased_estimate, default_kappa_n, penalty_value,
            set_expansion_value,
        )

        scenario = SimulationScenario(
            dgp="example_a", b=b, sample_sizes=(100, 1000), replications=50, seed=11
        )
        report = run_consistency(scenario)
        assert warm_starts.count(True) > len(warm_starts) // 2  # the cold loop passes no list
        truth = solve_lp(example_a_params(b)).value
        rows = iter(report.rows)
        for n_idx, n in enumerate(scenario.sample_sizes):
            values = {"plugin": [], "penalty": [], "debiased": [], "setexp": []}
            for rep in range(scenario.replications):
                params = draw_theta(scenario, n, rng_for(scenario.seed, n_idx, rep))
                w = PenaltyConfig().resolve_w(params, n)
                values["plugin"].append(solve_lp(params).value)
                values["penalty"].append(penalty_value(params, w))
                values["debiased"].append(debiased_estimate(params, w).value)
                values["setexp"].append(
                    set_expansion_value(params, default_kappa_n(n, 0.1), n).value)
            for est, cold in values.items():
                row = next(rows)
                cold = np.array(cold)
                assert (row.estimator, row.n, row.failures) == (est, n, 0)
                assert abs(row.mean - cold.mean()) <= 1e-12
                assert abs(row.bias - (cold.mean() - truth)) <= 1e-12
                assert abs(row.std - cold.std()) <= 1e-12
                assert abs(row.rmse - np.sqrt(np.mean((cold - truth) ** 2))) <= 1e-12

    def test_failure_accounting_on_noisy_rhs(self):
        scenario = SimulationScenario(
            dgp="example_b", b=0.0, sample_sizes=(5000,), replications=200,
            seed=3, estimators=("plugin",),
        )
        report = run_consistency(scenario)
        row = report.rows[0]
        assert 0 < row.failures < 200
        assert row.failures / 200.0 > 0.2

    def test_consistency_study_counts_failures(self, monkeypatch):
        import lpbound.montecarlo as mc
        from lpbound.linalg import SolverError

        calls = []

        def fail_first(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise SolverError("forced")
            return real(*args, **kwargs)

        real = mc.penalty_value
        monkeypatch.setattr(mc, "penalty_value", fail_first)
        scenario = SimulationScenario(
            dgp="example_a", b=0.0, sample_sizes=(100,), replications=3, seed=2
        )
        rows = {r.estimator: r for r in run_consistency(scenario).rows}
        assert len(calls) == 3
        assert rows["penalty"].failures == 1
        assert rows["penalty"].mean is not None
        assert all(rows[e].failures == 0 for e in ("plugin", "debiased", "setexp"))

    def test_csv_columns(self):
        scenario = SimulationScenario(
            dgp="example_a", b=0.0, sample_sizes=(100,), replications=2, seed=1
        )
        text = run_consistency(scenario).to_csv()
        assert text.splitlines()[0] == "estimator,n,mean,bias,std,rmse,failures,coverage,mean_lcb"

    def test_inference_study_counts_failures(self, monkeypatch):
        import lpbound.montecarlo as mc
        from lpbound.inference import InferenceError

        calls = []

        def fail_first(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise InferenceError("forced")
            return real(*args, **kwargs)

        real = mc.run_inference
        monkeypatch.setattr(mc, "run_inference", fail_first)
        scenario = SimulationScenario(
            dgp="example_b", b=0.0, sample_sizes=(500,), replications=3, seed=2
        )
        row = run_inference_study(scenario).rows[0]
        assert len(calls) == 3
        assert row.failures == 1
        assert row.coverage in (0.0, 0.5, 1.0)
        assert row.mean is not None and row.mean_lcb is not None

    def test_inference_study_all_failed_reports_no_statistics(self, monkeypatch):
        import lpbound.montecarlo as mc
        from lpbound.estimators import PenaltyError

        def fail(*args, **kwargs):
            raise PenaltyError("forced")

        monkeypatch.setattr(mc, "run_inference", fail)
        scenario = SimulationScenario(
            dgp="example_b", b=0.0, sample_sizes=(500,), replications=2, seed=2
        )
        report = run_inference_study(scenario)
        assert report.to_csv().splitlines()[1] == "debiased_ci,500,,,,,2,,"

    def test_inference_study_requires_noisy_dgp(self):
        scenario = SimulationScenario(dgp="example_a", sample_sizes=(100,), replications=2)
        with pytest.raises(ScenarioError):
            run_inference_study(scenario)


class TestUniformGrid:
    def test_moving_points_match_fixed_points_at_reference_size(self):
        from lpbound.montecarlo import _grid_delta

        delta = _grid_delta()
        pts = grid_points(100, delta, "full")
        assert len(pts) == 9
        moving = sorted(abs(x) for x in pts[3:])
        assert np.allclose(moving, 0.1, atol=1e-12)

    def test_single_grid(self):
        assert grid_points(100, 0.5, "single") == [0.0]

    def test_wn_growth(self):
        delta = 0.5
        assert grid_wn(100, delta) == pytest.approx(1.5 / delta)
        assert grid_wn(10_000, delta) == pytest.approx(2.0 * 1.5 / delta)

    def test_loglog_slope_recovers_power_law(self):
        ns = [100, 500, 1000, 5000]
        series = 3.0 * np.asarray(ns, dtype=float) ** 0.42
        assert abs(loglog_slope(ns, series) - 0.42) < 1e-9

    def test_normalization_matches_levels_at_smallest_n(self):
        scenario = SimulationScenario(
            dgp="uniform_grid", sample_sizes=(100, 400), replications=40, seed=2
        )
        res = run_uniform_grid(scenario)
        assert res.sqrt_n_normalized[0] == pytest.approx(res.adaptive_scaled[0])
        assert np.all(res.sup_std >= 0.0)

    def test_rejects_other_dgps(self):
        scenario = SimulationScenario(dgp="example_a", sample_sizes=(100,), replications=2)
        with pytest.raises(ScenarioError):
            run_uniform_grid(scenario)

    def test_counts_failures(self, monkeypatch):
        import lpbound.montecarlo as mc
        from lpbound.linalg import SolverError

        scenario = SimulationScenario(dgp="uniform_grid", sample_sizes=(100, 400),
                                      replications=5, seed=2, grid="single")
        clean = run_uniform_grid(scenario)
        calls = []

        def fail_once(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:  # the second replication of n = 100
                raise SolverError("forced")
            return real(*args, **kwargs)

        real = mc.penalty_value
        monkeypatch.setattr(mc, "penalty_value", fail_once)
        res = run_uniform_grid(scenario)
        assert len(calls) == 10 and res.failures == [1, 0]
        assert res.sup_std[1] == clean.sup_std[1]
        assert res.sup_std[0] != clean.sup_std[0]  # one sup fewer
        assert res.to_csv().splitlines()[1].endswith(",1")
