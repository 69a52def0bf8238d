import math
from pathlib import Path

import numpy as np
import pytest

from lpbound import cli, linalg
from lpbound.estimators import penalty_value
from lpbound.geometry import delta_condition
from lpbound.linalg import INFEASIBLE, LpParams, solve_lp
from lpbound.montecarlo import (
    _EXAMPLE,
    _GRID,
    ConsistencyScenario,
    InferenceScenario,
    ScenarioError,
    SimulationScenario,
    UniformGridScenario,
    _example_b_estimator,
    _grid_delta,
    draw_theta,
    grid_points,
    grid_wn,
    rng_for,
    run_consistency,
    run_inference_study,
    run_uniform_grid,
)

from lp_oracles import loglog_slope

# The designs written out by hand, one LpParams per call: the references that
# the affine designs _EXAMPLE and _GRID must reproduce bit for bit.
_BOX2 = (np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
_GRID_BOX = (np.array([-1.5, -3.0]), np.array([1.5, 3.0]))


def example_a_params(b_hat):
    p = np.array([1.0, 0.0])
    M = np.array([[-(1.0 + b_hat), 1.0], [1.0, -1.0], [1.0, 0.0], [-1.0, 0.0]])
    c = np.array([0.0, 0.0, -1.0, -1.0])
    return LpParams(p=p, M=M, c=c, box=_BOX2)


def example_b_params(b_hat, zeta_hat, nu_hat):
    p = np.array([1.0, 0.0])
    M = np.array([
        [-(1.0 + b_hat), 1.0],
        [1.0 + zeta_hat, -1.0],
        [1.0, 0.0],
        [-1.0, 0.0],
    ])
    c = np.array([nu_hat, zeta_hat, -1.0 - nu_hat, -1.0])
    return LpParams(p=p, M=M, c=c, box=_BOX2)


def _grid_params(a, b, c, dshift):
    """min y - (1+a) x over y <= (1+b) x + dshift, y >= (1+c) x, |x| <= 1."""
    p = np.array([-(1.0 + a), 1.0])
    M = np.array([
        [1.0 + b, -1.0],
        [-(1.0 + c), 1.0],
        [1.0, 0.0],
        [-1.0, 0.0],
    ])
    cvec = np.array([-dshift, 0.0, -1.0, -1.0])
    return LpParams(p=p, M=M, c=cvec, box=_GRID_BOX)


_EXAMPLE_B_GRADIENT = np.zeros((14, 3))
_EXAMPLE_B_GRADIENT[2, 0] = -1.0   # d M11 / d b
_EXAMPLE_B_GRADIENT[3, 1] = 1.0    # d M21 / d zeta
_EXAMPLE_B_GRADIENT[11, 1] = 1.0   # d c2 / d zeta
_EXAMPLE_B_GRADIENT[10, 2] = 1.0   # d c1 / d nu
_EXAMPLE_B_GRADIENT[12, 2] = -1.0  # d c3 / d nu


def assert_same_bits(got, want):
    for a, b in ((got.p, want.p), (got.M, want.M), (got.c, want.c), *zip(got.box, want.box)):
        assert (a.shape, a.tobytes()) == (b.shape, b.tobytes())


class TestScenarioValidation:
    def test_unknown_estimator(self):
        with pytest.raises(ScenarioError):
            ConsistencyScenario(dgp="example_a", estimators=("bogus",))

    def test_sample_sizes_must_increase(self):
        with pytest.raises(ScenarioError):
            SimulationScenario(dgp="example_a", sample_sizes=(100, 100))

    def test_unknown_dgp(self):
        with pytest.raises(ScenarioError):
            SimulationScenario(dgp="mystery")

    @pytest.mark.parametrize("field", ["sample_sizes", "estimators"])
    def test_empty_list_rejected(self, field):
        with pytest.raises(ScenarioError, match=f"^{field} must be a nonempty list"):
            ConsistencyScenario(dgp="example_a", **{field: ()})


class TestDrawTheta:
    def test_clt_centering(self):
        scenario = ConsistencyScenario(dgp="example_a", b=0.3, replications=1)
        rng = np.random.default_rng(0)
        draws = np.array(
            [draw_theta(scenario, 50, rng).M[0, 0] for _ in range(100_000)]
        )
        b_hats = -draws - 1.0
        se = (1.0 / math.sqrt(3.0)) / math.sqrt(50) / math.sqrt(draws.size)
        assert abs(b_hats.mean() - 0.3) < 3.0 * se

    def test_noisy_rhs_can_be_infeasible(self):
        params = _EXAMPLE.params((0.0, 0.0, 0.1))
        assert solve_lp(params).status == INFEASIBLE

    def test_truth_from_solver(self):
        assert solve_lp(_EXAMPLE.params((0.0, 0.0, 0.0))).value == -1.0
        assert solve_lp(_EXAMPLE.params((-0.05, 0.0, 0.0))).value == 0.0


class TestAffineDesigns:
    @pytest.mark.parametrize("b", [0.0, -0.05, 0.3])
    def test_draw_theta_equals_the_hand_builders(self, b):
        for rep in range(60):
            n = (3, 100, 5000)[rep % 3]
            rng = rng_for(4, 0, rep)
            b_hat = b + float(rng.uniform(-1.0, 1.0, size=n).mean())
            got = draw_theta(ConsistencyScenario(dgp="example_a", b=b), n, rng_for(4, 0, rep))
            assert_same_bits(got, example_a_params(b_hat))
            U = rng_for(4, 0, rep).uniform(-0.5, 0.5, size=(n, 3))
            want = example_b_params(b + U[:, 0].mean(), U[:, 1].mean(), U[:, 2].mean())
            got = draw_theta(ConsistencyScenario(dgp="example_b", b=b), n, rng_for(4, 0, rep))
            assert_same_bits(got, want)

    @pytest.mark.parametrize("grid", ["full", "single"])
    def test_grid_design_equals_the_hand_builder(self, grid):
        delta = _grid_delta()
        for n_idx, n in enumerate((100, 1000, 10_000)):
            for a in grid_points(n, delta, grid):
                assert_same_bits(_GRID.params((a, 0.0, 0.0, 0.5)), _grid_params(a, 0.0, 0.0, 0.5))
                for rep in range(10):
                    rng = rng_for(5, n_idx, rep)
                    noise = rng.uniform(-0.5, 0.5, size=(n, 3)).mean(axis=0)
                    slater = float(rng.uniform(0.0, 1.0, size=n).mean())
                    for dshift in (float(noise[2]), slater):
                        want = _grid_params(a, float(noise[0]), float(noise[1]), dshift)
                        assert_same_bits(_GRID.params((a, noise[0], noise[1], dshift)), want)

    @pytest.mark.parametrize("a", [-0.1, 0.1, 0.0, 0.03162, -0.07])
    def test_grid_truth_at_zero_shift_solves_as_the_hand_builder(self, a):
        # the only bits that differ: the builder's c[0] = -dshift is -0.0 at
        # dshift = 0, the affine form's 0.0 + -0.0 is +0.0
        got, want = _GRID.params((a, 0.0, 0.0, 0.0)), _grid_params(a, 0.0, 0.0, 0.0)
        assert np.array_equal(got.c, want.c) and np.signbit(want.c[0])
        assert not np.signbit(got.c[0])
        assert_same_bits(LpParams(got.p, got.M, want.c, got.box), want)
        sol, ref = solve_lp(got), solve_lp(want)
        assert sol.value == ref.value and sol.vertex.tobytes() == ref.vertex.tobytes()
        w = np.full(4, 2.0)
        assert penalty_value(got, w) == penalty_value(want, w)
        assert delta_condition(got).delta == delta_condition(want).delta

    def test_example_b_sigma_uses_the_reference_gradient(self):
        assert _EXAMPLE.G.tobytes() == _EXAMPLE_B_GRADIENT.tobytes()
        U = rng_for(2, 0, 0).uniform(-0.5, 0.5, size=(400, 3))
        for b in (0.0, -0.05, 0.3):
            idx = np.arange(0, 400, 3)
            got = _example_b_estimator(U, b)(idx)
            sub = U[idx]
            sigma = _EXAMPLE_B_GRADIENT @ np.cov(sub.T) @ _EXAMPLE_B_GRADIENT.T
            assert got.sigma.tobytes() == sigma.tobytes()
            want = example_b_params(b + sub[:, 0].mean(), sub[:, 1].mean(), sub[:, 2].mean())
            assert_same_bits(got.params, want)

    @pytest.mark.parametrize("design, phi", [
        (_EXAMPLE, np.array([0.25, -0.125, 0.5])),
        (_GRID, np.array([0.125, -0.25, 0.5, 0.75])),
    ], ids=["example", "grid"])
    def test_unit_probes_recover_G(self, design, phi):
        base = design.params(phi).theta()
        for j, e_j in enumerate(np.eye(phi.size)):
            assert np.array_equal(design.params(phi + e_j).theta() - base, design.G[:, j])


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
        # rng_for is stream 0; the coverage study keys its split seed as stream 1
        def stream(k):
            return np.random.Generator(np.random.Philox(np.random.SeedSequence((3, 1, 7, k))))

        assert np.array_equal(rng_for(3, 1, 7).uniform(size=4), stream(0).uniform(size=4))
        assert not np.array_equal(rng_for(3, 1, 7).uniform(size=4), stream(1).uniform(size=4))


class TestConsistencyStudy:
    def test_bit_reproducible(self):
        scenario = ConsistencyScenario(
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

        scenario = ConsistencyScenario(
            dgp="example_a", b=b, sample_sizes=(100, 1000), replications=50, seed=11
        )
        report = run_consistency(scenario)
        assert warm_starts.count(True) > len(warm_starts) // 2  # the cold loop passes no list
        truth = solve_lp(_EXAMPLE.params((b, 0.0, 0.0))).value
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

    def test_reference_run_takes_a_pinned_number_of_inverses_and_simplex_calls(
            self, monkeypatch, capsys):
        """The benchmark's reference consistency command (400 replication
        solves and one truth solve): a change that adds a basis inverse or a
        simplex call to a warm solve moves these counts."""
        counts = {"inv": 0, "simplex": 0}
        real_inv, real_simplex = np.linalg.inv, linalg._simplex

        def counting_inv(a):
            counts["inv"] += 1
            return real_inv(a)

        def counting_simplex(*args, **kwargs):
            counts["simplex"] += 1
            return real_simplex(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        monkeypatch.setattr(linalg, "_simplex", counting_simplex)
        config = Path(__file__).resolve().parents[1] / "perfbench/reference/mc_consistency.json"
        assert cli.main(["simulate", "--config", str(config)]) == 0
        assert capsys.readouterr().out.startswith("estimator,n,mean")
        assert counts == {"inv": 373, "simplex": 506}

    def test_failure_accounting_on_noisy_rhs(self):
        scenario = ConsistencyScenario(
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
        scenario = ConsistencyScenario(
            dgp="example_a", b=0.0, sample_sizes=(100,), replications=3, seed=2
        )
        rows = {r.estimator: r for r in run_consistency(scenario).rows}
        assert len(calls) == 3
        assert rows["penalty"].failures == 1
        assert rows["penalty"].mean is not None
        assert all(rows[e].failures == 0 for e in ("plugin", "debiased", "setexp"))

    def test_failed_penalty_selection_counts_for_every_estimator(self, monkeypatch):
        from lpbound.estimators import PenaltyConfig, PenaltyError

        calls = []

        def fail_first(self, *args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise PenaltyError("forced")
            return real(self, *args, **kwargs)

        real = PenaltyConfig.resolve_w
        monkeypatch.setattr(PenaltyConfig, "resolve_w", fail_first)
        scenario = ConsistencyScenario(
            dgp="example_a", b=0.0, sample_sizes=(100,), replications=3, seed=2
        )
        rows = run_consistency(scenario).rows
        assert len(calls) == 3
        assert [r.failures for r in rows] == [1, 1, 1, 1]
        assert all(r.mean is not None for r in rows)

    def test_csv_columns(self):
        scenario = ConsistencyScenario(
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
        scenario = InferenceScenario(
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
        scenario = InferenceScenario(
            dgp="example_b", b=0.0, sample_sizes=(500,), replications=2, seed=2
        )
        report = run_inference_study(scenario)
        assert report.to_csv().splitlines()[1] == "debiased_ci,500,,,,,2,,"

    def test_reference_coverage_run_computes_one_covariance_per_replication(
            self, monkeypatch, capsys):
        """The benchmark's reference coverage command (25 replications):
        run_inference reads fold 2's covariance alone, so fold 1's is never
        computed; a change that builds it again makes this 50."""
        calls = []
        real_cov = np.cov

        def counting_cov(*args, **kwargs):
            calls.append(None)
            return real_cov(*args, **kwargs)

        monkeypatch.setattr(np, "cov", counting_cov)
        config = Path(__file__).resolve().parents[1] / "perfbench/reference/mc_coverage.json"
        assert cli.main(["simulate", "--config", str(config)]) == 0
        assert capsys.readouterr().out.startswith("estimator,n,mean")
        assert len(calls) == 25

    def test_inference_study_requires_noisy_dgp(self):
        with pytest.raises(ScenarioError):
            InferenceScenario(dgp="example_a", sample_sizes=(100,), replications=2)


class TestUniformGrid:
    def test_moving_points_match_fixed_points_at_reference_size(self):
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
        scenario = UniformGridScenario(
            dgp="uniform_grid", sample_sizes=(100, 400), replications=40, seed=2
        )
        res = run_uniform_grid(scenario)
        assert res.sqrt_n_normalized[0] == pytest.approx(res.adaptive_scaled[0])
        assert np.all(res.sup_std >= 0.0)

    def test_rejects_other_dgps(self):
        with pytest.raises(ScenarioError):
            UniformGridScenario(dgp="example_a", sample_sizes=(100,), replications=2)

    def test_counts_failures(self, monkeypatch):
        import lpbound.montecarlo as mc
        from lpbound.linalg import SolverError

        scenario = UniformGridScenario(dgp="uniform_grid", sample_sizes=(100, 400),
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
