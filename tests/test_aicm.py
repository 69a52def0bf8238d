import numpy as np
import pytest

from lpbound.aicm import (
    ATE,
    AssumptionSpec,
    CompileError,
    ConditionalMomentTable,
    MeanPotential,
    TableError,
    alpha_allocation,
    bootstrap_theta_covariance,
    bound_value,
    cmivw_bounds,
    compile,
    ets_estimate,
    ingest_sample,
)
from lpbound.linalg import OPTIMAL


def proof_example_table() -> ConditionalMomentTable:
    """Binary treatment, three instrument levels with P[Z] = 1/3 each,
    P[T != t | Z] = (1/8, 1/2, 1/4), all observed cell means zero."""
    pt = np.array([0.875, 0.5, 0.75])  # P[T = "1" | Z]
    prob = np.vstack([(1.0 - pt) / 3.0, pt / 3.0])
    return ConditionalMomentTable(
        treatments=["0", "1"],
        instruments=["z1", "z2", "z3"],
        mean=np.zeros((2, 3)),
        prob=prob,
        count=np.zeros((2, 3), dtype=int),
        observed=frozenset({"0", "1"}),
    )


def random_binary_table(rng: np.random.Generator, monotone_means: bool = True):
    nz = int(rng.integers(2, 5))
    pt = rng.uniform(0.15, 0.85, size=nz)
    pz = rng.dirichlet(np.ones(nz) * 5.0)
    mean = rng.uniform(-0.8, 0.8, size=(2, nz))
    if monotone_means:
        mean = np.sort(mean, axis=1)
    prob = np.vstack([(1.0 - pt) * pz, pt * pz])
    return ConditionalMomentTable(
        treatments=["0", "1"],
        instruments=[f"z{j}" for j in range(nz)],
        mean=mean,
        prob=prob,
        count=np.zeros((2, nz), dtype=int),
        observed=frozenset({"0", "1"}),
    )


def lower_bound(table, kinds, target, relax=0.0, K=(-1.0, 1.0)):
    spec = AssumptionSpec(kinds=frozenset(kinds), bounds=K, relax=relax, target=target)
    value, status = bound_value(compile(table, spec), "lower")
    return value, status


class TestProofExample:
    def test_miv_ironing(self):
        res = cmivw_bounds(proof_example_table(), "1", -1.0, 1.0, kind="miv")
        assert np.allclose(res.lower, [-0.125, -0.125, -0.125], atol=1e-12)

    def test_conditional_monotonicity_recursion(self):
        res = cmivw_bounds(proof_example_table(), "1", -1.0, 1.0)
        assert np.allclose(res.lower, [-0.125, -0.125, -0.0625], atol=1e-12)
        assert abs(res.lower[2] - (-1.0 / 16.0)) < 1e-12
        assert abs(res.aggregate_lower - (-5.0 / 48.0)) < 1e-12
        assert abs(res.aggregate_upper - 0.1875) < 1e-12

    def test_lp_reproduces_recursion_aggregates(self):
        table = proof_example_table()
        rec = cmivw_bounds(table, "1", -1.0, 1.0)
        value, status = lower_bound(table, {"bounds", "cmiv_p"}, MeanPotential("1"))
        assert status == OPTIMAL
        assert abs(value - rec.aggregate_lower) < 1e-8

    def test_miv_lp_matches_ironed_aggregate(self):
        table = proof_example_table()
        rec = cmivw_bounds(table, "1", -1.0, 1.0, kind="miv")
        value, status = lower_bound(table, {"bounds", "miv"}, MeanPotential("1"))
        assert status == OPTIMAL
        assert abs(value - rec.aggregate_lower) < 1e-8


class TestRandomTables:
    def test_cmiv_p_equals_recursion(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            table = random_binary_table(rng)
            rec = cmivw_bounds(table, "1", -1.0, 1.0)
            value, status = lower_bound(table, {"bounds", "cmiv_p"}, MeanPotential("1"))
            assert status == OPTIMAL
            assert abs(value - rec.aggregate_lower) < 1e-8

    def test_assumption_strength_nesting(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            table = random_binary_table(rng)
            target = MeanPotential("1")
            v_bounds, _ = lower_bound(table, {"bounds"}, target)
            v_miv, _ = lower_bound(table, {"bounds", "miv"}, target)
            v_cmivw = cmivw_bounds(table, "1", -1.0, 1.0).aggregate_lower
            v_cmivp, _ = lower_bound(table, {"bounds", "cmiv_p"}, target)
            v_cmivs, _ = lower_bound(table, {"bounds", "cmiv_s"}, target)
            tol = 1e-8
            assert v_bounds <= v_miv + tol
            assert v_miv <= v_cmivw + tol
            assert v_cmivw <= v_cmivp + tol
            assert v_cmivp <= v_cmivs + tol

    def test_relaxation_widens_bounds(self):
        rng = np.random.default_rng(16)
        for _ in range(15):
            table = random_binary_table(rng)
            vals = [
                lower_bound(table, {"bounds", "cmiv_p"}, MeanPotential("1"), relax=r)[0]
                for r in (0.0, 0.1, 0.5)
            ]
            assert vals[0] >= vals[1] - 1e-9 >= vals[2] - 2e-9

    def test_ate_is_difference_of_per_target_bounds(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            table = random_binary_table(rng)
            lo_ate, status = lower_bound(table, {"bounds", "miv"}, ATE("1", "0"))
            assert status == OPTIMAL
            lo_t, _ = lower_bound(table, {"bounds", "miv"}, MeanPotential("1"))
            spec = AssumptionSpec(
                kinds=frozenset({"bounds", "miv"}), bounds=(-1.0, 1.0),
                target=MeanPotential("0"),
            )
            up_d, _ = bound_value(compile(table, spec), "upper")
            assert abs(lo_ate - (lo_t - up_d)) < 1e-8


class TestGeneralPath:
    def _records(self, rng, missing_for="0"):
        records = []
        for z, pt in (("a", 0.4), ("b", 0.7)):
            for _ in range(40):
                t = "1" if rng.random() < pt else "0"
                y = None if t == missing_for else round(float(rng.uniform(-1, 1)), 6)
                records.append((y, t, z))
        return records

    def test_missing_outcomes_bounds_only_oracle(self, rng):
        records = self._records(rng)
        table = ingest_sample(records)
        value, status = lower_bound(table, {"bounds"}, MeanPotential("1"))
        assert status == OPTIMAL
        i = table.t_index("1")
        tz = table.t_given_z()
        manual = float(
            table.z_prob() @ (tz[i] * table.mean[i] + (1.0 - tz[i]) * (-1.0))
        )
        assert abs(value - manual) < 1e-9

    def test_miv_tightens_missing_data_bound(self, rng):
        records = self._records(rng)
        table = ingest_sample(records)
        v_bounds, _ = lower_bound(table, {"bounds"}, MeanPotential("1"))
        v_miv, _ = lower_bound(table, {"bounds", "miv"}, MeanPotential("1"))
        assert v_bounds <= v_miv + 1e-9

    def test_mtr_routes_through_general_path(self, rng):
        table = random_binary_table(rng)
        v_plain, _ = lower_bound(table, {"bounds"}, MeanPotential("1"))
        v_mtr, status = lower_bound(table, {"bounds", "mtr"}, MeanPotential("1"))
        assert status == OPTIMAL
        assert v_plain <= v_mtr + 1e-9

    def test_cmiv_with_missing_data_rejected(self, rng):
        table = ingest_sample(self._records(rng))
        with pytest.raises(CompileError):
            lower_bound(table, {"bounds", "cmiv_p"}, MeanPotential("1"))

    def test_cmiv_with_mtr_rejected(self, rng):
        table = random_binary_table(rng)
        with pytest.raises(CompileError):
            lower_bound(table, {"bounds", "cmiv_p", "mtr"}, MeanPotential("1"))


class TestIngestAndTable:
    def test_empty_cell_names_the_cell(self):
        records = [(0.1, "1", "a"), (0.2, "0", "a"), (0.3, "1", "b")]
        with pytest.raises(TableError, match=r"T=0, Z=b"):
            ingest_sample(records)

    def test_inconsistent_outcome_presence(self):
        records = [(0.1, "1", "a"), (None, "1", "a"), (0.2, "0", "a")]
        with pytest.raises(TableError, match="consistent"):
            ingest_sample(records)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(TableError):
            ConditionalMomentTable(
                treatments=["0", "1"], instruments=["a"],
                mean=np.zeros((2, 1)), prob=np.array([[0.3], [0.3]]),
                count=np.zeros((2, 1)), observed=frozenset({"0", "1"}),
            )

    def test_cell_means_from_records(self):
        records = [(1.0, "1", "a"), (3.0, "1", "a"), (0.0, "0", "a")]
        table = ingest_sample(records)
        assert table.mean[table.t_index("1"), 0] == 2.0
        assert abs(table.prob.sum() - 1.0) < 1e-12

    def test_cell_moments_match_a_running_sum_over_records(self, rng):
        # the reference adds each record in turn; bincount must match bitwise
        records = [(None if t == "2" else float(rng.normal()), t, z)
                   for t, z in zip(rng.choice(["0", "1", "2"], 500), rng.choice(["a", "b", "c"], 500))]
        table = ingest_sample(records)
        total, count = np.zeros((3, 3)), np.zeros((3, 3), dtype=int)
        for y, t, z in records:
            i, j = "012".index(t), "abc".index(z)
            count[i, j] += 1
            total[i, j] += 0.0 if y is None else y
        assert np.array_equal(table.count, count)
        assert np.array_equal(table.mean[:2], total[:2] / count[:2])
        assert np.isnan(table.mean[2]).all() and table.observed == {"0", "1"}
        assert np.array_equal(table.prob, count / count.sum())


class TestScalars:
    def test_alpha_allocation_reference_value(self):
        assert abs(alpha_allocation(0.1, 4) - 0.025996253574703254) < 1e-15
        a = alpha_allocation(0.05, 3)
        assert abs((1.0 - a) ** 3 - 0.95) < 1e-12

    def test_ets_estimate(self):
        table = ConditionalMomentTable(
            treatments=["0", "1"], instruments=["a", "b"],
            mean=np.array([[0.0, 0.2], [0.5, 0.9]]),
            prob=np.array([[0.2, 0.1], [0.3, 0.4]]),
            count=np.zeros((2, 2)), observed=frozenset({"0", "1"}),
        )
        # E[Y | T=1] = (0.3*0.5 + 0.4*0.9)/0.7 ; E[Y | T=0] = (0.2*0 + 0.1*0.2)/0.3
        expected = (0.3 * 0.5 + 0.4 * 0.9) / 0.7 - (0.1 * 0.2) / 0.3
        assert abs(ets_estimate(table, "1", "0") - expected) < 1e-12

    def test_bootstrap_theta_covariance_shape(self, rng):
        records = []
        for z, pt in (("a", 0.4), ("b", 0.7)):
            for _ in range(60):
                t = "1" if rng.random() < pt else "0"
                records.append((round(float(rng.uniform(0, 1)), 6), t, z))
        spec = AssumptionSpec(
            kinds=frozenset({"bounds", "miv"}), bounds=(0.0, 1.0),
            target=MeanPotential("1"),
        )
        sigma = bootstrap_theta_covariance(records, spec, B=120, seed=2)
        lp = compile(ingest_sample(records), spec).lp
        S = lp.d + lp.q * lp.d + lp.q
        assert sigma.shape == (S, S)
        assert np.allclose(sigma, sigma.T, atol=1e-12)
        assert np.linalg.eigvalsh(sigma).min() > -1e-8
