import csv
import itertools
import math

import numpy as np
import pytest

from lpbound.aicm import (
    ATE,
    AssumptionSpec,
    CompileError,
    ConditionalMomentTable,
    MeanPotential,
    Microdata,
    TableError,
    _compile_stack,
    bootstrap_theta_covariance,
    bound_value,
    cmivw_bounds,
    compile,
    ets_estimate,
    ingest_sample,
    read_microdata_csv,
)
from lpbound.linalg import INFEASIBLE, OPTIMAL, TAU_FEAS, DimensionError


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


class TestConditionalMomentProgram:
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

    def test_mtr_with_full_outcomes_tightens_the_bound(self, rng):
        table = random_binary_table(rng)
        v_plain, _ = lower_bound(table, {"bounds"}, MeanPotential("1"))
        v_mtr, status = lower_bound(table, {"bounds", "mtr"}, MeanPotential("1"))
        assert status == OPTIMAL
        assert v_plain <= v_mtr + 1e-9

    @pytest.mark.parametrize("kinds, observed", [
        ({"bounds"}, {"1"}), ({"bounds", "mtr"}, {"0", "1"}), ({"bounds", "miv"}, {"1"}),
    ])
    def test_cell_mean_below_k0_is_infeasible(self, kinds, observed):
        # E[Y | T=1, Z=b] = -0.5 < K0 = 0: the data refute the outcome bounds,
        # so the program is refuted and both directions are infeasible
        mean = np.array([[0.2, 0.4], [0.3, -0.5]])
        mean[[t not in observed for t in ("0", "1")]] = np.nan
        table = ConditionalMomentTable(["0", "1"], ["a", "b"], mean, np.full((2, 2), 0.25),
                                       np.ones((2, 2)), frozenset(observed))
        spec = AssumptionSpec(kinds=frozenset(kinds), bounds=(0.0, 1.0), target=MeanPotential("1"))
        program = compile(table, spec)
        assert program.refuted
        assert [bound_value(program, side)[1] for side in ("lower", "upper")] == [INFEASIBLE] * 2
        # the rows are those of a table whose data hold
        table.mean[1, 1] = 0.5
        held = compile(table, spec)
        assert not held.refuted
        assert (held.lp.M.shape, held.lp.M.tobytes()) == (program.lp.M.shape, program.lp.M.tobytes())

    @pytest.mark.parametrize("observed", [{"0", "1"}, {"1"}], ids=["full", "missing"])
    def test_one_refutation_rule_for_full_and_missing_outcomes(self, observed):
        # E[Y | T=1, Z=a] = 1.5 > K1 = 1 refutes the bounds with full
        # outcomes and with t = 0 missing alike
        mean = np.array([[0.5, 0.6], [1.5, 0.7]])
        mean[[t not in observed for t in ("0", "1")]] = np.nan
        table = ConditionalMomentTable(["0", "1"], ["a", "b"], mean, np.full((2, 2), 0.25),
                                       np.ones((2, 2)), frozenset(observed))
        spec = AssumptionSpec(kinds=frozenset({"bounds", "miv"}), bounds=(0.0, 1.0),
                              target=MeanPotential("1"))
        program = compile(table, spec)
        assert program.refuted
        assert [bound_value(program, side) for side in ("lower", "upper")] == \
            [(None, INFEASIBLE)] * 2

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

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -0.25])
    def test_probability_must_be_positive(self, bad):
        # NaN <= 0 and |NaN - 1| > tol are both False: a NaN cell must still be refused
        with pytest.raises(TableError, match=rf"cell \(T=1, Z=b\) has probability {bad}; full support"):
            ConditionalMomentTable(
                treatments=["0", "1"], instruments=["a", "b"],
                mean=np.zeros((2, 2)), prob=np.array([[0.25, 0.25], [0.5, bad]]),
                count=np.zeros((2, 2)), observed=frozenset({"0", "1"}),
            )

    @pytest.mark.parametrize("observed, nan_rows, message", [
        ({"0", "1"}, [1], "treatment 1 is observed but has undefined cell means"),
        ({"0", "2"}, [], "treatment 1 is unobserved but has cell means"),
        ({"0", "1", "2"}, [2], "treatment 2 is observed but has undefined cell means"),
    ])
    def test_means_must_match_the_observed_treatments(self, observed, nan_rows, message):
        # the first treatment at fault is named; a row with one NaN is undefined
        mean = np.zeros((3, 2))
        mean[nan_rows, 0] = np.nan
        with pytest.raises(TableError, match=f"^{message}$"):
            ConditionalMomentTable(["0", "1", "2"], ["a", "b"], mean, np.full((3, 2), 1 / 6),
                                   np.ones((3, 2)), frozenset(observed))

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


def _table_bytes(table):
    return (table.treatments, table.instruments, table.observed, table.mean.tobytes(),
            table.prob.tobytes(), table.count.tobytes(), table.count.dtype)


def _ingest_reference(records):
    """_table_bytes of the table of (y, t, z) records, y None or NaN when
    missing, by a loop over the records: a running sum per cell in record
    order, over the sorted labels that occur. It raises TableError as
    ingest_sample does: mixed outcome presence first, then an empty cell."""
    if not records:
        raise TableError("no records")
    treatments = sorted({t for _, t, _ in records})
    instruments = sorted({z for _, _, z in records})
    count = {(t, z): 0 for t in treatments for z in instruments}
    total = {(t, z): 0.0 for t in treatments for z in instruments}
    with_y, without_y = dict.fromkeys(treatments, 0), dict.fromkeys(treatments, 0)
    for y, t, z in records:
        count[t, z] += 1
        if y is None or math.isnan(y):
            without_y[t] += 1
        else:
            with_y[t] += 1
            total[t, z] += y
    for t in treatments:
        if with_y[t] and without_y[t]:
            raise TableError(f"treatment {t!r} has {with_y[t]} records with outcomes and "
                             f"{without_y[t]} without; outcome presence must be consistent")
    for t, z in count:
        if not count[t, z]:
            raise TableError(f"empty cell (T={t}, Z={z}): every treatment-instrument "
                             "cell needs observations")
    observed = frozenset(t for t in treatments if with_y[t])
    mean = np.array([[total[t, z] / count[t, z] if t in observed else math.nan
                      for z in instruments] for t in treatments])
    prob = np.array([[count[t, z] / len(records) for z in instruments] for t in treatments])
    count = np.array([[count[t, z] for z in instruments] for t in treatments])
    return (treatments, instruments, observed, mean.tobytes(), prob.tobytes(), count.tobytes(),
            count.dtype)


def _list_bootstrap(records, spec, B, seed):
    """The bootstrap as a loop over record lists, each draw ingesting
    [records[i] for i in idx]: the reference for the columnar one. Returns
    the covariance and the number of redrawn resamples."""
    rng = np.random.default_rng(seed)
    n = len(records)
    base = ingest_sample(records)
    draws, redraws = [], 0
    while len(draws) < B:
        idx = rng.integers(0, n, size=n)
        try:
            tab = ingest_sample([records[i] for i in idx])
        except TableError:
            redraws += 1
            continue
        if tab.treatments != base.treatments or tab.instruments != base.instruments:
            redraws += 1
            continue
        draws.append(compile(tab, spec).lp.theta())
    return n * np.cov(np.array(draws).T, bias=False), redraws


class TestMicrodata:
    """Microdata holds the records as columns; a resample ingests bitwise
    as the list of the same records does."""

    @staticmethod
    def _records(rng, n=300):
        # treatment "2" never has an outcome; y = -0.0 and 0.0 both occur
        t = rng.choice(["0", "1", "2"], n, p=[0.45, 0.45, 0.1])
        z = rng.choice(["a", "b", "c"], n, p=[0.45, 0.45, 0.1])
        y = np.round(rng.normal(size=n), 1)
        return [(None if ti == "2" else float(yi), ti, zi) for yi, ti, zi in zip(y, t, z)]

    def test_take_ingests_as_the_record_list(self, rng):
        records = self._records(rng)
        data = Microdata.of(records)
        ts = np.array([r[1] for r in records])
        zs = np.array([r[2] for r in records])
        resamples = [rng.integers(0, len(records), len(records)) for _ in range(20)]
        resamples += [
            np.flatnonzero(ts != "2"),  # drops the treatment without outcomes
            np.flatnonzero(zs != "c"),  # drops an instrument level
            np.flatnonzero((ts != "0") & (zs != "a"))[::-1],  # drops one of each
            np.flatnonzero(zs == "b"),  # a single instrument level
        ]
        for idx in resamples:
            table = ingest_sample(data.take(idx))
            assert _table_bytes(table) == _table_bytes(ingest_sample([records[i] for i in idx]))
        assert ingest_sample(data.take(resamples[-4])).treatments == ["0", "1"]
        assert ingest_sample(data.take(resamples[-3])).instruments == ["a", "b"]
        assert ingest_sample(data).observed == {"0", "1"}

    @pytest.mark.parametrize("records, match", [
        ([(0.1, "1", "a"), (0.2, "0", "a"), (0.3, "1", "b"), (0.4, "0", "b")], "empty cell"),
        ([(0.1, "1", "a"), (None, "1", "a"), (0.2, "0", "a"), (0.3, "0", "a")], "consistent"),
    ])
    def test_take_raises_as_the_record_list(self, records, match):
        idx = [0, 1, 2, 0]  # leaves (T=0, Z=b) empty; keeps a mixed treatment
        with pytest.raises(TableError, match=match) as from_list:
            ingest_sample([records[i] for i in idx])
        with pytest.raises(TableError) as from_columns:
            ingest_sample(Microdata.of(records).take(np.array(idx)))
        assert str(from_columns.value) == str(from_list.value)

    def test_ingest_matches_a_per_record_reference(self, rng):
        # treatment "2" never has an outcome (None or NaN), and "3" has one
        # record without; small resamples lose levels and leave cells empty
        ts, zs = rng.choice(["0", "1", "2"], 60), rng.choice(["a", "b", "c"], 60)
        ys = np.round(rng.normal(size=60), 1)  # -0.0 and 0.0 both occur
        records = [((math.nan if i % 2 else None) if t == "2" else float(y), t, z)
                   for i, (y, t, z) in enumerate(zip(ys, ts, zs))]
        records += [(0.5, "3", "a"), (-0.0, "3", "b"), (1.5, "3", "c"), (None, "3", "a")]
        data = Microdata.of(records)
        seen = set()
        for _ in range(400):
            idx = rng.integers(0, len(records), int(rng.integers(1, 2 * len(records))))
            sample = [records[i] for i in idx]
            try:
                expected = _ingest_reference(sample)
            except TableError as exc:
                seen.add(str(exc).split(" ")[0])
                for given in (sample, data.take(idx)):
                    with pytest.raises(TableError) as raised:
                        ingest_sample(given)
                    assert str(raised.value) == str(exc)
                continue
            seen.add("lost level" if len(expected[0]) < 4 or len(expected[1]) < 3 else "table")
            assert _table_bytes(ingest_sample(sample)) == expected
            assert _table_bytes(ingest_sample(data.take(idx))) == expected
        assert seen == {"treatment", "empty", "lost level", "table"}

    def test_bootstrap_matches_the_record_list_loop(self, rng):
        # a cell of 2 of 36 records: about one resample in eight leaves it empty
        records = [(round(float(rng.uniform(0, 1)), 6), t, z)
                   for t, z, size in (("0", "a", 12), ("1", "a", 12), ("0", "b", 10), ("1", "b", 2))
                   for _ in range(size)]
        spec = AssumptionSpec(kinds=frozenset({"bounds", "cmiv_p"}), bounds=(0.0, 1.0),
                              target=ATE("1", "0"))
        sigma = bootstrap_theta_covariance(records, spec, B=40, seed=3)
        reference, redraws = _list_bootstrap(records, spec, B=40, seed=3)
        assert redraws > 0
        assert sigma.tobytes() == reference.tobytes()

    def test_items_are_the_records_the_csv_holds(self, tmp_path):
        path = tmp_path / "micro.csv"
        path.write_text("y, t ,z\n0.5,1,a\n,0, a\n-0.0,1,b\n\n 1e-3 ,0,b\n2,x,a\n")
        reference = []  # the rows, read as csv.DictReader gives them
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                row = [v.strip() for v in row.values()]
                reference.append((float(row[0]) if row[0] else None, row[1], row[2]))
        data = read_microdata_csv(path)
        assert isinstance(data, Microdata) and len(data) == 5
        # repr tells -0.0 from 0.0 and a float from an int
        assert repr([data[i] for i in range(len(data))]) == repr(reference)
        assert repr(list(data)) == repr(reference)
        assert data.t_labels == ["0", "1", "x"] and data.z_labels == ["a", "b"]
        assert repr(list(Microdata.of(reference))) == repr(reference)


def _general_rows_reference(table, spec, t):
    """(M, c, p, offset, labels, refuted) of the conditional-moment program
    filled row by row and entry by entry: the reference its array assembly
    must match bit for bit. Every leg is a variable under mtr, else only the
    target's; the MIV rows run over (leg, group, z). The outcome bounds are
    the box, not rows; refuted is whether an observed cell mean lies outside
    them by more than TAU_FEAS."""
    ti, nt, nz = table.t_index(t), table.n_treatments, table.n_instruments
    tz = table.t_given_z()
    n_m = nt * nz * nt
    legs = range(nt) if "mtr" in spec.kinds else [ti]

    def midx(a, z, d):
        return (a * nz + z) * nt + d

    mt_rows, mt_rhs = [], []
    if "mtr" in spec.kinds:
        for d in range(nt - 1):
            e = np.zeros(nt)
            e[d], e[d + 1] = -1.0, 1.0
            mt_rows.append(e)
            mt_rhs.append(spec.relax)
    rows, rhs = [], []
    for a in range(nt):
        for z in range(nz):
            for row, r in zip(mt_rows, mt_rhs):
                full = np.zeros(n_m)
                for d in range(nt):
                    full[midx(a, z, d)] = row[d]
                rows.append(full)
                rhs.append(r)
    if "miv" in spec.kinds:
        groups = [tuple(range(nt))]  # the full set, weighted by tz itself
        if "cmiv_s" in spec.kinds:
            groups += [A for r in range(1, nt) for A in itertools.combinations(range(nt), r)
                       if A != (ti,)]
        elif "cmiv_p" in spec.kinds:
            groups += [(a,) for a in range(nt) if a != ti]
        for d in legs:
            for A in groups:
                for z in range(nz - 1):
                    full = np.zeros(n_m)
                    for a in A:
                        if len(A) == nt:
                            hi, lo = tz[a, z + 1], tz[a, z]
                        else:
                            hi = tz[a, z + 1] / sum(tz[b, z + 1] for b in A)
                            lo = tz[a, z] / sum(tz[b, z] for b in A)
                        full[midx(a, z + 1, d)] += hi
                        full[midx(a, z, d)] -= lo
                    rows.append(full)
                    rhs.append(spec.relax)
    obs = np.zeros(n_m)
    known = set()
    refuted = False
    for a, label in enumerate(table.treatments):
        if label in table.observed:
            for z in range(nz):
                obs[midx(a, z, a)] = table.mean[a, z]
                known.add(midx(a, z, a))
                if spec.bounds is not None:
                    k0, k1 = spec.bounds
                    refuted |= k0 - table.mean[a, z] > TAU_FEAS or table.mean[a, z] - k1 > TAU_FEAS
    free = [i for i in range(n_m) if i not in known and i % nt in legs]
    labels = []
    for i in free:
        a, rem = divmod(i, nz * nt)
        z, d = divmod(rem, nt)
        labels.append((table.treatments[d], table.treatments[a], table.instruments[z]))
    mu = np.zeros(n_m)
    for a in range(nt):
        for z in range(nz):
            mu[midx(a, z, ti)] = table.prob[a, z]
    A, b = np.array(rows).reshape(len(rows), n_m), np.array(rhs, dtype=float)
    return A[:, free], -b - A @ obs, mu[free], float(mu @ obs), labels, refuted


_KIND_SETS = [{"bounds"}, {"mtr"}, {"bounds", "mtr"}, {"bounds", "miv"}, {"mtr", "miv"},
              {"bounds", "mtr", "miv"}]
# then every other nonempty set of kinds
_KIND_SETS += [set(s) for r in range(1, 6)
               for s in itertools.combinations(["bounds", "mtr", "miv", "cmiv_p", "cmiv_s"], r)
               if set(s) not in _KIND_SETS]


@pytest.mark.parametrize("kinds", _KIND_SETS)
def test_general_program_matches_row_by_row_assembly(kinds):
    rng = np.random.default_rng(19)
    conditional = bool(kinds & {"cmiv_p", "cmiv_s"})
    refutations = cases = 0
    # the four-treatment tables give rows of M with enough entries that a
    # changed summation order of c shows in its bits
    for nt, nz, unobserved in ((2, 1, ()), (2, 3, ()), (3, 2, ()), (2, 3, ("0",)),
                               (3, 3, ("0",)), (3, 2, ("0", "1")), (2, 4, ()), (3, 3, ()),
                               (4, 3, ()), (4, 2, ("0",))):
        prob = rng.uniform(0.1, 1.0, (nt, nz))
        mean = rng.uniform(-1.2, 1.2, (nt, nz))  # some cells outside the bounds
        labels = [str(i) for i in range(nt)]
        mean[[labels.index(u) for u in unobserved]] = np.nan
        observed = frozenset(labels) - set(unobserved)
        table = ConditionalMomentTable(labels, [f"z{j}" for j in range(nz)], mean,
                                       prob / prob.sum(), np.ones((nt, nz)), observed)
        for relax in (0.0, 0.05):
            spec = AssumptionSpec(kinds=frozenset(kinds), relax=relax, target=MeanPotential(labels[-1]),
                                  bounds=(-1.0, 1.0) if "bounds" in kinds else None)
            if conditional and ("mtr" in kinds or unobserved):
                with pytest.raises(CompileError, match="conditional monotonicity"):
                    compile(table, spec)
                continue
            M, c, p, offset, names, refuted = _general_rows_reference(table, spec, spec.target.t)
            refutations += refuted
            cases += 1
            prog = compile(table, spec)
            lp = prog.lp
            assert (lp.M.shape, lp.M.tobytes(), lp.c.tobytes()) == (M.shape, M.tobytes(), c.tobytes())
            assert (lp.p.tobytes(), prog.offset, prog.variable_labels) == \
                (p.tobytes(), offset, names)
            bound = spec.bounds or (-np.inf, np.inf)
            assert all(np.array_equal(side, np.full(p.size, k)) for side, k in zip(lp.box, bound))
            assert prog.valid_only == ("miv" in spec.kinds and (
                "mtr" in kinds or bool(unobserved) and "bounds" in kinds))
            assert prog.refuted == refuted
    if conditional and "mtr" in kinds:
        assert cases == 0
    else:
        assert 0 < refutations < cases if "bounds" in kinds else refutations == 0


def test_other_legs_do_not_refute_the_target():
    # treatment 0 has no outcomes, and E[Y | T=1, Z] falls from 0.9 to -0.9:
    # no means of the T=0 cells in [-1, 1] make E[Y(1) | Z] rise, but that
    # leg shares no row with E[Y(2)], so the mean of 2 keeps the bounds it
    # has when the T=0 cells are observed at 0
    prob = np.array([[0.05, 0.05], [0.35, 0.35], [0.1, 0.1]])
    spec = AssumptionSpec(kinds=frozenset({"bounds", "miv"}), bounds=(-1.0, 1.0),
                          target=MeanPotential("2"))
    for first, observed in ((np.nan, {"1", "2"}), (0.0, {"0", "1", "2"})):
        mean = np.array([[first, first], [0.9, -0.9], [0.0, 0.2]])
        table = ConditionalMomentTable(["0", "1", "2"], ["z0", "z1"], mean, prob,
                                       np.ones((3, 2)), frozenset(observed))
        program = compile(table, spec)
        (lo, lo_status), (up, up_status) = (bound_value(program, s) for s in ("lower", "upper"))
        assert (lo_status, up_status) == (OPTIMAL, OPTIMAL)
        assert abs(lo - -0.78) < 1e-12 and abs(up - 0.82) < 1e-12


@pytest.mark.parametrize("target", [MeanPotential("1"), ATE("1", "0")], ids=["mean", "ate"])
def test_no_row_of_m_is_zero_or_a_box_row(target):
    rng = np.random.default_rng(20)
    kind_sets = [{"bounds"}, {"bounds", "miv"}, {"bounds", "cmiv_p"}, {"bounds", "cmiv_s"},
                 {"bounds", "mtr"}, {"bounds", "mtr", "miv"}]
    tables = set()
    for _ in range(12):
        nt, nz = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        labels = [str(i) for i in range(nt)]
        prob = rng.uniform(0.1, 1.0, (nt, nz))
        mean = rng.uniform(-1.2, 1.2, (nt, nz))
        missing = nt == 3 and rng.random() < 0.5  # no outcomes for t = 2
        if missing:
            mean[2] = np.nan
        observed = frozenset(labels[:2] if missing else labels)
        table = ConditionalMomentTable(labels, [f"z{j}" for j in range(nz)], mean,
                                       prob / prob.sum(), np.ones((nt, nz)), observed)
        for kinds in kind_sets:
            spec = AssumptionSpec(kinds=frozenset(kinds), bounds=(-1.0, 1.0), target=target)
            try:
                lp = compile(table, spec).lp
            except CompileError:  # conditional monotonicity with missing outcomes
                continue
            tables.add(missing)
            rows, rhs = lp.effective_system()
            M, box = np.column_stack([rows, rhs])[:lp.q], np.column_stack([rows, rhs])[lp.q:]
            assert lp.M.any(axis=1).all()
            assert not (M[:, None, :] == box[None, :, :]).all(axis=2).any()
    assert tables == {False, True}  # fully observed and missing-outcome tables


def _grid_records(seed, nt, nz, n=150, unobserved=()):
    """n records, uniform over nt treatments x nz instruments, no outcome
    for the treatments in unobserved."""
    rng = np.random.default_rng(seed)
    t, z = rng.integers(0, nt, n), rng.integers(0, nz, n)
    y = np.round(rng.uniform(-1.0, 1.0, n), 3)
    return [(None if str(ti) in unobserved else float(yi), str(ti), f"z{zi}")
            for yi, ti, zi in zip(y, t, z)]


_COMPILING = [k for k in _KIND_SETS if not (k & {"cmiv_p", "cmiv_s"} and "mtr" in k)]


@pytest.mark.parametrize("target", [MeanPotential("2"), ATE("2", "0")], ids=["mean", "ate"])
@pytest.mark.parametrize("kinds", _COMPILING, ids=["+".join(sorted(k)) for k in _COMPILING])
def test_stacked_bootstrap_matches_the_per_draw_loop(kinds, target):
    records = _grid_records(21, 3, 3)
    spec = AssumptionSpec(kinds=frozenset(kinds), target=target,
                          bounds=(-1.0, 1.0) if "bounds" in kinds else None)
    sigma = bootstrap_theta_covariance(records, spec, B=8, seed=5)
    reference, _ = _list_bootstrap(records, spec, B=8, seed=5)
    assert sigma.tobytes() == reference.tobytes()


@pytest.mark.parametrize("target", [MeanPotential("2"), ATE("2", "1")], ids=["mean", "ate"])
def test_stacked_bootstrap_with_missing_outcomes_and_relax(target):
    records = _grid_records(22, 3, 4, n=200, unobserved=("0",))
    spec = AssumptionSpec(kinds=frozenset({"bounds", "mtr", "miv"}), bounds=(-1.0, 1.0),
                          relax=0.05, target=target)
    sigma = bootstrap_theta_covariance(records, spec, B=12, seed=6)
    reference, _ = _list_bootstrap(records, spec, B=12, seed=6)
    assert sigma.tobytes() == reference.tobytes()


def test_bootstrap_cap_message():
    # one record per cell of a 4 x 4 grid: a resample keeps all 16 cells
    # with probability 16!/16^16, about 1e-6
    records = [(0.5, str(t), f"z{z}") for t in range(4) for z in range(4)]
    spec = AssumptionSpec(kinds=frozenset({"bounds", "miv"}), bounds=(0.0, 1.0),
                          target=MeanPotential("1"))
    with pytest.raises(TableError) as caught:
        bootstrap_theta_covariance(records, spec, B=3, seed=0)
    assert str(caught.value) == "bootstrap resampling keeps losing a cell or a level"


def test_bootstrap_checks_each_draw_as_lp_params_does():
    # relax at the float limit: the MIV row's c = -relax - (rise of the
    # target's cell means) overflows to -inf in every draw, as in compile
    records = [(y, "1", z) for y, z in ((-1e305, "a"), (1e305, "b"))] * 5
    records += [(0.0, "0", z) for z in "ab"] * 5
    spec = AssumptionSpec(kinds=frozenset({"miv"}), relax=1.7976e308, target=MeanPotential("1"))
    for run in (lambda: compile(ingest_sample(records), spec),
                lambda: bootstrap_theta_covariance(records, spec, B=4, seed=0)):
        with np.errstate(over="ignore"), \
                pytest.raises(DimensionError, match="p, M, c entries must be finite"):
            run()
    # one treatment level leaves no free variable, so no LP to bootstrap
    single = [(0.1 * i, "1", z) for i in range(5) for z in "ab"]
    spec = AssumptionSpec(kinds=frozenset({"bounds"}), bounds=(0.0, 1.0), target=MeanPotential("1"))
    assert compile(ingest_sample(single), spec).lp is None
    with pytest.raises(DimensionError, match="at least one column"):
        bootstrap_theta_covariance(single, spec, B=4, seed=0)


@pytest.mark.parametrize("kinds, target", [
    ({"mtr"}, MeanPotential("2")),  # MTR rows alone, shared by every draw
    ({"bounds", "cmiv_s"}, ATE("2", "0")),
    ({"bounds", "mtr", "miv"}, ATE("1", "2")),
])
def test_stacked_draw_does_not_depend_on_the_stack(kinds, target):
    # numpy must run the same gemv for draw k in a stack of 7 as alone: no
    # arithmetic that depends on B, such as a gemm over the stack
    records = _grid_records(23, 3, 5, n=300)
    data, base = Microdata.of(records), ingest_sample(records)
    rng = np.random.default_rng(7)
    tables = [ingest_sample(data.take(rng.integers(0, len(data), len(data)))) for _ in range(7)]
    assert all(tab.instruments == base.instruments for tab in tables)
    spec = AssumptionSpec(kinds=frozenset(kinds), bounds=(-1.0, 1.0), target=target)
    stack = _compile_stack(tables, spec)
    for k, table in enumerate(tables):
        alone = _compile_stack([table], spec)
        for many, one in zip(stack[:4], alone[:4]):
            assert many[k].tobytes() == one[0].tobytes()
        lp = compile(table, spec).lp
        assert (stack[0][k].tobytes(), stack[1][k].tobytes(), stack[2][k].tobytes()) == \
            (lp.p.tobytes(), lp.M.tobytes(), lp.c.tobytes())
