import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import FrozenSet, Literal, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpbound import aicm, estimators, linalg
from lpbound.aicm import AssumptionSpec, CompileError, CompiledProgram, bound_value
from lpbound.estimators import (
    PenaltyConfig,
    _relaxed_params,
    debiased_estimate,
    default_kappa_n,
    penalty_value,
    set_expansion_value,
)
from lpbound.inference import InferenceConfig, InferenceError
from lpbound.linalg import (
    INFEASIBLE,
    OPTIMAL,
    TAU_VAL,
    UNBOUNDED,
    DimensionError,
    LpParams,
    binding_rows,
    inverse_vectorize,
    smallest_singular_value,
    check_fields,
    solve_lp,
    stack_theta,
)

from lpbound.montecarlo import (_EXAMPLE, _GRID, ConsistencyScenario, ScenarioError,
                                 SimulationScenario, run_consistency)

from conftest import example1_params, random_lp
from lp_oracles import enumerate_vertices


class TestSolveLp:
    def test_degenerate_vertex_instance(self):
        sol = solve_lp(example1_params(0.0))
        assert sol.status == OPTIMAL
        assert abs(sol.value - (-1.0)) < 1e-9
        assert np.allclose(sol.vertex, [-1.0, -1.0], atol=1e-9)

    @pytest.mark.parametrize("b", [-0.05, -0.01, -0.5])
    def test_negative_slope_instances(self, b):
        sol = solve_lp(example1_params(b))
        assert sol.status == OPTIMAL
        assert abs(sol.value) < 1e-9

    def test_positive_slope_instances(self):
        for b in (0.01, 0.3):
            sol = solve_lp(example1_params(b))
            assert abs(sol.value - (-1.0)) < 1e-9

    def test_infeasible_status(self):
        params = LpParams(
            p=np.array([1.0]),
            M=np.array([[1.0], [-1.0]]),
            c=np.array([1.0, 1.0]),  # x >= 1 and x <= -1
            box=(np.array([-5.0]), np.array([5.0])),
        )
        sol = solve_lp(params)
        assert sol.status == INFEASIBLE
        assert sol.value is None

    def test_unbounded_status(self):
        params = LpParams(
            p=np.array([-1.0]),
            M=np.array([[1.0]]),
            c=np.array([0.0]),
            box=(np.array([-np.inf]), np.array([np.inf])),
        )
        assert solve_lp(params).status == UNBOUNDED

    def test_binding_rows_at_degenerate_vertex(self):
        params = example1_params(0.0)
        rows = binding_rows(params.M, params.c, np.array([-1.0, -1.0]))
        assert rows.tolist() == [0, 1, 2]

    def test_secondary_objective_picks_face_endpoint(self):
        # flat objective over the box; the secondary stage selects the corner
        d = 2
        params = LpParams(
            p=np.zeros(d),
            M=np.array([[1.0, 1.0]]),
            c=np.array([-10.0]),
            box=(np.full(d, -1.0), np.full(d, 1.0)),
        )
        hi = solve_lp(params, secondary=np.array([-1.0, -1.0]))
        lo = solve_lp(params, secondary=np.array([1.0, 1.0]))
        assert np.allclose(hi.vertex, [1.0, 1.0], atol=1e-9)
        assert np.allclose(lo.vertex, [-1.0, -1.0], atol=1e-9)
        assert abs(hi.value) < 1e-12 and abs(lo.value) < 1e-12
        with pytest.raises(TypeError):  # secondary is keyword-only
            solve_lp(params, np.array([-1.0, -1.0]))


class TestAgainstEnumeration:
    def test_random_instances_match_vertex_oracle(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(250):
            params = random_lp(rng)
            sol = solve_lp(params)
            vertices = enumerate_vertices(params)
            if not vertices:
                assert sol.status == INFEASIBLE
                continue
            best = min(float(params.p @ v) for v, _ in vertices)
            assert sol.status == OPTIMAL
            assert abs(sol.value - best) < 1e-9 * (1.0 + abs(best))
            checked += 1
        assert checked > 100

    @settings(deadline=None, max_examples=30)
    @given(
        d=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_values_match_highs_past_the_enumeration_cap(self, d, seed):
        # boxed LPs with a strictly interior point, up to (30, 90), where
        # vertex enumeration cannot reach; HiGHS is an independent solver
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(seed)
        q = 3 * d
        M, p = rng.normal(size=(q, d)), rng.normal(size=d)
        half = float(rng.uniform(0.5, 3.0))
        c = M @ rng.uniform(-half, half, size=d) - rng.uniform(0.1, 1.0, size=q)
        params = LpParams(p=p, M=M, c=c, box=(np.full(d, -half), np.full(d, half)))
        sol = solve_lp(params)
        ref = linprog(p, A_ub=-M, b_ub=-c, bounds=(-half, half), method="highs")
        assert sol.status == OPTIMAL and ref.status == 0
        assert abs(sol.value - ref.fun) <= TAU_VAL * (1.0 + abs(ref.fun))

    def test_unit_box_vertices(self):
        params = LpParams(
            p=np.zeros(2),
            M=np.zeros((1, 2)),
            c=np.array([-1.0]),
            box=(np.full(2, -1.0), np.full(2, 1.0)),
        )
        vertices = enumerate_vertices(params)
        pts = sorted(tuple(np.round(v, 9)) for v, _ in vertices)
        assert pts == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]


class TestDriveOut:
    """A repeated row leaves a phase-1 artificial basic at zero, which must be
    driven out of the basis before phase 2."""

    def test_doubled_row_instance(self):
        params = LpParams(
            p=np.array([-1.0, 1.0, 0.0]),
            M=np.array([[-1.0, 1.0, 0.0], [-2.0, -1.0, 0.0], [2.0, 0.0, -1.0],
                        [-2.0, -2.0, 1.0], [-2.0, 2.0, 0.0]]),
            c=np.array([1.0, 1.0, 1.0, -1.0, 2.0]),
            box=(np.full(3, -3.0), np.full(3, 3.0)),
        )
        sol = solve_lp(params)
        best = min(float(params.p @ v) for v, _ in enumerate_vertices(params))
        assert sol.status == OPTIMAL
        assert abs(sol.value - 1.0) < 1e-9 and abs(best - 1.0) < 1e-9

    def test_integer_lps_with_a_doubled_row_match_enumeration(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            d, q = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            M = rng.integers(-2, 3, size=(q, d)).astype(float)
            c = rng.integers(-2, 3, size=q).astype(float)
            params = LpParams(
                p=rng.integers(-2, 3, size=d).astype(float),
                M=np.vstack([M[:1], M]),
                c=np.concatenate([c[:1], c]),
                box=(np.full(d, -3.0), np.full(d, 3.0)),
            )
            sol = solve_lp(params)
            vertices = enumerate_vertices(params)
            if not vertices:
                assert sol.status == INFEASIBLE
                continue
            best = min(float(params.p @ v) for v, _ in vertices)
            assert sol.status == OPTIMAL
            assert abs(sol.value - best) < 1e-9 * (1.0 + abs(best))


def _simplex_reinverting(cost, A, b, lo, hi, basis, z, allowed=None, Binv=None, pivots=None):
    """The bounded simplex loop, with its pricing rule, bound flips and stall
    fallback, taking a fresh basis inverse and a fresh x_B at every pivot (a
    Binv passed in, by a warm start or from the stage before, is the same
    inverse of the same matrix, so it is taken again): the reference the
    rank-one update must reproduce bit for bit. Appends the pivot count of
    each call to `pivots`."""
    m = A.shape[0]
    basis, z = list(basis), z.copy()
    tol = linalg._REDUCED_COST_TOL * max(1.0, float(np.abs(cost).max()))
    count = stall = 0
    while True:
        Binv = np.linalg.inv(A[:, basis])
        z[basis] = 0.0
        xB = Binv @ (b - A @ z)
        y = Binv.T @ cost[basis]
        reduced = cost - A.T @ y
        reduced[basis] = 0.0
        eligible = ((z < hi) & (reduced < -tol)) | ((z > lo) & (reduced > tol))
        if allowed is not None:
            eligible &= allowed
        candidates = np.flatnonzero(eligible)
        if candidates.size == 0:
            pivots.append(count)
            z[basis] = np.clip(xB, lo[basis], hi[basis])
            return OPTIMAL, z, basis, reduced, Binv
        if stall >= linalg._STALL_LIMIT:
            enter = int(candidates[0])
        else:
            enter = int(candidates[np.argmax(np.abs(reduced[candidates]))])
        direction = Binv @ A[:, enter]
        sense = 1.0 if reduced[enter] < 0.0 else -1.0
        move = sense * direction
        ratios = np.full(m, np.inf)
        np.divide(xB - np.where(move > 0.0, lo[basis], hi[basis]), move, out=ratios,
                  where=np.abs(move) > linalg._PIVOT_TOL)
        rmin = max(ratios.min(initial=np.inf), 0.0)
        span = hi[enter] - lo[enter]
        if span <= rmin:
            if span == np.inf:
                pivots.append(count)
                return UNBOUNDED, None, basis, None, Binv
            z[enter] = hi[enter] if sense > 0.0 else lo[enter]
            if stall < linalg._STALL_LIMIT:
                stall = 0
            continue
        ties = np.flatnonzero(ratios <= rmin + 1e-12)
        leave = min(ties, key=basis.__getitem__)
        if stall < linalg._STALL_LIMIT:
            stall = stall + 1 if rmin == 0.0 else 0
        out = basis[leave]
        z[out] = hi[out] if move[leave] < 0.0 else lo[out]
        basis[leave] = enter
        count += 1


def _relaxed_penalty_lp(seed: int, d: int = 10, q: int = 30):
    """The relaxed penalty LP of a random feasible boxed (d, q) LP at the
    data-driven penalty for n = 1000, and the debiased secondary objective."""
    rng = np.random.default_rng(seed)
    M, p = rng.standard_normal((q, d)), rng.standard_normal(d)
    c = M @ rng.uniform(-4.0, 4.0, d) - rng.uniform(0.1, 1.0, q)
    params = LpParams(p=p, M=M, c=c, box=(np.full(d, -5.0), np.full(d, 5.0)))
    relaxed = _relaxed_params(params, PenaltyConfig().resolve_w(params, 1000))
    return relaxed, np.concatenate([-p, np.zeros(q)])


def _unbounded_lp():
    # min -x2 s.t. x2 <= x1 + 1, x >= 0: one pivot, then an unbounded ray
    return LpParams(p=np.array([0.0, -1.0]), M=np.array([[1.0, -1.0], [0.0, 1.0]]),
                    c=np.array([-1.0, 0.0]), box=(np.array([0.0, 0.0]), np.full(2, np.inf)))


def _beale_lp():
    """Beale's LP (1955), on which the most-negative-reduced-cost rule cycles:
    min -3/4 x1 + 20 x2 - 1/2 x3 + 6 x4 s.t. 1/4 x1 - 8 x2 - x3 + 9 x4 <= 0,
    1/2 x1 - 12 x2 - 1/2 x3 + 3 x4 <= 0, x >= 0 and x3 <= 1; the optimum is
    -5/4 at x = (1, 0, 1, 0)."""
    return LpParams(p=[-0.75, 20.0, -0.5, 6.0],
                    M=-np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0]]),
                    c=[0.0, 0.0], box=([0.0] * 4, [np.inf, np.inf, 1.0, np.inf]))


def _rank_one_cases():
    for seed in (0, 1, 2):
        relaxed, secondary = _relaxed_penalty_lp(seed)
        yield f"relaxed-10x30-seed{seed}", relaxed, None
        yield f"relaxed-10x30-seed{seed}-secondary", relaxed, secondary
    relaxed, secondary = _relaxed_penalty_lp(5, d=20, q=60)  # phase 2 takes 54 pivots
    yield "relaxed-20x60-seed5-secondary", relaxed, secondary
    yield "beale", _beale_lp(), None
    yield "example_a-b0", example1_params(0.0), None
    yield "infeasible", LpParams(p=np.array([1.0]), M=np.array([[1.0], [-1.0]]),
                                 c=np.array([1.0, 1.0]),  # x >= 1 and x <= -1
                                 box=(np.array([-5.0]), np.array([5.0]))), None
    yield "unbounded", _unbounded_lp(), None
    for a in (-0.1, 0.0, 0.1):  # phase 1 leaves an artificial basic at zero
        yield f"uniform_grid-a{a}", _GRID.params((a, 0.0, 0.0, 0.0)), None


_RANK_ONE_CASES = list(_rank_one_cases())


class TestRankOneUpdate:
    """The simplex updates its basis inverse by one rank-one step per pivot
    and inverts afresh before any verdict, so solve_lp returns bitwise what a
    fresh inverse at every pivot returns."""

    @pytest.mark.parametrize("params, secondary", [case[1:] for case in _RANK_ONE_CASES],
                             ids=[case[0] for case in _RANK_ONE_CASES])
    def test_bitwise_equal_to_reinverting_every_pivot(self, monkeypatch, params, secondary):
        sol = solve_lp(params, secondary=secondary)
        pivots = []
        monkeypatch.setattr(linalg, "_simplex",
                            functools.partial(_simplex_reinverting, pivots=pivots))
        ref = solve_lp(params, secondary=secondary)
        assert sol.status == ref.status
        assert sol.value == ref.value
        if ref.vertex is None:
            assert sol.vertex is None
        else:
            assert sol.vertex.tobytes() == ref.vertex.tobytes()
        if params.q == 60:  # the relaxed (20,60) LP crosses the refactor interval
            assert max(pivots) > linalg._REFACTOR_EVERY

    @pytest.mark.parametrize("params", [case[1] for case in _RANK_ONE_CASES
                                        if case[0].startswith("uniform_grid")])
    def test_grid_cases_leave_phase_1_an_artificial_basic(self, monkeypatch, params):
        # the cases cover the hand-off only while phase 1 leaves an artificial basic
        nvar, left, simplex = params.d + params.q, [], linalg._simplex

        def recording_simplex(cost, A, *args, **kwargs):
            result = simplex(cost, A, *args, **kwargs)
            if A.shape[1] > nvar:  # phase 1, over the artificial columns too
                left.append(max(result[2]) >= nvar)
            return result

        monkeypatch.setattr(linalg, "_simplex", recording_simplex)
        assert solve_lp(params).status == OPTIMAL
        assert left == [True]

    def test_expected_statuses(self):
        statuses = {name: solve_lp(params, secondary=sec).status
                    for name, params, sec in _RANK_ONE_CASES}
        assert statuses.pop("infeasible") == INFEASIBLE
        assert statuses.pop("unbounded") == UNBOUNDED
        assert set(statuses.values()) == {OPTIMAL}

    def test_verdicts_come_from_a_fresh_inverse(self, monkeypatch, warm_starts):
        inverted = []
        real_inv, simplex = np.linalg.inv, linalg._simplex

        def recording_inv(a):
            inverted.append(np.array(a))
            return real_inv(a)

        def checked_simplex(cost, A, b, lo, hi, basis, z, allowed=None, Binv=None):
            status, z, final, reduced, Binv = simplex(cost, A, b, lo, hi, basis, z, allowed, Binv)
            assert np.array_equal(inverted[-1], A[:, final])
            return status, z, final, reduced, Binv

        monkeypatch.setattr(np.linalg, "inv", recording_inv)
        monkeypatch.setattr(linalg, "_simplex", checked_simplex)
        for _, params, secondary in _RANK_ONE_CASES:
            solve_lp(params, secondary=secondary)
        # warm starts: each LP again from its own final basis, and example_a
        # draws from one another's
        for _, params, secondary in _RANK_ONE_CASES:
            bases = []
            solve_lp(params, secondary=secondary, bases=bases)
            solve_lp(params, secondary=secondary, bases=bases)
        for estimator in _ESTIMATORS.values():
            bases = []
            for b_hat in _B_HATS:
                estimator(example1_params(b_hat), bases)
        assert warm_starts.count(True) > len(_RANK_ONE_CASES)


def _standard_form(params):
    """A, b, lo and hi of solve_lp's bounded standard form, and the cold
    start's point z."""
    q, d = params.M.shape
    lo = np.concatenate([params.box[0], np.zeros(q)])
    hi = np.concatenate([params.box[1], np.full(q, np.inf)])
    start = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    return np.hstack([params.M, -np.eye(q)]), params.c, lo, hi, start


# each estimator's value on example_a at b_hat, solved with a warm-start list
_ESTIMATORS = {
    "plugin": lambda params, bases: solve_lp(params, bases=bases),
    "penalty": lambda params, bases: penalty_value(
        params, PenaltyConfig().resolve_w(params, 1000), bases=bases),
    "debiased": lambda params, bases: debiased_estimate(
        params, PenaltyConfig().resolve_w(params, 1000), bases=bases),
    "setexp": lambda params, bases: set_expansion_value(
        params, default_kappa_n(1000), 1000, bases=bases),
}
# example_a draws on both sides of the degenerate b = 0
_B_HATS = (-0.031, 0.024, -0.0047, 0.0112, 0.0, -0.2, 0.15)


def _status_value(result):
    if isinstance(result, float):  # penalty_value
        return OPTIMAL, result
    return getattr(result, "status", OPTIMAL), result.value


class TestWarmStart:
    """solve_lp's `bases` list: a start from an earlier solve's basis gives
    the cold solve's status and value, and a candidate that is not a
    feasible basis leaves the solve exactly as cold."""

    @pytest.mark.parametrize("name", sorted(_ESTIMATORS))
    def test_values_match_cold_solves_across_the_degenerate_vertex(self, name, warm_starts):
        estimator = _ESTIMATORS[name]
        for first in _B_HATS:
            for second in _B_HATS:
                if first * second >= 0.0 and first != second:
                    continue  # only draws on opposite sides, and each from itself
                bases = []
                estimator(example1_params(first), bases)
                assert bases
                warm = _status_value(estimator(example1_params(second), bases))
                cold = _status_value(estimator(example1_params(second), None))
                assert warm[0] == cold[0] == OPTIMAL
                assert abs(warm[1] - cold[1]) <= 1e-12
        assert any(warm_starts)

    def test_bad_candidates_leave_the_solve_cold(self, warm_starts):
        params = example1_params(1e-13)  # rows 0 and 1 parallel up to 1e-13
        A, b, lo, hi, z = _standard_form(params)
        m, nvar = A.shape
        slack = list(range(params.d, nvar))
        none_up = np.array([], dtype=int)
        singular = [0, 1] + slack[:2]  # rows 2 and 3 hold only x1's entries
        assert np.linalg.matrix_rank(A[:, singular]) < m
        # x1 and x2 basic with the surpluses of rows 0 and 1 out: an inverse
        # exists and gives a feasible x_B, but cond(B) is about 1e14
        near_singular = [0, 1] + slack[2:]
        assert np.linalg.cond(A[:, near_singular]) > 1e13

        def x_basic(J):
            z_N = z.copy()
            z_N[J] = 0.0
            return np.linalg.solve(A[:, J], b - A @ z_N)

        infeasible = next(
            list(J) for J in itertools.combinations(range(nvar), m)
            if abs(np.linalg.det(A[:, list(J)])) > 0.1
            and (x_basic(list(J)) - lo[list(J)]).min() < -0.1)
        cold = solve_lp(params)
        wrong_shape = ([0, 1, 2], slack[:-1] + [nvar])  # too short; a column A lacks
        candidates = [(J, none_up) for J in (*wrong_shape, singular, near_singular, infeasible)]
        candidates.append((slack, np.array([params.d])))  # a surplus has no upper bound
        for candidate in candidates:
            bases = [candidate]
            sol = solve_lp(params, bases=bases)
            assert sol.status == cold.status
            assert sol.value == cold.value
            assert sol.vertex.tobytes() == cold.vertex.tobytes()
            assert len(bases) == 2  # the final entry goes first
            assert bases[1][0] is candidate[0] and bases[1][1] is candidate[1]
        assert warm_starts == [False] * 6

    def test_infeasible_lp_with_a_list(self):
        def lp(c):  # x >= c[0] and x <= -c[1] in the box [-5, 5]
            return LpParams(p=np.array([1.0]), M=np.array([[1.0], [-1.0]]),
                            c=np.array(c), box=(np.array([-5.0]), np.array([5.0])))

        bases = []
        assert solve_lp(lp([-1.0, -1.0]), bases=bases).status == OPTIMAL
        kept = [tuple(map(id, entry)) for entry in bases]
        sol = solve_lp(lp([1.0, 1.0]), bases=bases)  # x >= 1 and x <= -1
        assert sol.status == INFEASIBLE and sol.value is None
        assert [tuple(map(id, entry)) for entry in bases] == kept


class TestWarmBasisSelection:
    """_warm_basis picks the first entry of the list whose x_B lies within
    its bounds and whose B is well-conditioned, whichever test runs first."""

    def _entries(self):
        """The standard form of example_a at b = 1e-13 and three bases of
        it: feasible but with cond(B) about 1e14, infeasible, and the cold
        solve's final basis (feasible, well-conditioned)."""
        params = example1_params(1e-13)
        A, b, lo, hi, z = _standard_form(params)
        slack = list(range(params.d, A.shape[1]))
        ill = [0, 1] + slack[2:]
        assert np.linalg.cond(A[:, ill]) > 1e13

        def below_bounds(J):  # how far x_B of columns J falls below its lower bounds
            z_N = z.copy()
            z_N[J] = 0.0
            return (np.linalg.solve(A[:, J], b - A @ z_N) - lo[J]).min()

        infeasible = next(list(J) for J in itertools.combinations(range(A.shape[1]), A.shape[0])
                          if abs(np.linalg.det(A[:, list(J)])) > 0.1 and below_bounds(list(J)) < -0.1)
        bases = []
        solve_lp(params, bases=bases)
        good = bases[0][0]
        return params, (A, b, lo, hi, z), ill, infeasible, good

    def test_the_first_feasible_well_conditioned_entry_is_picked(self):
        _, form, ill, infeasible, good = self._entries()
        A, *_, z = form
        none_up = np.array([], dtype=np.intp)
        for J in (ill, infeasible, good):  # each alone: only the last is a start
            found = linalg._warm_basis(*form, [(J, none_up)])
            assert (found is not None) == (J is good)
        basis, start, Binv = linalg._warm_basis(*form, [(ill, none_up), (infeasible, none_up),
                                                        (good, none_up)])
        assert basis is good
        assert np.array_equal(Binv, np.linalg.inv(A[:, good]))
        expected = z.copy()
        expected[good] = 0.0
        assert start.tobytes() == expected.tobytes()

    def test_an_entry_with_an_unbounded_column_at_its_upper_bound_is_skipped(self):
        params, form, _, _, good = self._entries()
        nonbasic_surplus = [j for j in range(params.d, form[0].shape[1]) if j not in good]
        assert nonbasic_surplus and np.isinf(form[3][nonbasic_surplus]).all()
        later = list(good)
        entries = [(good, np.array(nonbasic_surplus[:1])), (later, np.array([], dtype=np.intp))]
        assert linalg._warm_basis(*form, entries)[0] is later

    def test_an_entry_with_no_column_at_its_upper_bound_is_accepted(self):
        _, form, _, _, good = self._entries()
        for none_up in (np.array([], dtype=np.intp), []):
            assert linalg._warm_basis(*form, [(good, none_up)])[0] is good

    def test_an_lp_of_no_rows_solves_warm_as_cold(self, warm_starts):
        params = LpParams(p=[1.0, -1.0], M=np.zeros((0, 2)), c=[], box=([-1.0, -1.0], [2.0, 2.0]))
        bases = []
        first = solve_lp(params, bases=bases)
        warm = solve_lp(params, bases=bases)
        cold = solve_lp(params)
        assert warm_starts == [False, True]
        assert first.status == warm.status == cold.status == OPTIMAL
        assert warm.value == cold.value == -3.0
        assert warm.vertex.tobytes() == cold.vertex.tobytes()


def test_cached_standard_blocks_equal_fresh_ones_and_are_read_only():
    """solve_lp and the relaxed penalty LP share one set of -I, +I, zero and
    infinity blocks per row count q; after a consistency study (q = 4) the
    cached set equals one built afresh, and no caller can write to it."""
    run_consistency(ConsistencyScenario(dgp="example_a", sample_sizes=[100], replications=3))
    hits = linalg.standard_blocks.cache_info().hits
    cached = linalg.standard_blocks(4)
    assert linalg.standard_blocks.cache_info().hits == hits + 1
    fresh = (-np.eye(4), np.eye(4), np.zeros(4), np.full(4, np.inf))
    for block, expected in zip(cached, fresh, strict=True):
        assert block.dtype == expected.dtype and block.shape == expected.shape
        assert block.tobytes() == expected.tobytes()  # -I keeps its -0.0 entries
        with pytest.raises(ValueError, match="read-only"):
            block[0] = 1.0


def _matches_vertex_oracle(params) -> bool:
    """solve_lp agrees with vertex enumeration on params; whether the LP was
    feasible."""
    sol = solve_lp(params)
    vertices = enumerate_vertices(params)
    if not vertices:
        assert sol.status == INFEASIBLE
        return False
    best = min(float(params.p @ v) for v, _ in vertices)
    assert sol.status == OPTIMAL
    assert abs(sol.value - best) < 1e-9 * (1.0 + abs(best))
    return True


class TestAntiCycling:
    """Pricing by the most negative reduced cost cycles on Beale's LP; the
    switch to Bland's rule after _STALL_LIMIT degenerate pivots in a row
    ends every solve."""

    @pytest.mark.parametrize("stall_limit", [linalg._STALL_LIMIT, 0], ids=["default", "bland"])
    def test_beale_lp_terminates_at_its_optimum(self, monkeypatch, stall_limit):
        monkeypatch.setattr(linalg, "_STALL_LIMIT", stall_limit)
        sol = solve_lp(_beale_lp())
        assert sol.status == OPTIMAL
        assert sol.value == -1.25
        assert sol.vertex.tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_beale_lp_cycles_without_the_switch(self, monkeypatch):
        # Beale's right-hand sides are <= 0, so there is no phase 1, and with
        # a fresh inverse at every pivot each inversion is one pivot's basis
        # (in order): a repeated basis matrix means the solve has cycled
        seen, real_inv = set(), np.linalg.inv

        class Cycled(Exception):
            pass

        def inv(a):
            if a.tobytes() in seen:
                raise Cycled
            seen.add(a.tobytes())
            return real_inv(a)

        monkeypatch.setattr(np.linalg, "inv", inv)
        monkeypatch.setattr(linalg, "_REFACTOR_EVERY", 1)
        monkeypatch.setattr(linalg, "_STALL_LIMIT", 10**9)  # never switch
        with pytest.raises(Cycled):
            solve_lp(_beale_lp())

    @pytest.mark.parametrize("stall_limit", [linalg._STALL_LIMIT, 1, 0],
                             ids=["default", "switch-after-1", "bland"])
    def test_random_lps_match_the_vertex_oracle(self, monkeypatch, stall_limit):
        monkeypatch.setattr(linalg, "_STALL_LIMIT", stall_limit)
        rng = np.random.default_rng(11)
        feasible = 0
        for _ in range(100):
            feasible += _matches_vertex_oracle(random_lp(rng))
            # small integer data: tied reduced costs and degenerate vertices
            d, q = int(rng.integers(1, 4)), int(rng.integers(1, 7))
            feasible += _matches_vertex_oracle(LpParams(
                p=rng.integers(-2, 3, size=d).astype(float),
                M=rng.integers(-2, 3, size=(q, d)).astype(float),
                c=rng.integers(-2, 3, size=q).astype(float),
                box=(np.full(d, -3.0), np.full(d, 3.0))))
        assert feasible > 100


class TestBoundedForm:
    """Paths of the bounded-variable simplex that the box rows of a row-only
    form never took: bound flips, free and fixed coordinates, programs of
    the box alone, and warm starts from nonbasics at their upper bound."""

    @staticmethod
    def flip_lp():
        # min -x1 - x2 on [0, 1]^2 with one slack row x1 + x2 >= -10
        return LpParams(p=[-1.0, -1.0], M=[[1.0, 1.0]], c=[-10.0], box=([0.0, 0.0], [1.0, 1.0]))

    def test_bound_flips_keep_the_basis(self, monkeypatch):
        inverted, real_inv = [], np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a) or real_inv(a))
        bases = []
        sol = solve_lp(self.flip_lp(), bases=bases)
        assert sol.status == OPTIMAL and sol.value == -2.0
        assert sol.vertex.tolist() == [1.0, 1.0]
        # both coordinates flipped to their upper bound; the surplus stayed
        # basic, and the start's inverse was the only one taken
        [(basis, at_upper, *_)] = bases
        assert basis == [2] and at_upper.tolist() == [0, 1]
        assert len(inverted) == 1
        assert _matches_vertex_oracle(self.flip_lp())

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["falls", "rises"])
    def test_free_coordinate_enters_both_ways(self, sign):
        # x1 free (starts at 0), x2 in [-1, 1]; -3 <= x1 + x2 <= 4
        params = LpParams(p=[sign, 0.5], M=[[1.0, 1.0], [-1.0, -1.0]], c=[-3.0, -4.0],
                          box=([-np.inf, -1.0], [np.inf, 1.0]))
        sol = solve_lp(params)
        assert sol.status == OPTIMAL
        assert sol.vertex.tolist() == ([-4.0, 1.0] if sign > 0 else [5.0, -1.0])
        linprog = pytest.importorskip("scipy.optimize").linprog
        ref = linprog(params.p, A_ub=-params.M, b_ub=-params.c,
                      bounds=[(None, None), (-1.0, 1.0)], method="highs")
        assert abs(sol.value - ref.fun) <= TAU_VAL * (1.0 + abs(ref.fun))

    def test_fixed_coordinate(self):
        # x2 fixed at 0.5 by its box; min x1 + x2 s.t. x1 + x2 >= 1
        params = LpParams(p=[1.0, 1.0], M=[[1.0, 1.0]], c=[1.0], box=([-2.0, 0.5], [2.0, 0.5]))
        sol = solve_lp(params)
        assert sol.status == OPTIMAL and sol.vertex[1] == 0.5
        assert abs(sol.value - 1.0) < 1e-12
        assert _matches_vertex_oracle(params)

    def test_program_of_the_box_alone(self):
        box = ([-1.0, -1.0], [2.0, 2.0])
        params = LpParams(p=[1.0, -1.0], M=np.zeros((0, 2)), c=[], box=box)
        sol = solve_lp(params)
        assert sol.status == OPTIMAL and sol.vertex.tolist() == [-1.0, 2.0]
        assert _matches_vertex_oracle(params)
        # x2 is free on the optimal face of min x1; the secondary stage moves it
        flat = LpParams(p=[1.0, 0.0], M=np.zeros((0, 2)), c=[], box=box)
        for secondary, x2 in (([0.0, -1.0], 2.0), ([0.0, 1.0], -1.0)):
            sol = solve_lp(flat, secondary=np.array(secondary))
            assert sol.status == OPTIMAL and sol.value == -1.0
            assert sol.vertex.tolist() == [-1.0, x2]
        unbounded = LpParams(p=[1.0, -1.0], M=np.zeros((0, 2)), c=[], box=([-1.0, -1.0], [2.0, np.inf]))
        assert solve_lp(unbounded).status == UNBOUNDED

    def test_warm_start_from_nonbasics_at_their_upper_bound(self, monkeypatch, warm_starts):
        bases = []
        solve_lp(self.flip_lp(), bases=bases)
        assert bases[0][1].tolist() == [0, 1]
        # the same columns serve an LP with another right-hand side; its
        # inverse is the one the last solve ended on, so none is taken
        inverted, real_inv = [], np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a) or real_inv(a))
        shifted = LpParams(p=[-1.0, -1.0], M=[[1.0, 1.0]], c=[1.5], box=([0.0, 0.0], [1.0, 1.0]))
        warm = solve_lp(shifted, bases=bases)
        assert warm_starts == [False, True] and inverted == []
        cold = solve_lp(shifted)
        assert warm.status == cold.status == OPTIMAL
        assert warm.value == cold.value == -2.0
        assert warm.vertex.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("lower, upper", [(1.0, 0.0), (np.inf, np.inf), (-np.inf, -np.inf)],
                         ids=["crossed", "lower-inf", "upper-minus-inf"])
def test_a_box_no_real_number_meets_is_rejected(lower, upper):
    # the bounded simplex starts a coordinate at a finite bound or 0, so a
    # side at the wrong infinity would put it outside its own box
    with pytest.raises(DimensionError, match="box bounds need"):
        LpParams(p=[1.0], M=[[1.0]], c=[0.0], box=([lower], [upper]))


class TestLinalgUtilities:
    def test_smallest_singular_value_identity(self):
        assert abs(smallest_singular_value(np.eye(3)) - 1.0) < 1e-12

    def test_smallest_singular_value_singular_matrix(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert smallest_singular_value(m) < 1e-9

    def test_smallest_singular_value_matches_eigendecomposition(self, rng):
        for _ in range(50):
            m = rng.normal(size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            gram = m.T @ m if m.shape[0] >= m.shape[1] else m @ m.T
            expected = math.sqrt(max(float(np.linalg.eigvalsh(gram).min()), 0.0))
            assert abs(smallest_singular_value(m) - expected) < 1e-8

    @settings(deadline=None, max_examples=50)
    @given(
        q=st.integers(min_value=1, max_value=5),
        d=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_vectorize_round_trip(self, q, d, seed):
        rng = np.random.default_rng(seed)
        params = LpParams(p=rng.normal(size=d), M=rng.normal(size=(q, d)), c=rng.normal(size=q))
        theta = params.theta()
        assert np.array_equal(theta[:d], params.p)
        assert np.array_equal(inverse_vectorize(theta[d : d + q * d], q, d), params.M)
        assert np.array_equal(theta[d + q * d :], params.c)

    @settings(deadline=None, max_examples=50)
    @given(
        q=st.integers(min_value=0, max_value=5),
        d=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_from_theta_inverts_theta(self, q, d, seed):
        rng = np.random.default_rng(seed)
        box = (np.full(d, -1.0), np.full(d, 1.0))
        params = LpParams(p=rng.normal(size=d), M=rng.normal(size=(q, d)), c=rng.normal(size=q),
                          box=box)
        back = LpParams.from_theta(params.theta(), q, d, box)
        pairs = ((back.p, params.p), (back.M, params.M), (back.c, params.c), *zip(back.box, box))
        for got, want in pairs:
            assert got.shape == want.shape and np.array_equal(got, want)
        with pytest.raises(DimensionError, match="theta has length"):
            LpParams.from_theta(np.append(params.theta(), 0.0), q, d, box)

    def test_vectorize_is_column_major(self):
        params = LpParams(p=[5.0, 6.0], M=[[1.0, 3.0], [2.0, 4.0]], c=[7.0, 8.0])
        assert params.theta().tolist() == [5.0, 6.0, 1.0, 2.0, 3.0, 4.0, 7.0, 8.0]

    @pytest.mark.parametrize("q, d", [(0, 2), (3, 1), (4, 3)])
    def test_stack_theta_over_a_leading_axis_stacks_each_lp(self, rng, q, d):
        p, M, c = rng.normal(size=(5, d)), rng.normal(size=(5, q, d)), rng.normal(size=(5, q))
        want = np.array([np.concatenate([p[b], M[b].flatten(order="F"), c[b]]) for b in range(5)])
        got = stack_theta(p, M, c)
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionError):
            LpParams(
                p=np.array([1.0, 0.0]),
                M=np.array([[1.0, 0.0]]),
                c=np.array([0.0, 0.0]),
                box=(np.full(2, -1.0), np.full(2, 1.0)),
            )
        with pytest.raises(DimensionError):
            inverse_vectorize(np.zeros(5), 2, 2)

    @pytest.mark.parametrize("name, entries", [
        ("M", dict(p=[1.0, 0.0], M=[[1.0], [1.0, 0.0]], c=[0.0, 0.0])),  # ragged: ValueError
        ("p", dict(p="x", M=[[1.0]], c=[0.0])),  # ValueError
        ("p", dict(p=[10**400], M=[[1.0]], c=[0.0])),  # OverflowError
        ("p", dict(p=[{}], M=[[1.0]], c=[0.0])),  # TypeError
    ], ids=["ragged-M", "p-string", "p-beyond-float", "p-dict"])
    def test_input_numpy_cannot_convert_raises_dimension_error(self, name, entries):
        with pytest.raises(DimensionError, match=rf"^{name} must be a numeric array$"):
            LpParams(**entries)


def _same_arrays(derived: LpParams, checked: LpParams) -> bool:
    """Every array of derived equals checked's, in shape, dtype and value."""
    pairs = zip((derived.p, derived.M, derived.c, *derived.box),
                (checked.p, checked.M, checked.c, *checked.box))
    return all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in pairs)


class TestDerivedLp:
    """LPs built from a checked one skip LpParams.__post_init__
    (LpParams._derived): each has the arrays of the checked LpParams built
    from the same pieces, and an entry it adds that is not finite raises the
    checked constructor's error."""

    FINITE = r"^p, M, c entries must be finite$"

    def test_relaxed_lp_is_the_checked_one(self, rng):
        for _ in range(30):
            params = random_lp(rng)
            q, (lower, upper) = params.q, params.box
            for w in (float(rng.uniform(0.0, 5.0)), rng.uniform(0.0, 5.0, q)):
                checked = LpParams(
                    p=np.concatenate([params.p, np.broadcast_to(w, (q,))]),
                    M=np.hstack([params.M, np.eye(q)]), c=params.c,
                    box=(np.concatenate([lower, np.zeros(q)]), np.concatenate([upper, np.full(q, np.inf)])))
                assert _same_arrays(_relaxed_params(params, w), checked)

    def test_expanded_and_flipped_lps_are_the_checked_ones(self, rng, monkeypatch):
        solved = []
        for module in (estimators, aicm):
            monkeypatch.setattr(module, "solve_lp", lambda lp, **_: solved.append(lp) or
                                linalg.LpSolution(OPTIMAL, 0.0, np.zeros(lp.d)))
        params = random_lp(rng)
        set_expansion_value(params, 0.3, 50)
        checked = LpParams(p=params.p, M=params.M, c=params.c - math.sqrt(0.3 / 50), box=params.box)
        assert _same_arrays(solved.pop(), checked)
        for direction, flip in (("lower", 1.0), ("upper", -1.0)):
            bound_value(CompiledProgram(params, 0.0, []), direction)
            checked = LpParams(p=flip * params.p, M=params.M, c=params.c, box=params.box)
            assert _same_arrays(solved.pop(), checked)

    def test_fold_lps_of_an_aicm_interval_are_the_checked_ones(self, monkeypatch):
        folds, run = [], aicm.run_inference

        def recording_run(n, estimator, cfg, seed):
            def recording(idx):
                estimate = estimator(idx)
                folds.append((idx, estimate.params))
                return estimate
            return run(n, recording, cfg, seed)

        monkeypatch.setattr(aicm, "run_inference", recording_run)
        rng = np.random.default_rng(5)
        records = [(float(rng.uniform(0, 1)), str(t), z) for t in (0, 1) for z in "ab"
                   for _ in range(15)]
        spec = AssumptionSpec(kinds=frozenset({"bounds", "cmiv_p"}), bounds=(0.0, 1.0),
                              target=aicm.ATE("1", "0"))
        data = aicm.Microdata.of(records)
        base = aicm.ingest_sample(data)
        aicm.bound_interval(data, spec, base, InferenceConfig(), 20, 3)
        assert len(folds) == 4  # two folds per direction, lower first
        for k, (idx, lp) in enumerate(folds):
            fold = aicm.compile(aicm._resample(data, idx, base), spec).lp
            flip = 1.0 if k < 2 else -1.0
            assert _same_arrays(lp, LpParams(p=flip * fold.p, M=fold.M, c=fold.c, box=fold.box))

    def test_design_lp_is_the_checked_one(self, rng):
        for design in (_EXAMPLE, _GRID):
            for _ in range(10):
                phi = rng.normal(size=design.G.shape[1])
                checked = LpParams.from_theta(design.theta0 + design.G @ phi, design.q, design.d,
                                              design.box)
                assert _same_arrays(design.params(phi), checked)

    @pytest.mark.parametrize("w", [math.inf, math.nan, [2.0, math.inf, 2.0, 2.0]],
                             ids=["inf", "nan", "one-inf-row"])
    @pytest.mark.parametrize("estimate", [penalty_value, debiased_estimate])
    def test_a_penalty_that_is_not_finite_raises_the_checked_error(self, estimate, w):
        with pytest.raises(DimensionError, match=self.FINITE):
            estimate(example1_params(0.0), w)

    @pytest.mark.parametrize("kappa_n", [math.inf, math.nan])
    def test_an_expansion_that_is_not_finite_raises_the_checked_error(self, kappa_n):
        with pytest.raises(DimensionError, match=self.FINITE):
            set_expansion_value(example1_params(0.0), kappa_n, 100)


@dataclass
class _Typed:
    count: int = 1
    rate: float = 0.5
    mode: Literal["a", "b"] = "a"
    names: Sequence[str] = ()
    limit: Optional[float] = None
    tags: FrozenSet[Literal["x", "y"]] = frozenset()
    rows: Sequence[Sequence[float]] = ()
    sides: Sequence[Optional[float]] = ()

    def __post_init__(self):
        check_fields(self, ValueError)


@pytest.mark.parametrize("value, ok", [
    ({"count": True}, False),  # a bool is neither an int
    ({"rate": False}, False),  # nor a float
    ({"count": 2.0}, False),
    ({"rate": 2}, True),  # an int is a float
    ({"names": "ab"}, False),  # a str is not a Sequence[str]
    ({"names": ["a", "b"]}, True),
    ({"names": frozenset({"a"})}, False),
    ({"mode": "b"}, True),
    ({"mode": "c"}, False),
    ({"limit": None}, True),  # Optional accepts None
    ({"limit": "x"}, False),
    ({"tags": ["x", "y"]}, True),  # a FrozenSet accepts a list
    ({"tags": {"x"}}, True),  # and a set
    ({"tags": ["z"]}, False),
    ({"rate": float("inf")}, False),  # a float must be finite
    ({"limit": float("nan")}, False),
    # lists of plain JSON numbers are checked in one pass: the same verdicts
    ({"rows": [[1, 2.0], [3.0]]}, True),
    ({"rows": [[1.0], [True]]}, False),
    ({"rows": [[1.0], ["1"]]}, False),
    ({"rows": [1.0, 2.0]}, False),
    ({"rows": [[1.0], [float("nan")]]}, False),
    ({"rows": [[1.0], [10**400]]}, False),
    ({"rows": [[np.float64(1.0)]]}, True),
    ({"sides": [None, 1.0, 2]}, True),
    ({"sides": [None, "x"]}, False),
    ({"sides": [float("inf")]}, False),
], ids=repr)
def test_check_fields(value, ok):
    if ok:
        _Typed(**value)
        return
    [(name, bad)] = value.items()
    with pytest.raises(ValueError, match=rf"^{name} must be .*, got {re.escape(repr(bad))}$"):
        _Typed(**value)


@pytest.mark.parametrize("build, error", [
    (lambda: SimulationScenario(dgp="example_a", replications=1.5), ScenarioError),
    (lambda: InferenceConfig(gamma="x"), InferenceError),
    (lambda: AssumptionSpec(kinds=["bogus"]), CompileError),
], ids=["scenario-replications", "inference-gamma", "assumptions-kinds"])
def test_config_dataclasses_raise_their_module_error(build, error):
    with pytest.raises(error):
        build()
