import itertools
import math

import numpy as np
import pytest

from lpbound.geometry import delta_condition
from lpbound.linalg import (
    OPTIMAL,
    TAU_FEAS,
    TAU_RANK,
    TAU_VAL,
    DimensionError,
    EnumerationCapError,
    LpParams,
    binding_rows,
    solve_lp,
    subset_blocks,
)

from conftest import example1_params, random_feasible_polytope_data, random_lp
import lp_oracles
from lp_oracles import (TAU_DEDUP, TAU_KKT, check_a1, distance_to_polytope, enumerate_vertices,
                        l1_violation, polytope_condition_number)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class TestDeltaCondition:
    def test_degenerate_instance_value(self):
        report = delta_condition(example1_params(0.0))
        assert abs(report.delta - GOLDEN) < 1e-9
        assert abs(report.value - (-1.0)) < 1e-9
        assert len(report.j_star_sets) == len(report.kkt_vectors)
        assert report.delta == max(report.sigma_values)

    def test_kkt_vectors_are_dual_feasible(self):
        params = example1_params(0.0)
        report = delta_condition(params)
        M_all, c_all = params.effective_system()
        for J, lam in zip(report.j_star_sets, report.kkt_vectors):
            assert np.all(lam >= -1e-8)
            assert np.allclose(M_all[J].T @ lam, params.p, atol=1e-9)

    def test_explicit_box_rows(self):
        # min x1 over the unit box written as explicit rows: delta = 1
        params = LpParams(
            p=np.array([1.0, 0.0]),
            M=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
            c=np.full(4, -1.0),
            box=(np.full(2, -2.0), np.full(2, 2.0)),
        )
        report = delta_condition(params)
        assert abs(report.delta - 1.0) < 1e-12

    def test_box_supported_optimum_rejected(self):
        # the optimum rests on box rows only; no qualifying basis exists
        params = LpParams(
            p=np.array([1.0, 0.0]),
            M=np.array([[0.0, 1.0]]),
            c=np.array([-2.0]),
            box=(np.full(2, -1.0), np.full(2, 1.0)),
        )
        with pytest.raises(ValueError):
            delta_condition(params)


class TestConditionNumber:
    def test_unit_box(self):
        poly = LpParams(
            p=np.zeros(2),
            M=np.array([[1.0, 0.0]]),  # redundant inside the box
            c=np.array([-2.0]),
            box=(np.full(2, -1.0), np.full(2, 1.0)),
        )
        assert polytope_condition_number(poly) == 1.0

    def test_degenerate_segment_matches_delta(self):
        params = example1_params(0.0)
        poly = LpParams(np.zeros(2), params.M, params.c, params.box)
        assert abs(polytope_condition_number(poly) - GOLDEN) < 1e-9

    def test_redundant_row_leaves_kappa_unchanged(self, rng):
        for _ in range(20):
            M, c, box = random_feasible_polytope_data(rng)
            base = polytope_condition_number(LpParams(np.zeros(M.shape[1]), M, c, box))
            # a constraint far outside the box never binds
            M2 = np.vstack([M, rng.normal(size=M.shape[1])])
            c2 = np.append(c, -100.0 * np.linalg.norm(M2[-1]) * 10.0)
            assert abs(polytope_condition_number(LpParams(np.zeros(M.shape[1]), M2, c2, box)) - base) < 1e-9

    def test_row_scaling_scales_kappa(self, rng):
        M, c, box = random_feasible_polytope_data(rng)
        d = M.shape[1]
        poly = LpParams(np.zeros(d), M, c, box)
        scaled = LpParams(np.zeros(d), 0.5 * M, 0.5 * c, box)
        k, ks = polytope_condition_number(poly), polytope_condition_number(scaled)
        # box rows are unscaled, so kappa scales by 1/2 only when an M-row
        # subset attains the minimum in both; it never grows by more than 1x
        assert ks <= k + 1e-9
        assert ks >= 0.5 * k - 1e-9

    def test_unbounded_polytope_rejected(self):
        poly = LpParams(p=np.zeros(2), M=np.array([[1.0, 0.0]]), c=np.array([0.0]))
        with pytest.raises(ValueError):
            polytope_condition_number(poly)


class TestDistanceAndViolation:
    def test_projection_onto_unit_box(self):
        poly = LpParams(
            p=np.zeros(2),
            M=np.array([[1.0, 0.0]]),  # redundant inside the box
            c=np.array([-2.0]),
            box=(np.full(2, -1.0), np.full(2, 1.0)),
        )
        dist, proj = distance_to_polytope(poly, np.array([2.0, 0.0]))
        assert abs(dist - 1.0) < 1e-9
        assert np.allclose(proj, [1.0, 0.0], atol=1e-9)
        dist0, proj0 = distance_to_polytope(poly, np.array([0.3, -0.2]))
        assert dist0 == 0.0 and np.allclose(proj0, [0.3, -0.2])

    def test_l1_violation_counts_all_rows(self):
        poly = LpParams(
            p=np.zeros(2),
            M=np.array([[1.0, 0.0]]),
            c=np.array([0.5]),
            box=(np.full(2, -1.0), np.full(2, 1.0)),
        )
        # x = (0, 2): violates the M row by 0.5 and the x2 upper bound by 1
        assert abs(l1_violation(poly, np.array([0.0, 2.0])) - 1.5) < 1e-12

    def test_l1_minorization_on_random_polytopes(self, rng):
        # violation >= distance * kappa at exterior points
        for _ in range(50):
            M, c, box = random_feasible_polytope_data(rng)
            poly = LpParams(np.zeros(M.shape[1]), M, c, box)
            kappa = polytope_condition_number(poly)
            for _ in range(10):
                x = rng.uniform(-4.0, 4.0, size=M.shape[1])
                dist, _ = distance_to_polytope(poly, x)
                assert l1_violation(poly, x) - dist * kappa >= -1e-8


class TestPenaltyDomination:
    def test_insufficient_penalty_at_degenerate_vertex(self):
        params = example1_params(0.0)
        assert check_a1(params, np.full(4, 0.7)) == "fails"

    def test_sufficient_penalty_at_degenerate_vertex(self):
        params = example1_params(0.0)
        assert check_a1(params, np.full(4, 2.0)) == "holds"

    def test_infinite_penalty_always_holds(self):
        assert check_a1(example1_params(0.0), np.full(4, np.inf)) == "holds"

    def test_boundary_penalty_undetermined(self):
        # the unique dual has a multiplier exactly 1 on the third row
        assert check_a1(example1_params(0.0), np.full(4, 1.0)) == "undetermined"

    def test_box_supported_optimum_undetermined(self):
        # the optimum rests on the box (x1 = -1); the only M-row multiplier
        # is 0 < w, but the M-row dual LP cannot see the box multipliers
        params = LpParams(
            p=np.array([1.0, 0.0]),
            M=np.array([[0.0, 1.0]]),
            c=np.array([-2.0]),
            box=(np.full(2, -1.0), np.full(2, 1.0)),
        )
        assert check_a1(params, np.array([1.0])) == "undetermined"

    def test_negative_slope_instance(self):
        assert check_a1(example1_params(-0.05), np.full(4, 0.7)) == "fails"
        assert check_a1(example1_params(-0.05), np.full(4, 25.0)) == "holds"

    def test_scalar_penalty_applies_to_every_row(self):
        assert check_a1(example1_params(0.0), 2.0) == "holds"
        assert check_a1(example1_params(0.0), [0.7]) == "fails"

    def test_penalty_of_wrong_length_names_both_counts(self):
        with pytest.raises(DimensionError, match="penalty w has 3 entries for 4 rows of M"):
            check_a1(example1_params(0.0), np.full(3, 2.0))


def _search_rows_reference(params, w, B):
    """(rows, rhs) of check_a1's search LP filled row by row: the reference
    its array assembly must match bit for bit, -0.0 entries included."""
    d, q = params.d, params.q
    rows, rhs = [], []
    for i in range(d):
        rows.append(np.concatenate([params.M[:, i], [0.0]]))
        rhs.append(params.p[i])
        rows.append(np.concatenate([-params.M[:, i], [0.0]]))
        rhs.append(-params.p[i])
    rows.append(np.concatenate([params.c, [0.0]]))
    rhs.append(B - TAU_KKT)
    rows.append(np.concatenate([-params.c, [0.0]]))
    rhs.append(-B - TAU_KKT)
    for j in range(q):
        e = np.zeros(q + 1)
        e[j] = -1.0
        e[q] = -1.0
        rows.append(e)
        rhs.append(-w[j])
    return np.array(rows), np.array(rhs)


def test_search_lp_matches_row_by_row_assembly(monkeypatch, rng):
    solves = []
    real = lp_oracles.solve_lp

    def recording_solve(params):
        solves.append((params, real(params)))
        return solves[-1][1]

    def no_enumeration(params):
        raise ValueError("skipped, so that check_a1 reaches its search LP")

    monkeypatch.setattr(lp_oracles, "solve_lp", recording_solve)
    monkeypatch.setattr(lp_oracles, "delta_condition", no_enumeration)
    searched = 0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        q = d + int(rng.integers(2, 7))
        M, c, p = rng.normal(size=(q, d)), rng.normal(size=q), rng.normal(size=d)
        for a in (M, c, p):
            a[rng.random(a.shape) < 0.2] = 0.0  # zeros, so that -0.0 entries occur
        params = LpParams(p, M, c, (np.full(d, -1e6), np.full(d, 1e6)))
        w = rng.uniform(0.1, 3.0, q)
        solves.clear()
        try:
            check_a1(params, w)
        except ValueError:  # the LP itself is not solvable
            continue
        if len(solves) < 2:  # box rows bind at the optimum: no search LP
            continue
        (_, primal), (search, _) = solves
        rows, rhs = _search_rows_reference(params, w, float(primal.value))
        assert (search.M.shape, search.M.tobytes(), search.c.tobytes()) == \
            (rows.shape, rows.tobytes(), rhs.tobytes())
        searched += 1
    assert searched >= 20


# Per-subset references: the loops the stacked blocks of subset_blocks
# replaced, one LAPACK call per subset. The stacked code must match them
# bit for bit, in values and in order.

def _enumerate_vertices_reference(params):
    A_rows, rhs = params.effective_system()
    q_eff, d = A_rows.shape
    scale = max(1.0, float(np.abs(A_rows).max()))
    feas_tol = TAU_FEAS * max(1.0, float(np.abs(rhs).max()), scale)
    found = []
    for J in itertools.combinations(range(q_eff), d):
        sub = A_rows[list(J)]
        if abs(np.linalg.det(sub)) <= TAU_RANK * scale**d:
            continue
        x = np.linalg.solve(sub, rhs[list(J)])
        if not np.all(A_rows @ x >= rhs - feas_tol):
            continue
        if any(np.max(np.abs(x - v)) <= TAU_DEDUP for v, _ in found):
            continue
        found.append((x, binding_rows(A_rows, rhs, x)))
    return found


def _delta_condition_reference(params):
    """(sets, sigmas, kkts, delta) over the d-subsets of M's rows."""
    sol = solve_lp(params)
    if sol.status != OPTIMAL:
        raise ValueError(f"delta_condition needs a solvable LP, status: {sol.status}")
    M_all, c_all = params.effective_system()
    scale_c = 1.0 + np.abs(c_all)
    sets, sigmas, kkts = [], [], []
    for J in itertools.combinations(range(params.q), params.d):
        sub = params.M[list(J)]
        sigma = float(np.linalg.svd(sub, compute_uv=False)[-1])
        if sigma <= TAU_RANK * max(1.0, np.abs(sub).max()):
            continue
        x = np.linalg.solve(sub, params.c[list(J)])
        if not np.all(M_all @ x - c_all >= -TAU_FEAS * scale_c):
            continue
        if abs(params.p @ x - sol.value) > TAU_VAL * (1.0 + abs(sol.value)):
            continue
        lam = np.linalg.solve(sub.T, params.p)
        if np.any(lam < -TAU_FEAS):
            continue
        sets.append(np.array(J))
        sigmas.append(sigma)
        kkts.append(lam)
    if not sets:
        raise ValueError("no optimal KKT basis found among d-subsets of M rows")
    return sets, sigmas, kkts, max(sigmas)


def _condition_number_reference(params):
    M_all, _ = params.effective_system()
    best = math.inf
    for _, rows in _enumerate_vertices_reference(params):
        for B in itertools.combinations(rows, params.d):
            sub = M_all[list(B)]
            sigma = float(np.linalg.svd(sub, compute_uv=False)[-1])
            if sigma > TAU_RANK * max(1.0, np.abs(sub).max()):
                best = min(best, sigma)
    return best


def _distance_reference(params, x):
    """(distance, projection, position of the winning subset in the order
    of subset_blocks within its size)."""
    M, c = params.effective_system()
    scale_c = 1.0 + np.abs(c)
    if np.all(M @ x - c >= -TAU_FEAS * scale_c):
        return 0.0, x.copy(), None
    best, best_z, where = math.inf, None, None
    for r in range(1, min(M.shape[0], params.d) + 1):
        for k, J in enumerate(itertools.combinations(range(M.shape[0]), r)):
            sub, rhs = M[list(J)], c[list(J)]
            z = x + sub.T @ (np.linalg.pinv(sub @ sub.T) @ (rhs - sub @ x))
            if np.all(M @ z - c >= -TAU_FEAS * scale_c):
                dist = float(np.linalg.norm(z - x))
                if dist < best:
                    best, best_z, where = dist, z, k
    return best, best_z, where


def _bits(*arrays):
    return [(np.asarray(a).dtype, np.shape(a), np.asarray(a).tobytes()) for a in arrays]


def _assert_vertices_match(params):
    got, want = enumerate_vertices(params), _enumerate_vertices_reference(params)
    assert len(got) == len(want)
    for (x, rows), (x_ref, rows_ref) in zip(got, want):
        assert _bits(x, rows) == _bits(x_ref, rows_ref)
    return len(got)


def _assert_delta_matches(params):
    try:
        want = _delta_condition_reference(params)
    except ValueError:
        with pytest.raises(ValueError):
            delta_condition(params)
        return 0
    got = delta_condition(params)
    sets, sigmas, kkts, delta = want
    assert _bits(*got.j_star_sets) == _bits(*sets)
    assert _bits(*got.kkt_vectors) == _bits(*kkts)
    assert _bits(got.sigma_values, got.delta) == _bits(sigmas, delta)
    return len(sets)


def _assert_distance_matches(poly, x):
    dist, proj = distance_to_polytope(poly, x)
    dist_ref, proj_ref, where = _distance_reference(poly, x)
    assert _bits(dist, proj) == _bits(dist_ref, proj_ref)
    return where


class TestStackedEnumerationMatchesLoops:
    def test_criterion_10_lps(self):
        rng = np.random.default_rng(1010)
        vertices = bases = 0
        for _ in range(300):
            params = random_lp(rng)
            vertices += _assert_vertices_match(params)
            bases += _assert_delta_matches(params)
        assert vertices > 1000 and bases > 20

    def test_criterion_6_polytopes(self):
        rng = np.random.default_rng(66)
        for _ in range(40):
            M, c, box = random_feasible_polytope_data(rng)
            poly = LpParams(np.zeros(M.shape[1]), M, c, box)
            assert _bits(polytope_condition_number(poly)) == \
                _bits(_condition_number_reference(poly))
            for _ in range(10):
                _assert_distance_matches(poly, rng.uniform(-4.0, 4.0, size=M.shape[1]))

    @staticmethod
    def two_block_lp():
        # 31 rows of M and 6 box rows in d = 3: C(31, 3) = 4495 and
        # C(37, 3) = 7770 subsets, two blocks each
        rng = np.random.default_rng(15)
        M = rng.normal(size=(31, 3))
        c = M @ rng.uniform(-1.0, 1.0, size=3) - rng.uniform(0.5, 2.0, size=31)
        return LpParams(rng.normal(size=3), M, c, (np.full(3, -2.0), np.full(3, 2.0)))

    def test_more_than_one_block(self):
        assert [len(J) for J in subset_blocks(31, 3)] == [4096, 399]
        params = self.two_block_lp()
        assert _assert_vertices_match(params) > 8
        assert _assert_delta_matches(params) > 0
        assert _bits(polytope_condition_number(params)) == \
            _bits(_condition_number_reference(params))

    def test_distance_across_blocks(self):
        # far points whose nearest point is a vertex: the winning 3-subset
        # lies in the first block for one and in the second for two
        params = self.two_block_lp()
        wins = [_assert_distance_matches(params, np.array(x))
                for x in ([9.0, 9.0, 9.0], [-9.0, 9.0, -9.0], [-9.0, -9.0, 9.0])]
        assert wins[0] < 4096 <= min(wins[1:])


class TestOneCapRule:
    def test_subset_blocks_raises_before_it_yields(self):
        blocks = subset_blocks(60, 20)
        with pytest.raises(EnumerationCapError):
            next(blocks)

    def test_distance_with_20_rows_in_the_plane(self):
        # 2^20 row subsets would pass the cap; 20 + 190 of size at most d do not
        angles = np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False)
        M = -np.column_stack([np.cos(angles), np.sin(angles)])
        poly = LpParams(np.zeros(2), M, np.full(20, -1.0))
        dist, proj = distance_to_polytope(poly, np.array([3.0, 0.0]))
        assert abs(dist - 2.0) < 1e-9 and np.allclose(proj, [1.0, 0.0])
