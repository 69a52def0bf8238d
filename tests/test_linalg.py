import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpbound.linalg import (
    INFEASIBLE,
    OPTIMAL,
    TAU_VAL,
    UNBOUNDED,
    DimensionError,
    LpParams,
    binding_rows,
    enumerate_vertices,
    inverse_vectorize,
    smallest_singular_value,
    solve_lp,
    vectorize,
)

from conftest import example1_params, random_lp


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
        m = np.random.default_rng(seed).normal(size=(q, d))
        assert np.array_equal(inverse_vectorize(vectorize(m), q, d), m)

    def test_vectorize_is_column_major(self):
        m = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert vectorize(m).tolist() == [1.0, 2.0, 3.0, 4.0]

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
