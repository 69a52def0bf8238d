import math

import numpy as np
import pytest

from lpbound.geometry import (
    check_a1,
    delta_condition,
    distance_to_polytope,
    l1_violation,
    polytope_condition_number,
)
from lpbound.linalg import LpParams

from conftest import example1_params, random_feasible_polytope_data

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
