import math

import numpy as np
import pytest

from lpbound.estimators import (
    PenaltyConfig,
    PenaltyError,
    _relaxed_params,
    debiased_estimate,
    default_kappa_n,
    full_rank_binding,
    penalty_value,
    plug_in_value,
    select_penalty,
    select_v_bar,
    set_expansion_value,
    tao_vu_quantile,
)
from lpbound.linalg import DimensionError, LpParams, OPTIMAL, TAU_VAL, solve_lp

from conftest import example1_params, random_lp


class TestPlugIn:
    def test_equals_direct_solve(self):
        params = example1_params(0.0)
        assert plug_in_value(params).value == solve_lp(params).value

    def test_negative_slope_value(self):
        assert abs(plug_in_value(example1_params(-0.05)).value) < 1e-9


class TestPenalty:
    def test_large_penalty_recovers_lp_value(self):
        value = penalty_value(example1_params(0.0), 2.0)
        assert abs(value - (-1.0)) < 1e-9

    def test_small_penalty_below_lp_value(self):
        # with w = 0.7 the dual multiplier of 1 on the lower box-like row
        # dominates the penalty, so relaxing that row is profitable
        value = penalty_value(example1_params(0.0), 0.7)
        assert abs(value - (-1.3)) < 1e-9

    def test_penalty_never_exceeds_plugin_when_feasible(self, rng):
        for _ in range(60):
            params = random_lp(rng)
            sol = plug_in_value(params)
            if sol.status != OPTIMAL:
                continue
            value = penalty_value(params, float(rng.uniform(0.1, 5.0)))
            assert value <= sol.value + 1e-9

    def test_requires_compact_box(self):
        params = LpParams(
            p=np.array([1.0]),
            M=np.array([[1.0]]),
            c=np.array([0.0]),
            box=(np.array([-np.inf]), np.array([np.inf])),
        )
        for estimate in (penalty_value, debiased_estimate):
            with pytest.raises(PenaltyError, match="compact box"):
                estimate(params, 1.0)

    @pytest.mark.parametrize("seed, index", [(12, 7), (5, 17)])
    def test_large_penalty_costs_reach_the_plugin_value(self, seed, index):
        # Boxed (10,30) and (20,60) LPs drawn in turn; these two (20,60) draws
        # once made the simplex call the relaxed penalty LP unbounded: with
        # penalty costs in the hundreds, a reduced cost of -1.01e-9 at the
        # optimal basis passed an absolute entering tolerance of 1e-9.
        rng = np.random.default_rng(seed)
        for i in range(index + 1):
            d, q = (10, 30) if i % 2 == 0 else (20, 60)
            M, p = rng.standard_normal((q, d)), rng.standard_normal(d)
            x0 = rng.uniform(-4.0, 4.0, d)
            c = M @ x0 - rng.uniform(0.1, 1.0, q)
        params = LpParams(p, M, c, (np.full(d, -5.0), np.full(d, 5.0)))
        plug_in = plug_in_value(params).value
        value = penalty_value(params, select_penalty(params, 1000, PenaltyConfig()))
        assert abs(value - plug_in) <= TAU_VAL * (1.0 + abs(plug_in))


class TestDebiased:
    def test_recovers_degenerate_vertex(self):
        deb = debiased_estimate(example1_params(0.0), 2.0)
        assert deb.value == -1.0
        assert np.array_equal(deb.vertex, [-1.0, -1.0])
        assert deb.binding.tolist() == [0, 1, 2]
        assert deb.penalty_residual < 1e-12

    def test_pick_direction_moves_along_optimal_face(self):
        # at w = 1 the penalized minimum -1 holds for x1 in [-2, -1]; the
        # second stage maximizes or minimizes p'x = x1 over that face, and
        # debiased_estimate takes the maximum
        params = example1_params(0.0)
        relaxed = _relaxed_params(params, 1.0)
        hi, lo = (solve_lp(relaxed, secondary=np.concatenate([sense * params.p, np.zeros(params.q)]))
                  for sense in (-1.0, 1.0))
        assert abs(hi.value + 1.0) < 1e-12 and abs(lo.value + 1.0) < 1e-12
        hi_value, lo_value = (float(params.p @ sol.vertex[:params.d]) for sol in (hi, lo))
        assert abs(hi_value + 1.0) < 1e-12 and abs(lo_value + 2.0) < 1e-12
        assert debiased_estimate(params, 1.0).value == hi_value

    def test_full_rank_binding(self):
        M = example1_params(0.0).M
        assert full_rank_binding(M, np.array([0, 1, 2]))
        assert not full_rank_binding(M, np.array([2]))
        assert not full_rank_binding(M, np.array([2, 3]))  # parallel rows


class TestPenaltyVector:
    """w is a nonnegative scalar or one entry per row of M."""

    def test_solves_leave_the_callers_w_unchanged(self):
        params = example1_params(0.01)
        w = PenaltyConfig().resolve_w(params, 1000)
        kept = w.copy()
        bases = []
        penalty_value(params, w, bases=bases)
        debiased_estimate(params, w, bases=bases)
        debiased_estimate(params, w)
        assert w.tobytes() == kept.tobytes()

    def test_a_scalar_and_one_entry_are_broadcast_to_every_row(self):
        params = example1_params(0.0)
        value = penalty_value(params, np.full(4, 2.0))
        for w in (2.0, [2.0], np.array(2.0), np.array([2.0])):
            assert penalty_value(params, w) == value
            assert debiased_estimate(params, w).value == debiased_estimate(params, [2.0] * 4).value

    @pytest.mark.parametrize("w, size", [([1.0, 2.0, 3.0], 3), ([1.0] * 5, 5), (np.ones((2, 2)), 4),
                                         (np.ones((1, 4)), 4), ([], 0)])
    @pytest.mark.parametrize("estimate", [penalty_value, debiased_estimate])
    def test_a_w_of_the_wrong_shape_raises(self, estimate, w, size):
        with pytest.raises(DimensionError, match=f"^penalty w has {size} entries for 4 rows of M$"):
            estimate(example1_params(0.0), w)


class TestSetExpansion:
    def test_zero_expansion_is_plugin_bitwise(self, rng):
        for _ in range(40):
            params = random_lp(rng)
            a = set_expansion_value(params, 0.0, 1000)
            b = plug_in_value(params)
            assert a.status == b.status
            assert a.value == b.value

    def test_expanded_value_without_upper_coupling_row(self):
        # drop the x2 <= x1 row: the minimum moves to -1 - sqrt(kappa_n/n)
        base = example1_params(0.0)
        params = LpParams(base.p, base.M[[0, 2, 3]], base.c[[0, 2, 3]], base.box)
        n, kappa_n = 5000, default_kappa_n(5000)
        sol = set_expansion_value(params, kappa_n, n)
        assert abs(sol.value - (-1.0 - math.sqrt(kappa_n / n))) < 1e-9

    def test_default_rule(self):
        for n in (100, 5000):
            assert default_kappa_n(n) == 0.1 * math.log(math.log(n)) ** 2
        with pytest.raises(PenaltyError):
            default_kappa_n(2)

    def test_expansion_is_monotone(self):
        params = example1_params(-0.05)
        values = [set_expansion_value(params, k, 100).value for k in (0.0, 0.5, 2.0)]
        assert values[0] >= values[1] >= values[2]


class TestTaoVu:
    def test_identity_on_grid(self):
        for alpha in np.linspace(0.01, 0.99, 99):
            delta = tao_vu_quantile(float(alpha))
            assert abs(1.0 - math.exp(-delta / 2.0 - math.sqrt(delta)) - alpha) < 1e-12

    def test_reference_quantile(self):
        assert abs(tao_vu_quantile(0.2) - 0.04105355668871638) < 1e-15


class TestSelectionRules:
    def test_rowwise_rule_at_reference_size(self):
        params = example1_params(0.0)
        w = select_penalty(params, 100, PenaltyConfig())
        delta = tao_vu_quantile(0.2)
        # w_n = 1 at n = 100; rows 0-1 have norm sqrt(2), rows 2-3 norm 1
        assert np.allclose(w[:2], 2.0 / (delta * math.sqrt(2.0)), rtol=1e-12)
        assert np.allclose(w[2:], 2.0 / delta, rtol=1e-12)

    def test_wn_floor_and_growth(self):
        params = example1_params(0.0)
        small = select_penalty(params, 10, PenaltyConfig())
        ref = select_penalty(params, 100, PenaltyConfig())
        big = select_penalty(params, 10**6, PenaltyConfig())
        assert np.allclose(small, ref)  # w_n floored at 1
        assert np.all(big > ref)

    def test_zero_row_rejected(self):
        params = LpParams(np.array([1.0, 0.0]), np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2))
        with pytest.raises(PenaltyError, match="^row 1 of M has zero norm"):
            select_penalty(params, 100, PenaltyConfig())
        with pytest.raises(PenaltyError, match="^row 1 of M has zero norm"):
            select_v_bar(params)

    def test_v_bar_uses_smallest_row_norm(self):
        params = example1_params(0.0)
        v_bar = select_v_bar(params, alpha=0.1)
        delta = tao_vu_quantile(0.1)
        assert abs(v_bar - 2.0 / (1.0 * delta)) < 1e-12

    def test_v_bar_counts_the_box_rows(self):
        # M has no rows: the finite box rows, of norm 1, set the minimum
        no_rows = (np.array([3.0, 4.0]), np.zeros((0, 2)), np.zeros(0))
        v_bar = select_v_bar(LpParams(*no_rows, box=([0.0, 0.0], [1.0, 1.0])), alpha=0.1)
        assert abs(v_bar - 2.0 * 5.0 / tao_vu_quantile(0.1)) < 1e-12
        with pytest.raises(PenaltyError, match="M has none and the box is unbounded"):
            select_v_bar(LpParams(*no_rows))

    def test_explicit_penalty_validation(self):
        with pytest.raises(PenaltyError):
            penalty_value(example1_params(0.0), -1.0)
        with pytest.raises(PenaltyError):
            PenaltyConfig().resolve_w(example1_params(0.0))  # no n to select with
        for w in ("x", [1.0, 2.0, "a"], [[1.0]], -1.0, float("nan")):
            with pytest.raises(PenaltyError):
                PenaltyConfig(w=w)
        with pytest.raises(DimensionError):
            penalty_value(example1_params(0.0), [1.0, 2.0])  # 2 entries for 4 rows
