import math

import numpy as np
import pytest

from lpbound.aicm import ATE, AssumptionSpec, bootstrap_theta_covariance
from lpbound.inference import (
    InferenceConfig,
    InferenceError,
    ThetaEstimate,
    asymptotic_variance,
    ball_constrained_lstsq,
    check_covariance,
    combine_two_sided,
    find_triplet,
    run_inference,
    split_sample,
)
from lpbound.estimators import PenaltyConfig
from lpbound.linalg import DimensionError, LpParams

from conftest import example1_params


def _random_config(rng, d=2, q=4):
    A = np.sort(rng.choice(q, size=rng.integers(2, q + 1), replace=False))
    x = rng.normal(size=d)
    v = np.zeros(q)
    v[A] = rng.normal(size=A.size)
    root = rng.normal(size=(d + q * d + q, d + q * d + q))
    sigma = root @ root.T
    return A, x, v, sigma


def _stat_gradient(A, x, v, d, q):
    """Gradient of v_A'(c_A - M_A x) in theta = (p, vec M, c)."""
    g = np.zeros(d + q * d + q)
    for j in A:
        g[d + q * d + j] = v[j]
        for i in range(d):
            g[d + i * q + j] = -v[j] * x[i]
    return g


class TestSplitSample:
    def test_sizes_and_disjointness(self):
        f1, f2 = split_sample(7, 0.5, 123)
        assert (len(f1), len(f2)) == (3, 4)
        assert sorted(np.concatenate([f1, f2]).tolist()) == list(range(7))

    def test_deterministic(self):
        assert np.array_equal(split_sample(100, 0.5, 9)[0], split_sample(100, 0.5, 9)[0])

    def test_degenerate_split_rejected(self):
        with pytest.raises(InferenceError):
            split_sample(1, 0.5, 0)

    def test_one_record_fold_rejected(self):
        # a fold estimator's sample covariance needs two records
        with pytest.raises(InferenceError, match=r"degenerate fold sizes \(1, 2\)"):
            split_sample(3, 0.5, 0)
        assert [len(f) for f in split_sample(4, 0.5, 0)] == [2, 2]


class TestBallConstrainedLstsq:
    def test_interior_solution_is_least_squares(self):
        # v is indexed by the rows of `mat`; the residual is rhs - mat' v.
        mat = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        rhs = np.array([1.0, 2.0])
        free = np.linalg.lstsq(mat.T, rhs, rcond=None)[0]
        sol = ball_constrained_lstsq(mat, rhs, 10.0)
        assert np.allclose(sol, free, atol=1e-10)

    def test_binding_radius(self):
        mat = np.eye(2)
        rhs = np.array([3.0, 4.0])
        sol = ball_constrained_lstsq(mat, rhs, 1.0)
        assert abs(np.linalg.norm(sol) - 1.0) < 1e-8
        assert np.allclose(sol, rhs / 5.0, atol=1e-8)

    def test_kkt_conditions_on_random_problems(self, rng):
        for _ in range(50):
            m, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            mat = rng.normal(size=(m, k))
            rhs = rng.normal(size=k)
            radius = float(rng.uniform(0.1, 2.0))
            sol = ball_constrained_lstsq(mat, rhs, radius)
            assert np.linalg.norm(sol) <= radius + 1e-8
            grad = mat @ (mat.T @ sol - rhs)
            if np.linalg.norm(sol) < radius - 1e-6:
                # interior: the residual gradient vanishes on the row space
                assert np.linalg.norm(grad) < 1e-6 * (1.0 + np.linalg.norm(rhs))
            else:
                # boundary: gradient anti-parallel to the solution
                cross = grad - (grad @ sol) / (sol @ sol) * sol
                assert np.linalg.norm(cross) < 1e-6 * (1.0 + np.linalg.norm(grad))


class TestFindTriplet:
    def test_degenerate_instance(self):
        params = example1_params(0.0)
        triplet = find_triplet(params, np.full(4, 2.0), 50.0)
        assert triplet.A.tolist() == [0, 1, 2]
        assert np.allclose(triplet.x, [-1.0, -1.0], atol=1e-9)
        assert np.allclose(triplet.v[3], 0.0)
        # v reproduces the objective through the binding rows
        assert np.allclose(params.M[triplet.A].T @ triplet.v[triplet.A], params.p, atol=1e-6)

    def test_optimum_on_box_rows(self):
        # min x1 + x2 s.t. x1 - x2 >= 0 on [0, 1]^2: the one row of M binds at
        # the optimum (0, 0) but does not span R^2; the box rows x >= 0 do
        params = LpParams(p=[1.0, 1.0], M=[[1.0, -1.0]], c=[0.0], box=([0.0, 0.0], [1.0, 1.0]))
        triplet = find_triplet(params, 2.0, 50.0)
        assert triplet.A.tolist() == [0] and triplet.v.shape == (1,)
        assert np.allclose(triplet.x, [0.0, 0.0], atol=1e-9)
        # the rest of p lies in the span of the binding box rows
        rows, rhs = params.effective_system()
        box = [j for j in range(params.q, len(rows)) if abs(rows[j] @ triplet.x - rhs[j]) < 1e-9]
        assert box == [1, 3]  # x1 >= 0 and x2 >= 0
        rest = params.p - params.M[triplet.A].T @ triplet.v[triplet.A]
        v_box, *_ = np.linalg.lstsq(rows[box].T, rest, rcond=None)
        assert np.allclose(rows[box].T @ v_box, rest, atol=1e-9)


class TestAsymptoticVariance:
    def test_matches_direct_quadratic_form(self, rng):
        for _ in range(40):
            A, x, v, sigma = _random_config(rng)
            direct = float(
                _stat_gradient(A, x, v, 2, 4) @ sigma @ _stat_gradient(A, x, v, 2, 4)
            )
            closed = asymptotic_variance(A, x, v, sigma)
            assert abs(closed - direct) < 1e-8 * (1.0 + abs(direct))

    def test_quadratic_scaling_in_v(self, rng):
        A, x, v, sigma = _random_config(rng)
        base = asymptotic_variance(A, x, v, sigma)
        assert abs(asymptotic_variance(A, x, 3.0 * v, sigma) - 9.0 * base) < 1e-8 * (1 + base)

    def test_zero_sigma(self, rng):
        A, x, v, _ = _random_config(rng)
        assert asymptotic_variance(A, x, v, np.zeros((14, 14))) == 0.0

    def test_sigma_of_another_size_rejected(self, rng):
        A, x, v, _ = _random_config(rng)
        with pytest.raises(DimensionError, match="Sigma must be 14x14, got \\(13, 13\\)"):
            asymptotic_variance(A, x, v, np.eye(13))

    def test_non_psd_sigma_rejected(self, rng):
        A, x, v, sigma = _random_config(rng)
        bad = sigma - 2.0 * np.linalg.eigvalsh(sigma)[-1] * np.eye(sigma.shape[0])
        with pytest.raises(InferenceError):
            asymptotic_variance(A, x, v, bad)


class TestCheckCovariance:
    """check_covariance accepts a minimum eigenvalue down to -tau * scale,
    tau = 1e-8 and scale the largest entry's magnitude (at least 1)."""

    @staticmethod
    def _with_min_eigenvalue(rng, k, factor, size=12):
        # factor * Q diag(lam) Q' with lam[0] = 0, then its null direction
        # moved to k * tau * scale
        Q = np.linalg.qr(rng.normal(size=(size, size)))[0]
        lam = np.concatenate([[0.0], rng.uniform(0.1, 1.0, size - 1)])
        sigma = factor * (Q * lam) @ Q.T
        scale = max(1.0, float(np.abs(sigma).max()))
        sigma = sigma + k * 1e-8 * scale * np.outer(Q[:, 0], Q[:, 0])
        return 0.5 * (sigma + sigma.T)

    @pytest.mark.parametrize("factor", [1.0, 300.0])
    def test_min_eigenvalue_half_the_tolerance_below_zero_passes(self, rng, factor):
        check_covariance(self._with_min_eigenvalue(rng, -0.5, factor))

    @pytest.mark.parametrize("factor", [1.0, 300.0])
    def test_min_eigenvalue_twice_the_tolerance_below_zero_fails(self, rng, factor):
        sigma = self._with_min_eigenvalue(rng, -2.0, factor)
        with pytest.raises(InferenceError, match=r"^Sigma is not PSD \(min eigenvalue -"):
            check_covariance(sigma)

    def test_nan_is_not_finite(self):
        sigma = np.eye(3)
        sigma[1, 2] = sigma[2, 1] = np.nan
        with pytest.raises(InferenceError, match="^S must be finite$"):
            check_covariance(sigma, "S")

    def test_asymmetric_is_refused(self):
        sigma = np.eye(3)
        sigma[0, 2] = 1e-3
        with pytest.raises(InferenceError, match="^Sigma must be symmetric$"):
            check_covariance(sigma)

    def test_rank_deficient_bootstrap_sigma_passes(self, rng):
        # the aicm bootstrap Sigma of a binary treatment over five instrument
        # levels: 186 x 186, of rank at most B - 1 = 99 and with zero rows
        z = rng.integers(0, 5, 2000)
        t = (rng.random(2000) < 0.25 + 0.1 * z).astype(int)
        z[:10], t[:10] = np.arange(10) % 5, np.arange(10) // 5
        y = np.clip(rng.normal(0.1 + 0.3 * t + 0.05 * z, 0.3), -1.0, 1.0)
        records = [(float(yi), str(ti), f"z{zi}") for yi, ti, zi in zip(y, t, z)]
        spec = AssumptionSpec(kinds=frozenset({"bounds", "cmiv_p"}), bounds=(-1.0, 1.0),
                              target=ATE("1", "0"))
        sigma = bootstrap_theta_covariance(records, spec, B=100, seed=1)
        assert sigma.shape == (186, 186)
        assert np.linalg.matrix_rank(sigma) < 100
        check_covariance(sigma)


class TestRunInference:
    @staticmethod
    def _gaussian_estimator(rows, template):
        def estimate(idx):
            sub = rows[idx]
            params = LpParams.from_theta(sub.mean(axis=0), template.q, template.d, template.box)
            return ThetaEstimate(params=params, sigma=np.atleast_2d(np.cov(sub.T)))

        return estimate

    def _rows(self, rng, n, noise):
        template = example1_params(0.0)
        theta = template.theta()
        return theta + noise * rng.normal(size=(n, theta.size)), template

    def test_deterministic_given_seed(self, rng):
        rows, template = self._rows(rng, 400, 0.01)
        cfg = InferenceConfig(penalty=PenaltyConfig(w=2.0))
        a = run_inference(400, self._gaussian_estimator(rows, template), cfg, seed=3)
        b = run_inference(400, self._gaussian_estimator(rows, template), cfg, seed=3)
        assert a.estimate == b.estimate and a.se == b.se
        assert a.ci_lower_onesided <= a.estimate <= a.ci_upper_onesided
        assert a.n1 + a.n2 == 400

    def test_zero_noise_flags_degenerate_variance(self, rng):
        rows, template = self._rows(rng, 100, 0.0)
        cfg = InferenceConfig(penalty=PenaltyConfig(w=2.0))
        res = run_inference(100, self._gaussian_estimator(rows, template), cfg, seed=1)
        assert res.degenerate_variance
        assert res.se == 0.0
        assert res.ci_twosided == (res.estimate, res.estimate)

    def test_sigma_floor(self, rng):
        rows, template = self._rows(rng, 100, 0.0)
        cfg = InferenceConfig(penalty=PenaltyConfig(w=2.0), sigma_min=1.0)
        res = run_inference(100, self._gaussian_estimator(rows, template), cfg, seed=1)
        assert res.degenerate_variance
        assert abs(res.se - 1.0 / math.sqrt(res.n2)) < 1e-12

    def test_invalid_alpha_rejected(self):
        with pytest.raises(InferenceError):
            InferenceConfig(alpha=1.5)


class TestCombineTwoSided:
    def _result(self, estimate, se):
        from lpbound.inference import InferenceResult, OptimalTriplet

        t = OptimalTriplet(A=np.array([0]), x=np.zeros(1), v=np.zeros(1))
        return InferenceResult(
            estimate=estimate, se=se, alpha=0.05, triplet=t, n1=1, n2=1,
        )

    def test_interval_and_crossing(self):
        lo, up = self._result(-1.0, 0.1), self._result(1.0, 0.1)
        iv = combine_two_sided(lo, up)
        z = 1.959963984540054
        assert abs(iv.lower - (-1.0 - z * 0.1)) < 1e-12
        assert abs(iv.upper - (1.0 + z * 0.1)) < 1e-12
        assert not iv.crossed
        crossed = combine_two_sided(self._result(1.0, 0.01), self._result(-1.0, 0.01))
        assert crossed.crossed
