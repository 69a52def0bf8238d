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

    @staticmethod
    def _sorted_split(n, gamma, seed):
        """The folds as two sorts of the permutation's halves."""
        perm = np.random.default_rng(seed).permutation(n)
        n1 = int(math.floor(gamma * n))
        return np.sort(perm[:n1]), np.sort(perm[n1:])

    # (n, gamma) with both folds legal: 2000 is an aicm_ci sample, 5000 an
    # mc_coverage one
    _SIZES = [(n, gamma) for n in (4, 5, 7, 10, 33, 100, 999, 2000, 4096, 5000)
              for gamma in (0.1, 0.3, 0.5, 0.77, 0.9)
              if min(math.floor(gamma * n), n - math.floor(gamma * n)) >= 2]

    @pytest.mark.parametrize("n, gamma", _SIZES)
    @pytest.mark.parametrize("seed", [0, 12345, np.random.SeedSequence((42, 0, 3, 1))],
                             ids=["int0", "int12345", "SeedSequence"])
    def test_folds_equal_the_sorted_permutation_halves(self, n, gamma, seed):
        self._assert_same_folds(n, gamma, seed)

    @pytest.mark.parametrize("n", [4, 5, 6, 2000, 5000])
    @pytest.mark.parametrize("small", ["fold1", "fold2"])
    def test_smallest_legal_folds_equal_the_sorted_permutation_halves(self, n, small):
        gamma = 2.5 / n if small == "fold1" else (n - 1.5) / n
        n1 = int(math.floor(gamma * n))
        assert (n1 if small == "fold1" else n - n1) == 2
        for seed in (1, np.random.SeedSequence(n)):
            self._assert_same_folds(n, gamma, seed)

    def _assert_same_folds(self, n, gamma, seed):
        # default_rng reads a SeedSequence without changing it, so both draws match
        got, want = split_sample(n, gamma, seed), self._sorted_split(n, gamma, seed)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


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

    def test_scaled_active_problems_land_on_the_sphere(self):
        # entries and rhs scaled by 10^+-3, rows repeated as binding rows may be,
        # radii from 1e-4 to 0.98 of the unconstrained norm: ||v|| meets the
        # radius to rounding, with no floating-point fault on the way
        rng = np.random.default_rng(30)
        for _ in range(300):
            k, d = int(rng.integers(1, 12)), int(rng.integers(1, 8))
            mat = rng.normal(size=(k, d)) * 10.0 ** rng.uniform(-3, 3)
            if k > 1 and rng.uniform() < 0.3:
                mat[-1] = mat[0]
            rhs = rng.normal(size=d) * 10.0 ** rng.uniform(-3, 3)
            free = np.linalg.norm(np.linalg.lstsq(mat.T, rhs, rcond=None)[0])
            radius = free * 10.0 ** rng.uniform(-4, math.log10(0.98))
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                sol = ball_constrained_lstsq(mat, rhs, radius)
            assert abs(np.linalg.norm(sol) / radius - 1.0) <= 1e-12
            grad = mat @ (mat.T @ sol - rhs)
            cross = grad - (grad @ sol) / (sol @ sol) * sol
            assert np.linalg.norm(cross) < 1e-6 * (1.0 + np.linalg.norm(grad))

    def test_a_barely_active_ball(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            mat, rhs = rng.normal(size=(4, 3)), rng.normal(size=3)
            radius = (1.0 - 1e-15) * np.linalg.norm(np.linalg.lstsq(mat.T, rhs, rcond=None)[0])
            sol = ball_constrained_lstsq(mat, rhs, radius)
            assert abs(np.linalg.norm(sol) / radius - 1.0) <= 1e-12

    def test_a_tiny_radius(self):
        # ||v|| is measured by hypot: np.linalg.norm squares entries of 1e-300 to 0
        mat, rhs = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]), np.array([1.0, 2.0])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            sol = ball_constrained_lstsq(mat, rhs, 1e-300)
            assert abs(math.hypot(*sol) / 1e-300 - 1.0) <= 1e-12
            # mu = ||b|| / radius overflows, and v(inf) = 0 lies in the ball
            assert not ball_constrained_lstsq(mat, rhs, 1e-320).any()

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
    def test_a_radius_that_is_not_positive(self, radius):
        with pytest.raises(InferenceError, match="radius must be positive"):
            ball_constrained_lstsq(np.eye(2), np.ones(2), radius)


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

    @pytest.mark.parametrize("alpha", [1e-300, 2.0 ** -53, 1e-17])
    def test_alpha_whose_quantile_level_rounds_to_one_rejected(self, alpha):
        with pytest.raises(InferenceError, match=r"^alpha "):
            InferenceConfig(alpha=alpha)

    def test_smallest_usable_alpha_gives_finite_bounds(self, rng):
        rows, template = self._rows(rng, 100, 0.01)
        cfg = InferenceConfig(penalty=PenaltyConfig(w=2.0), alpha=2e-16)
        res = run_inference(100, self._gaussian_estimator(rows, template), cfg, seed=1)
        assert all(math.isfinite(b) for b in (res.ci_lower_onesided, *res.ci_twosided))


class TestLazySigma:
    def _estimator(self, rows, template, sigma_calls):
        """A fold estimator whose covariance function counts its calls,
        per fold in the order the folds are estimated."""
        def estimate(idx):
            sub = rows[idx]
            params = LpParams.from_theta(sub.mean(axis=0), template.q, template.d, template.box)
            fold = len(sigma_calls)
            sigma_calls.append(0)

            def sigma():
                sigma_calls[fold] += 1
                return np.cov(sub.T)

            return ThetaEstimate(params=params, sigma=sigma)

        return estimate

    def test_run_inference_computes_fold_2_covariance_only(self, rng):
        template = example1_params(0.0)
        rows = template.theta() + 0.01 * rng.normal(size=(400, template.theta_size))
        sigma_calls = []
        cfg = InferenceConfig(penalty=PenaltyConfig(w=2.0))
        lazy = run_inference(400, self._estimator(rows, template, sigma_calls), cfg, seed=3)
        assert sigma_calls == [0, 1]
        eager = run_inference(400, TestRunInference._gaussian_estimator(rows, template), cfg,
                              seed=3)
        assert (lazy.estimate, lazy.se) == (eager.estimate, eager.se)

    def test_function_called_once_and_result_kept(self):
        params = example1_params(0.0)
        calls = []
        est = ThetaEstimate(params=params,
                            sigma=lambda: calls.append(None) or np.eye(params.theta_size))
        assert calls == []
        first = est.sigma
        assert est.sigma is first and calls == [None]
        assert first.dtype == float and first.tobytes() == np.eye(14).tobytes()

    def test_function_of_wrong_shape_raises_when_read(self):
        est = ThetaEstimate(params=example1_params(0.0), sigma=lambda: np.eye(13))
        with pytest.raises(DimensionError, match=r"^sigma must be 14x14 for \(q,d\)=\(4,2\)$"):
            est.sigma

    def test_array_of_wrong_shape_raises_at_construction(self):
        with pytest.raises(DimensionError, match=r"^sigma must be 14x14 for \(q,d\)=\(4,2\)$"):
            ThetaEstimate(params=example1_params(0.0), sigma=np.eye(13))

    def test_array_is_checked_and_converted_at_construction(self):
        est = ThetaEstimate(params=example1_params(0.0), sigma=np.eye(14, dtype=int).tolist())
        assert est.sigma.dtype == float and est.sigma.tobytes() == np.eye(14).tobytes()


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
