"""Acceptance gate: ten end-to-end checks with their stated tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s to stream them).
"""

import math
import time

import numpy as np

from lpbound.aicm import AssumptionSpec, MeanPotential, bound_value, cmivw_bounds, compile
from lpbound.estimators import (
    PenaltyConfig,
    plug_in_value,
    set_expansion_value,
    tao_vu_quantile,
)
from lpbound.geometry import delta_condition
from lpbound.inference import asymptotic_variance
from lpbound.linalg import INFEASIBLE, OPTIMAL, LpParams, solve_lp
from lpbound.montecarlo import (
    ConsistencyScenario,
    InferenceScenario,
    UniformGridScenario,
    run_consistency,
    run_inference_study,
    run_uniform_grid,
)

from conftest import example1_params, random_feasible_polytope_data, random_lp
from lp_oracles import (distance_to_polytope, enumerate_vertices, l1_violation, loglog_slope,
                        polytope_condition_number)
from test_aicm import proof_example_table, random_binary_table


def report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({description}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def consistency_rows(b: float):
    scenario = ConsistencyScenario(
        dgp="example_a", b=b, sample_sizes=(100, 500, 1000, 5000),
        replications=1000, seed=11,
    )
    start = time.perf_counter()
    rows = run_consistency(scenario).rows
    elapsed = time.perf_counter() - start
    table = {(r.estimator, r.n): r for r in rows}
    return table, elapsed


def test_acceptance_1_exact_degenerate_truth():
    checks = []
    sol = solve_lp(example1_params(0.0))
    checks.append(abs(sol.value - (-1.0)) < 1e-9)
    checks.append(np.allclose(sol.vertex, [-1.0, -1.0], atol=1e-9))
    for b in (-0.05, -0.01, -0.3):
        checks.append(abs(solve_lp(example1_params(b)).value) < 1e-9)
    params = example1_params(0.0)
    reps = 200
    start = time.perf_counter()
    for _ in range(reps):
        solve_lp(params)
    per_solve = (time.perf_counter() - start) / reps
    checks.append(per_solve < 1e-3)
    report(1, "exact degenerate-vertex truth, < 1 ms per solve", all(checks))


def test_acceptance_2_consistency_panel_without_regularity():
    table, elapsed = consistency_rows(0.0)
    checks = [
        abs(table[("debiased", 5000)].mean - (-1.0)) <= 0.05,
        abs(table[("plugin", 5000)].mean - (-0.5)) <= 0.05,
        table[("setexp", 5000)].mean <= -1.0 + 0.02,
        elapsed < 120.0,
    ]
    report(2, "b = 0 panel: debiased/plug-in/set-expansion means", all(checks))


def test_acceptance_3_consistency_panel_with_regularity():
    table, elapsed = consistency_rows(-0.05)
    checks = [
        abs(table[("plugin", 5000)].mean) <= 0.05,
        abs(table[("debiased", 5000)].mean) <= 0.05,
        table[("setexp", 1000)].mean <= -0.2,
        elapsed < 120.0,
    ]
    report(3, "b = -0.05 panel: plug-in/debiased/set-expansion means", all(checks))


def test_acceptance_4_one_sided_coverage():
    start = time.perf_counter()
    coverages = {}
    for b in (0.0, -0.05):
        scenario = InferenceScenario(
            dgp="example_b", b=b, sample_sizes=(5000,), replications=1000, seed=42,
        )
        coverages[b] = run_inference_study(scenario).rows[0].coverage
    elapsed = time.perf_counter() - start
    ok = all(0.93 <= c <= 0.97 for c in coverages.values()) and elapsed < 600.0
    report(4, f"95% one-sided CI coverage {coverages}", ok)


def test_acceptance_5_variance_oracle_against_monte_carlo():
    rng = np.random.default_rng(51)
    ok = True
    for _ in range(20):
        d = int(rng.integers(2, 4))
        q = int(rng.integers(d, 7))
        S = d + q * d + q
        A = np.sort(rng.choice(q, size=int(rng.integers(2, q + 1)), replace=False))
        x = rng.normal(size=d)
        v = np.zeros(q)
        v[A] = rng.normal(size=A.size)
        root = rng.normal(size=(S, S)) / math.sqrt(S)
        sigma = root @ root.T
        closed = asymptotic_variance(A, x, v, sigma)
        draws = rng.normal(size=(100_000, S)) @ root.T
        stat = draws[:, d + q * d :][:, A] @ v[A]
        for i in range(d):
            stat -= (draws[:, d + i * q : d + (i + 1) * q][:, A] @ v[A]) * x[i]
        mc = float(stat.var(ddof=1))
        if abs(closed - mc) > 0.03 * mc:
            ok = False
    report(5, "closed-form variance vs 1e5-draw Monte Carlo, 3%", ok)


def test_acceptance_6_geometry():
    unit_box = LpParams(
        p=np.zeros(2), M=np.array([[1.0, 0.0]]), c=np.array([-2.0]),
        box=(np.full(2, -1.0), np.full(2, 1.0)),
    )
    checks = [polytope_condition_number(unit_box) == 1.0]
    delta = delta_condition(example1_params(0.0)).delta
    checks.append(abs(delta - (math.sqrt(5.0) - 1.0) / 2.0) < 1e-9)
    rng = np.random.default_rng(66)
    worst = math.inf
    for _ in range(500):
        M, c, box = random_feasible_polytope_data(rng)
        poly = LpParams(np.zeros(M.shape[1]), M, c, box)
        kappa = polytope_condition_number(poly)
        for _ in range(10):
            x = rng.uniform(-4.0, 4.0, size=M.shape[1])
            dist, _ = distance_to_polytope(poly, x)
            worst = min(worst, l1_violation(poly, x) - dist * kappa)
    checks.append(worst >= -1e-8)
    report(6, f"kappa/delta values and L1 minorization (worst slack {worst:.2e})", all(checks))


def test_acceptance_7_quantile_identity():
    ok = True
    for alpha in np.linspace(0.01, 0.99, 99):
        delta = tao_vu_quantile(float(alpha))
        if abs(1.0 - math.exp(-delta / 2.0 - math.sqrt(delta)) - alpha) > 1e-12:
            ok = False
    report(7, "quantile identity on the 99-point grid, 1e-12", ok)


def test_acceptance_8_causal_bounds():
    checks = []
    table = proof_example_table()
    miv = cmivw_bounds(table, "1", -1.0, 1.0, kind="miv")
    rec = cmivw_bounds(table, "1", -1.0, 1.0)
    checks.append(np.allclose(miv.lower, [-0.125] * 3, atol=1e-12))
    checks.append(abs(rec.lower[2] - (-1.0 / 16.0)) < 1e-12)
    rng = np.random.default_rng(88)
    target = MeanPotential("1")

    def lower(tb, kinds):
        spec = AssumptionSpec(kinds=frozenset(kinds), bounds=(-1.0, 1.0), target=target)
        value, status = bound_value(compile(tb, spec), "lower")
        assert status == OPTIMAL
        return value

    equal, nested = True, True
    for _ in range(200):
        tb = random_binary_table(rng)
        rec_tb = cmivw_bounds(tb, "1", -1.0, 1.0)
        lp_cmivp = lower(tb, {"bounds", "cmiv_p"})
        if abs(lp_cmivp - rec_tb.aggregate_lower) > 1e-8:
            equal = False
        chain = [
            lower(tb, {"bounds"}),
            lower(tb, {"bounds", "miv"}),
            rec_tb.aggregate_lower,
            lp_cmivp,
            lower(tb, {"bounds", "cmiv_s"}),
        ]
        if any(a > b + 1e-8 for a, b in zip(chain, chain[1:])):
            nested = False
    checks.extend([equal, nested])
    report(8, "proof-example bounds, LP == recursion, nesting on 200 tables", all(checks))


def test_acceptance_9_uniform_rate_study():
    sizes = (100, 500, 1000, 5000, 10000)
    start = time.perf_counter()
    full = run_uniform_grid(UniformGridScenario(
        dgp="uniform_grid", sample_sizes=sizes, replications=2000, seed=5, grid="full",
    ))
    single = run_uniform_grid(UniformGridScenario(
        dgp="uniform_grid", sample_sizes=sizes, replications=2000, seed=5,
        grid="single", slater=True,
    ))
    elapsed = time.perf_counter() - start
    adaptive = loglog_slope(sizes, full.adaptive_scaled)
    raw = loglog_slope(sizes, full.sqrt_n_scaled)
    single_slope = loglog_slope(sizes, single.sqrt_n_scaled)
    ok = (
        abs(adaptive) <= 0.15
        and raw > 0.0
        and abs(single_slope) <= 0.1
        and elapsed < 900.0
    )
    report(
        9,
        f"rate slopes: adaptive {adaptive:.3f}, raw {raw:.3f}, single {single_slope:.3f}",
        ok,
    )


def test_acceptance_10_solver_property_suite():
    rng = np.random.default_rng(1010)
    agree, bitwise = True, True
    for _ in range(1000):
        params = random_lp(rng)
        sol = solve_lp(params)
        vertices = enumerate_vertices(params)
        if not vertices:
            if sol.status != INFEASIBLE:
                agree = False
        else:
            best = min(float(params.p @ v) for v, _ in vertices)
            if sol.status != OPTIMAL or abs(sol.value - best) > 1e-9 * (1.0 + abs(best)):
                agree = False
        a = set_expansion_value(params, 0.0, 100)
        b = plug_in_value(params)
        if a.status != b.status or a.value != b.value:
            bitwise = False
    report(10, "1000-LP oracle agreement and zero-expansion identity", agree and bitwise)
