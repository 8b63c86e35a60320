"""Acceptance suite: every shipped guarantee at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with -s or -rA to see them all).
Tolerances are pinned here, not calibrated at runtime.
"""

import itertools
import math
import time

import numpy as np

from exactsens.exactdist import brute_force_alpha, exact_alpha, mvehg_pmf
from exactsens.montecarlo import estimate_alpha_sis
from exactsens.oracle import run_battery, _random_margins
from exactsens.sensmodel import ConfounderClass, RawConfounder, SensitivityModel
from exactsens.simulate import LogLinearDGP, power_curve, size_curve, standard_test_suite
from exactsens.stats import ordinal_statistic
from exactsens.stratified import closed_testing, combined_pvalue, truncated_product
from exactsens.tables import ContingencyTable, Margins, enumerate_fixed_margin_array
from exactsens.worstcase import (
    RejectionAggregate,
    candidates_ordinal,
    candidates_pi,
    signscore_u_plus,
    worst_case_grid,
)
from tests.conftest import table_law


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


# ------------------------------------------------------------------ 1


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    rep = run_battery(seed=20240901, max_n=10, cases=30, tolerance=1e-12)
    dt = time.time() - t0
    ok = rep.counterexample is None and dt < 120
    _report(1, "kernel vs permutation oracle equivalence",
            ok, f"{rep.checked} comparisons, max rel {rep.max_rel:.2e}, {dt:.0f}s")


# ------------------------------------------------------------------ 2

BENCHMARK_3X3 = [
    ([[2, 3, 0], [0, 1, 4], [0, 1, 4]], [((0, 0, 3), 0.01), ((0, 0, 7), 0.03),
                                          ((0, 5, 8), 0.02)]),
    ([[2, 2, 1], [1, 2, 2], [1, 2, 2]], [((0, 0, 2), 0.36), ((0, 3, 5), 0.52),
                                          ((0, 6, 5), 0.53)]),
    ([[3, 2, 1], [0, 2, 4], [0, 1, 5]], [((0, 0, 5), 0.01), ((0, 0, 10), 0.04),
                                          ((0, 4, 10), 0.03)]),
    ([[3, 3, 0], [1, 2, 3], [2, 3, 1]], [((0, 0, 4), 0.49), ((0, 3, 4), 0.52),
                                          ((0, 8, 4), 0.58)]),
]

BENCHMARK_2X3 = [
    ([[4, 6, 0], [1, 3, 6]], [((4, 9, 6), 0.01), ((0, 1, 6), 0.05)]),
    ([[2, 4, 4], [2, 2, 6]], [((3, 6, 10), 0.46), ((0, 0, 7), 0.67)]),
]


def test_criterion_02_benchmark_pvalues():
    t0 = time.time()
    bad = []
    stat3 = ordinal_statistic((0, 1, 2), (0, 1, 2))
    model3 = SensitivityModel(gamma=1.0, delta=(0, 1, 1))
    for counts, rows in BENCHMARK_3X3:
        t = ContingencyTable.from_array(counts)
        for ubar, want in rows:
            p = exact_alpha(stat3, t, ConfounderClass(ubar), model3)
            if round(p, 2) != want:
                bad.append((counts, ubar, p, want))
    stat2 = ordinal_statistic((0, 1), (0, 1, 2))
    model2 = SensitivityModel(gamma=1.0, delta=(0, 1))
    for counts, rows in BENCHMARK_2X3:
        t = ContingencyTable.from_array(counts)
        for ubar, want in rows:
            p = exact_alpha(stat2, t, ConfounderClass(ubar), model2)
            if round(p, 2) != want:
                bad.append((counts, ubar, p, want))
    dt = time.time() - t0
    _report(2, "published benchmark p-values reproduce (2 dp)",
            not bad and dt < 10, f"16 triples, {dt:.1f}s; mismatches: {bad}")


# ------------------------------------------------------------------ 3


def test_criterion_03_reference_pvalues_n18():
    t = ContingencyTable.from_array([[3, 2, 1], [0, 2, 4], [0, 1, 5]])
    stat = ordinal_statistic((0, 1, 2.5), (0, 1, 2))
    model = SensitivityModel(gamma=1.0, delta=(0, 1, 1))
    got = [
        round(exact_alpha(stat, t, ConfounderClass(ub), model), 2)
        for ub in [(0, 0, 5), (0, 0, 10), (0, 4, 10)]
    ]
    _report(3, "reference exact p-values at three confounder classes",
            got == [0.01, 0.04, 0.03], f"got {got}")


# ------------------------------------------------------------------ 4

GIRLS = [[12, 3, 0], [18, 12, 3], [17, 25, 4]]
BOYS = [[10, 8, 1], [29, 11, 3], [20, 24, 6]]
PRIOR_A = (0.0, 0.25, 1.5)
PRIOR_B = (0.0, 1.0, 1.5)
STUDY_GAMMAS = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]
STUDY_GIRLS_ROW = [0.006, 0.015, 0.028, 0.041, 0.054, 0.067, 0.080, 0.091]
STUDY_BOYS_ROW = [0.013, 0.032, 0.056, 0.082, 0.106, 0.130, 0.152, 0.172]
STUDY_JOINT_ROW = [0.001, 0.003, 0.009, 0.017, 0.026, 0.036, 0.046, 0.055]
STUDY_STARS = [(True, True), (True, True), (True, False), (True, False),
                (False, False), (False, False), (False, False), (False, False)]


def test_criterion_04_two_subgroup_study():
    t0 = time.time()
    stat = ordinal_statistic(PRIOR_A, PRIOR_B)
    model0 = SensitivityModel(gamma=0.0, delta=(0, 1, 1))
    gammas = [math.log(G) for G in STUDY_GAMMAS]
    girls_res = worst_case_grid(stat, ContingencyTable.from_array(GIRLS), model0, gammas)
    boys_res = worst_case_grid(stat, ContingencyTable.from_array(BOYS), model0, gammas)
    girls = [round(r.pvalue, 3) for r in girls_res]
    boys = [round(r.pvalue, 3) for r in boys_res]
    ok = girls == STUDY_GIRLS_ROW and boys == STUDY_BOYS_ROW

    rng = np.random.default_rng(20240901)
    joint_ok = True
    stars_ok = True
    for k, (pg, pb) in enumerate(zip((r.pvalue for r in girls_res),
                                     (r.pvalue for r in boys_res))):
        W = truncated_product((pg, pb), 0.2)
        joint = combined_pvalue(W, 2, 0.2, rng, 200_000)
        if abs(joint - STUDY_JOINT_ROW[k]) > 0.003:
            joint_ok = False

        def comb(ps):
            return combined_pvalue(truncated_product(ps, 0.2), len(ps), 0.2,
                                   rng, 200_000)

        if closed_testing([pg, pb], comb, 0.05) != STUDY_STARS[k]:
            stars_ok = False
    dt = time.time() - t0
    _report(4, "data-analysis reproduction (rows 3 dp, joint +-0.003, stars)",
            ok and joint_ok and stars_ok and dt < 300,
            f"girls {girls}, boys {boys}, joint_ok={joint_ok}, stars_ok={stars_ok}, {dt:.0f}s")


# ------------------------------------------------------------------ 5


def test_criterion_05_candidate_sets():
    rng = np.random.default_rng(52)
    worst_rel = 0.0
    ss_worst = 0.0
    checked = 0
    for _ in range(100):
        N = int(rng.integers(5, 11))
        I = int(rng.integers(2, 4))
        J = int(rng.integers(2, 4))
        m = _random_margins(rng, N, I, J)
        tabs = enumerate_fixed_margin_array(m)
        t = ContingencyTable.from_array(tabs[rng.integers(0, len(tabs))])
        alpha = tuple(np.sort(rng.uniform(0, 2, size=I)))
        beta = tuple(np.sort(rng.uniform(0, 2, size=J)))
        stat = ordinal_statistic(alpha, beta)
        delta = tuple(sorted(rng.integers(0, 2, size=I).tolist()))
        if len(set(delta)) < 2:
            delta = (0,) * (I - 1) + (1,)
        gamma = float(rng.uniform(0.1, 2.0))
        agg = RejectionAggregate(m, stat, stat(t), delta)
        p_ord = max(agg.alpha_grid(c, [gamma])[0] for c in candidates_ordinal(m))
        p_pi = max(agg.alpha_grid(c, [gamma])[0] for c in candidates_pi(m))
        rel = abs(p_ord - p_pi) / max(p_pi, 1e-300)
        worst_rel = max(worst_rel, rel)
        if J == 2:
            p_ss = agg.alpha_grid(signscore_u_plus(m), [gamma])[0]
            ss_worst = max(ss_worst, abs(p_ss - p_pi) / max(p_pi, 1e-300))
        checked += 1
    ok = worst_rel < 1e-12 and ss_worst < 1e-12
    _report(5, "ordinal and sign-score candidate sets attain the full-scan max",
            ok, f"{checked} instances, worst rel {worst_rel:.1e} / {ss_worst:.1e}")


# ------------------------------------------------------------------ 6


def test_criterion_06_signscore_law_is_mvehg():
    rng = np.random.default_rng(6)
    worst = 0.0
    for k in range(20):
        I = int(rng.integers(2, 4))
        rows = tuple(int(v) for v in rng.integers(1, 5, size=I))
        n2 = int(rng.integers(1, sum(rows)))
        m = Margins(rows, (sum(rows) - n2, n2))
        gamma = 0.0 if k < 5 else float(rng.uniform(0, 2))  # cover the central case
        delta = (0,) * (I - 1) + (1,) if k % 2 else (0,) + (1,) * (I - 1)
        model = SensitivityModel(gamma=gamma, delta=delta)
        cclass = ConfounderClass((0, n2))
        weights = [gamma * d for d in delta]
        tables, law = table_law(m, cclass, model)
        for tab, p in zip(tables, law):
            want = mvehg_pmf(tuple(tab[:, 1]), rows, n2, weights)
            worst = max(worst, abs(p - want))
    _report(6, "column-count law equals the extended hypergeometric closed form",
            worst < 1e-12, f"max abs diff {worst:.1e}")


# ------------------------------------------------------------------ 7


def test_criterion_07_moment_formulas():
    from exactsens.moments import cell_moments, test_moments as ordinal_moments

    rng = np.random.default_rng(7)
    m = Margins((4, 4, 4), (4, 4, 4))
    stat = ordinal_statistic((0, 1, 2), (0, 1, 2))
    worst_mean = worst_cov = worst_stat = 0.0
    for gamma in (0.0, 0.5, 1.0):
        model = SensitivityModel(gamma=gamma, delta=(0, 1, 1))
        for ubar_total in (0, 1, 6, m.N - 1, m.N):
            while True:
                parts = rng.multinomial(ubar_total, np.ones(3) / 3)
                if np.all(parts <= np.asarray(m.cols)):
                    break
            cclass = ConfounderClass(tuple(int(v) for v in parts))
            got = cell_moments(cclass, m, model)
            tables, p = table_law(m, cclass, model)
            arr = tables.astype(float)
            mean = (arr * p[:, None, None]).sum(axis=0)
            flat = arr.reshape(len(arr), -1)
            cov = flat.T @ (flat * p[:, None]) - np.outer(mean.ravel(), mean.ravel())
            worst_mean = max(worst_mean, np.abs(got.mean - mean).max())
            worst_cov = max(worst_cov, np.abs(got.cov - cov).max())
            tmean, tvar = ordinal_moments(stat, cclass, m, model)
            tv = stat.evaluate_batch(tables)
            worst_stat = max(
                worst_stat,
                abs(tmean - tv @ p),
                abs(tvar - ((tv - tv @ p) ** 2 @ p)),
            )
    ok = worst_mean < 1e-10 and worst_cov < 1e-9 and worst_stat < 1e-9
    _report(7, "cell and statistic moments vs direct summation",
            ok, f"mean {worst_mean:.1e}, cov {worst_cov:.1e}, stat {worst_stat:.1e}")


# ------------------------------------------------------------------ 8


def test_criterion_08_sis_convergence():
    t0 = time.time()
    t = ContingencyTable.from_array([[12, 18, 5], [6, 12, 6], [6, 6, 15]])
    stat = ordinal_statistic((0, 1, 2.5), (0, 1, 2))
    model = SensitivityModel(gamma=1.0, delta=(0, 1, 1))
    c = ConfounderClass((0, 10, 20))
    exact = exact_alpha(stat, t, c, model)
    hits = 0
    for seed in range(30):
        tr = estimate_alpha_sis(seed, stat, t, c, model, M=10_000)
        hits += abs(tr.final - exact) <= 0.01
    dt = time.time() - t0
    _report(8, "self-normalized sampler lands within 0.01 of exact in >=90% of runs",
            hits >= 27 and round(exact, 2) == 0.05,
            f"{hits}/30 hits, exact {exact:.4f}, {dt:.0f}s")


# ------------------------------------------------------------------ 9


def test_criterion_09_size_control():
    t0 = time.time()
    margins = Margins((60, 10, 20), (15, 75))
    model = SensitivityModel(gamma=1.0, delta=(0, 0, 1))
    nominal = [v / 100 for v in range(1, 100)]
    iters = 1000  # the band is the 3-sigma band of a 1000-draw study
    curves = size_curve(margins, model, (0, 1, 2), nominal)
    ex, no = curves["exact"], curves["normal"]
    exact_ok = all(
        r <= g + 3 * math.sqrt(g * (1 - g) / iters)
        for g, r in zip(nominal, ex)
    )
    normal_exceeds = any(
        r > g + 3 * math.sqrt(g * (1 - g) / iters)
        for g, r in zip(nominal, no)
    )
    dt = time.time() - t0
    _report(9, "exact size below nominal everywhere; normal approximation inflates",
            exact_ok and normal_exceeds and dt < 180,
            f"exact_ok={exact_ok}, normal_exceeds={normal_exceeds}, {dt:.0f}s")


# ------------------------------------------------------------------ 10


def test_criterion_10_power_study():
    t0 = time.time()
    dgp = LogLinearDGP(
        lambda0=0.0,
        lambda_z=(1.0, 0.0, 0.0),
        lambda_r=(1.0, 0.2, 0.0),
        w=1.0,
        alpha_star=(0.0, 1.7, 2.45),
        beta_star=(0.0, 1.25, 1.4),
        treatment_margins=(20, 20, 20),
    )
    suite = standard_test_suite(dgp.alpha_star, dgp.beta_star, (0, 1, 1))
    curves, matrix = power_curve(20240901, dgp, suite, [0.0, 1.0], iterations=300,
                                 return_matrix=True)
    opt = curves["3x3-opt"]
    near1 = abs(opt.rates[0] - 0.995) <= 0.05
    neare = abs(opt.rates[1] - 0.829) <= 0.06
    # variants share each iteration's table, so dominance is judged on the
    # paired differences: the full test must never sit significantly below a
    # coarsened variant (3 sigma of the paired MC error; the published
    # gamma = 1 gap to 3x2-v2 is a true near-tie of 0.001)
    dominates = True
    n = matrix.shape[0]
    for si in range(1, matrix.shape[1]):
        for k in (0, 1):
            d = matrix[:, 0, k] - matrix[:, si, k]
            se = d.std(ddof=1) / math.sqrt(n)
            if d.mean() < -3 * se:
                dominates = False
    dt = time.time() - t0
    _report(10, "full-table ordinal test attains the published power and dominates",
            near1 and neare and dominates and dt < 1800,
            f"opt rates {opt.rates}, dominates={dominates}, {dt:.0f}s")


# ------------------------------------------------------------------ 11


def test_criterion_11_interior_confounder_beats_corners():
    t_obs = ContingencyTable.from_array(
        [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    stat = ordinal_statistic((1, 2, 3, 4), (1.4, 2.1, 3.5, 4.7))
    model = SensitivityModel(gamma=1.0, phi=(1.0, 2.0, 3.0, 4.0))
    outcomes = (0, 0, 1, 1, 2, 3)
    interior = brute_force_alpha(
        stat, t_obs, RawConfounder((0.0, 0.0, 0.4674, 0.4674, 0.9073, 1.0)),
        outcomes, model, critical=40.0,
    )
    best_corner = max(
        brute_force_alpha(stat, t_obs, RawConfounder(bits), outcomes, model,
                          critical=40.0)
        for bits in itertools.product((0.0, 1.0), repeat=6)
    )
    _report(11, "dose-model maximizer sits strictly inside the unit cube",
            interior > best_corner,
            f"interior {interior:.6f} > best corner {best_corner:.6f}")


# ------------------------------------------------------------------ 12


def test_criterion_12_kernel_speedup():
    t = ContingencyTable.from_array([[3, 2, 1], [0, 2, 4], [0, 1, 5]])
    stat = ordinal_statistic((0, 1, 2.5), (0, 1, 2))
    model = SensitivityModel(gamma=1.0, delta=(0, 1, 1))
    c = ConfounderClass((0, 0, 10))
    t0 = time.time()
    p_kernel = exact_alpha(stat, t, c, model)
    dt_kernel = time.time() - t0
    outcomes = [0] * 3 + [1] * 5 + [2] * 10
    u = RawConfounder(tuple([0.0] * 8 + [1.0] * 10))
    t0 = time.time()
    p_brute = brute_force_alpha(stat, t, u, outcomes, model, allow_large=True)
    dt_brute = time.time() - t0
    speedup = dt_brute / max(dt_kernel, 1e-9)
    agree = abs(p_kernel - p_brute) <= 1e-12 * max(p_kernel, p_brute)
    _report(12, "kernel evaluation is at least 100x faster than permutation",
            speedup >= 100 and agree,
            f"{speedup:.0f}x ({dt_brute:.1f}s vs {dt_kernel*1000:.1f}ms), agree={agree}")