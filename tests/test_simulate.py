"""Log-linear DGP, power and size drivers."""

import math

import numpy as np
import pytest

from exactsens.exactdist import mvehg_pmf, omega_q, signscore_tail, statistic_tolerance
from exactsens.moments import test_moments as ordinal_moments
from exactsens.sensmodel import SensitivityError, SensitivityModel
from exactsens.simulate import (
    LogLinearDGP,
    PowerTestSpec,
    conditional_outcome_probs,
    power_curve,
    sample_table_fixed_treatment,
    size_curve,
    standard_test_suite,
)
from exactsens.stats import ordinal_statistic
from exactsens.tables import Margins
from exactsens.worstcase import signscore_u_plus, worst_case_grid

CASE_I = LogLinearDGP(
    lambda0=0.0,
    lambda_z=(1.0, 0.0, 0.0),
    lambda_r=(1.0, 0.2, 0.0),
    w=1.0,
    alpha_star=(0.0, 1.7, 2.45),
    beta_star=(0.0, 1.25, 1.4),
    treatment_margins=(20, 20, 20),
)


def test_conditional_probs_uniform_when_flat():
    dgp = LogLinearDGP(0.0, (0.0,) * 3, (0.0,) * 3, 0.0, (0, 1, 2), (0, 1, 2),
                       (5, 5, 5))
    p = conditional_outcome_probs(dgp)
    np.testing.assert_allclose(p, np.full((3, 3), 1 / 3), atol=1e-14)


def test_conditional_probs_rows_sum_to_one():
    p = conditional_outcome_probs(CASE_I)
    np.testing.assert_allclose(p.sum(axis=1), np.ones(3), atol=1e-14)
    assert np.all(p > 0)


def test_conditional_probs_shift_invariance():
    shifted = LogLinearDGP(
        CASE_I.lambda0,
        CASE_I.lambda_z,
        tuple(v + 2.5 for v in CASE_I.lambda_r),
        CASE_I.w,
        CASE_I.alpha_star,
        CASE_I.beta_star,
        CASE_I.treatment_margins,
    )
    np.testing.assert_allclose(
        conditional_outcome_probs(CASE_I), conditional_outcome_probs(shifted),
        atol=1e-12,
    )


def test_monotone_association_warning():
    with pytest.warns(UserWarning, match="not monotone"):
        LogLinearDGP(0.0, (0.0,) * 3, (0.0,) * 3, 1.0, (0, 1, 0.5), (0, 1, 0.5),
                     (5, 5, 5))
    assert CASE_I.monotone_association()


def test_sample_table_margins_and_means(rng):
    probs = conditional_outcome_probs(CASE_I)
    total = np.zeros((3, 3))
    draws = 4000
    for _ in range(draws):
        t = sample_table_fixed_treatment(rng, CASE_I)
        assert t.row_margins() == CASE_I.treatment_margins
        total += t.as_array()
    mean = total / draws
    expect = probs * np.asarray(CASE_I.treatment_margins)[:, None]
    se = np.sqrt(expect * (1 - probs) / draws) + 1e-9
    assert np.all(np.abs(mean - expect) < 4 * se)


def test_sample_equal_rows_when_no_effects(rng):
    dgp = LogLinearDGP(0.0, (0.0,) * 3, (0.5, 0.2, 0.0), 0.0, (0, 1, 2), (0, 1, 2),
                       (30, 30, 30))
    p = conditional_outcome_probs(dgp)
    assert np.allclose(p[0], p[1]) and np.allclose(p[1], p[2])


def test_power_identity_collapse_bit_for_bit():
    spec_plain = PowerTestSpec("plain", CASE_I.alpha_star, CASE_I.beta_star, (0, 1, 1))
    spec_ident = PowerTestSpec(
        "ident", CASE_I.alpha_star, CASE_I.beta_star, (0, 1, 1),
        row_groups=((0,), (1,), (2,)), col_groups=((0,), (1,), (2,)),
    )
    curves = power_curve(42, CASE_I, [spec_plain, spec_ident], [0.0, 1.0],
                         iterations=8)
    assert curves["plain"].rates == curves["ident"].rates


def test_power_rejects_everything_at_level_one():
    spec = PowerTestSpec("t", CASE_I.alpha_star, CASE_I.beta_star, (0, 1, 1))
    curves = power_curve(1, CASE_I, spec, [0.0], iterations=5, alpha_level=1.0)
    assert curves["t"].rates == (1.0,)
    with pytest.raises(ValueError):
        power_curve(1, CASE_I, spec, [0.0], iterations=0)


def test_power_delta_mismatch_raises():
    spec = PowerTestSpec("short-delta", CASE_I.alpha_star, CASE_I.beta_star, (0, 1))
    with pytest.raises(SensitivityError, match="3 rows"):
        power_curve(1, CASE_I, spec, [0.0], iterations=3)
    # the check is on the transformed row count: (0, 1) suits a 2-row collapse
    # and a 3-entry delta does not
    suite = standard_test_suite(CASE_I.alpha_star, CASE_I.beta_star)
    power_curve(1, CASE_I, suite[3], [0.0], iterations=2)
    bad = PowerTestSpec("2x2-long", (0.0, 1.0), (0.0, 1.0), (0, 1, 1),
                        row_groups=((0,), (1, 2)), col_groups=((0, 1), (2,)))
    with pytest.raises(SensitivityError, match="2 rows"):
        power_curve(1, CASE_I, bad, [0.0], iterations=2)


def test_standard_suite_refuses_a_fractional_delta():
    with pytest.raises(ValueError, match="delta must hold integers"):
        standard_test_suite(CASE_I.alpha_star, CASE_I.beta_star, (0, 1.7, 1))


def test_power_misconfigured_variant_raises_before_simulating(monkeypatch):
    # the suite's 3 x 3 level groups cannot partition a 4 x 4 table: that is
    # reported with the variant's name, not counted as "no rejection"
    dgp4 = LogLinearDGP(0.0, (0.0,) * 4, (0.0,) * 4, 1.0, (0, 1, 2, 3), (0, 1, 2, 3),
                        (5, 5, 5, 5))
    suite = standard_test_suite(dgp4.alpha_star, dgp4.beta_star, (0, 1, 1, 1))
    monkeypatch.setattr("exactsens.simulate._multinomial_rows", None)
    with pytest.raises(ValueError, match="test variant '3x2-v1': column blocks"):
        power_curve(1, dgp4, suite, [0.0], iterations=3)
    with pytest.raises(ValueError, match="test variant '2x2-v1': row blocks"):
        power_curve(1, dgp4, suite[3], [0.0], iterations=3)


# row 1 always lands in the middle outcome, so every cross-cut draw keeps an
# empty row
DEGENERATE = LogLinearDGP(0.0, (0.0,) * 3, (-60.0, 0.0, -60.0), 1.0, (0, 1, 2), (0, 0, 61),
                          (4, 4, 4))


def test_power_degenerate_crosscut_counts_as_no_rejection():
    # nothing is retained to test, which counts as no rejection
    dgp = DEGENERATE
    t = sample_table_fixed_treatment(np.random.default_rng(0), dgp)
    assert t.counts[0] == (0, 4, 0) and t.counts[2] == (0, 0, 4)
    spec = PowerTestSpec("crosscut", (0.0, 1.0), (0.0, 1.0), (0, 1),
                         keep_rows=(0, 2), keep_cols=(0, 2))
    curves = power_curve(3, dgp, spec, [0.0], iterations=3, alpha_level=1.0)
    assert curves["crosscut"].rates == (0.0,)
    assert (curves["crosscut"].skipped, curves["crosscut"].builds) == (3, 0)
    assert curves["crosscut"].strategy == "signscore"


def per_draw_rejections(seed, dgp, specs, gammas, iterations, alpha_level):
    """(iterations, variant, gamma) indicators from one ``worst_case_grid`` per draw and variant."""
    out = np.zeros((iterations, len(specs), len(gammas)))
    for it in range(iterations):
        t = sample_table_fixed_treatment(np.random.default_rng([seed, it]), dgp)
        for si, spec in enumerate(specs):
            try:
                tt = spec.transform(t)
                tt.margins()
            except ValueError:
                continue
            model = SensitivityModel(gamma=gammas[0], delta=spec.delta)
            results = worst_case_grid(spec.statistic(), tt, model, gammas)
            out[it, si] = [res.pvalue <= alpha_level for res in results]
    return out


@pytest.mark.parametrize("level", [0.05, 1.0])
@pytest.mark.parametrize("gammas", [[0.0], [0.0, 0.5, 1.0, 2.0]])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_power_grouped_signscore_equals_per_draw_scans(seed, gammas, level):
    # sign-score variants share one law per (rows, column-2 total); the
    # indicators must equal a worst_case_grid call per draw, bit for bit
    suite = standard_test_suite(CASE_I.alpha_star, CASE_I.beta_star)
    curves, matrix = power_curve(seed, CASE_I, suite, gammas, iterations=12,
                                 alpha_level=level, return_matrix=True)
    want = per_draw_rejections(seed, CASE_I, suite, gammas, 12, level)
    np.testing.assert_array_equal(matrix, want)
    assert [c.strategy for c in curves.values()] == ["ordinal"] + ["signscore"] * 5
    assert curves["3x3-opt"].builds == 12
    assert all(1 <= c.builds <= 12 and c.skipped == 0 for c in curves.values())


def test_power_grouping_counts_one_law_per_rows_and_column_total():
    suite = standard_test_suite(CASE_I.alpha_star, CASE_I.beta_star)
    curves = power_curve(1, CASE_I, suite, [0.0, 1.0], iterations=30)
    laws = 0
    for spec in suite[1:]:
        keys = set()
        for it in range(30):
            m = spec.transform(
                sample_table_fixed_treatment(np.random.default_rng([1, it]), CASE_I)).margins()
            keys.add((m.rows, m.cols[1]))
        assert curves[spec.name].builds == len(keys)
        laws += len(keys)
    # the collapsed variants' rows are fixed, so their draws share laws
    assert laws < 5 * 30


def test_power_degenerate_and_pi_variants_equal_per_draw_scans():
    crosscut = standard_test_suite((0, 1, 2), (0, 0, 61))[5]
    curves, matrix = power_curve(3, DEGENERATE, crosscut, [0.0, 1.0], iterations=3,
                                 alpha_level=1.0, return_matrix=True)
    np.testing.assert_array_equal(matrix, per_draw_rejections(
        3, DEGENERATE, [crosscut], [0.0, 1.0], 3, 1.0))
    # a J = 2 variant with a non-monotone delta scans every class per draw
    pi = PowerTestSpec("3x2-pi", CASE_I.alpha_star, (0.0, 1.0), (1, 0, 1),
                       col_groups=((0, 1), (2,)))
    curves, matrix = power_curve(2, CASE_I, pi, [0.0, 1.0], iterations=4,
                                 return_matrix=True)
    np.testing.assert_array_equal(matrix, per_draw_rejections(
        2, CASE_I, [pi], [0.0, 1.0], 4, 0.05))
    assert (curves["3x2-pi"].strategy, curves["3x2-pi"].builds) == ("pi", 4)


@pytest.mark.parametrize("cut,delta", [({"keep_rows": (0, 2)}, (0, 1)),
                                       ({"keep_cols": (0, 2)}, (0, 1, 1))])
def test_power_one_sided_crosscut_equals_per_draw_scans(cut, delta):
    # the unset axis keeps every level: a 2 x 3 ordinal or a 3 x 2 sign-score variant
    rows = CASE_I.alpha_star if "keep_cols" in cut else (0.0, 1.0)
    cols = CASE_I.beta_star if "keep_rows" in cut else (0.0, 1.0)
    spec = PowerTestSpec("cut", rows, cols, delta, **cut)
    curves, matrix = power_curve(5, CASE_I, spec, [0.0, 1.0], iterations=6,
                                 return_matrix=True)
    np.testing.assert_array_equal(matrix, per_draw_rejections(
        5, CASE_I, [spec], [0.0, 1.0], 6, 0.05))
    assert curves["cut"].strategy == ("ordinal" if "keep_rows" in cut else "signscore")


def test_suite_statistics_of_a_stack_equal_per_table_statistics():
    # the power study transforms and scores every draw in one call per variant
    from exactsens.tables import ContingencyTable

    counts = np.stack([
        sample_table_fixed_treatment(np.random.default_rng([4, it]), CASE_I).as_array()
        for it in range(25)
    ])
    counts[:3, 2, [0, 2]] = 0  # the cross-cut keeps nobody of row 2
    for spec in standard_test_suite(CASE_I.alpha_star, CASE_I.beta_star):
        stat = spec.statistic()
        tabs = spec.transform(counts)
        assert tabs.tolist() == [spec.transform(ContingencyTable.from_array(c)).as_array().tolist()
                                 for c in counts]
        assert stat.evaluate_batch(tabs).tolist() == [stat(tab) for tab in tabs]


@pytest.mark.parametrize("level", [float("nan"), math.inf, 0.0, -1.0, 1.5])
def test_power_refuses_a_level_outside_the_unit_interval(level):
    # a nan or negative level rejected nothing and passed for zero power
    spec = PowerTestSpec("t", CASE_I.alpha_star, CASE_I.beta_star, (0, 1, 1))
    with pytest.raises(ValueError, match="level must lie in"):
        power_curve(1, CASE_I, spec, [0.0], iterations=2, alpha_level=level)


@pytest.mark.parametrize("cut", [{"keep_rows": (0, 2)}, {"keep_cols": (0, 2)}])
@pytest.mark.parametrize("groups", [{"row_groups": ((0,), (1, 2))},
                                    {"col_groups": ((0, 1), (2,))}])
def test_power_spec_refuses_groups_with_a_crosscut(cut, groups):
    # transform would apply the cross-cut and drop the groups
    with pytest.raises(ValueError, match="not both"):
        PowerTestSpec("mixed", (0.0, 1.0), (0.0, 1.0), (0, 1), **cut, **groups)


@pytest.mark.parametrize("transform, message", [
    ({"keep_rows": (0, 1.9)}, "cross-cut row indices"),
    ({"keep_cols": (0, 2.7)}, "cross-cut column indices"),
    ({"row_groups": ((0, 1.5), (2,))}, "row block"),
    ({"col_groups": ((0,), (1, 2.5))}, "column block"),
], ids=["keep-rows", "keep-cols", "row-groups", "col-groups"])
def test_power_refuses_a_variant_with_fractional_levels(transform, message):
    # the levels were truncated, so the study ran on other rows or columns
    spec = PowerTestSpec("frac", (0.0, 1.0), (0.0, 1.0), (0, 1), **transform)
    with pytest.raises(ValueError, match=f"test variant 'frac': {message} must hold integers"):
        power_curve(1, CASE_I, [spec], [0.0], iterations=2)


def test_standard_suite_shapes():
    suite = standard_test_suite(CASE_I.alpha_star, CASE_I.beta_star)
    assert [s.name for s in suite] == [
        "3x3-opt", "3x2-v1", "3x2-v2", "2x2-v1", "2x2-v2", "crosscut",
    ]
    from exactsens.tables import ContingencyTable

    t = ContingencyTable.from_array([[12, 3, 0], [18, 12, 3], [17, 25, 4]])
    assert suite[1].transform(t).counts == ((15, 0), (30, 3), (42, 4))
    assert suite[3].transform(t).counts == ((15, 0), (72, 7))
    assert suite[4].transform(t).counts == ((12, 3), (35, 44))
    assert suite[5].transform(t).counts == ((12, 0), (17, 4))


def test_size_curve_exact_below_diagonal():
    margins = Margins((20, 5, 10), (10, 25))
    model = SensitivityModel(gamma=0.8, delta=(0, 0, 1))
    nominal = [0.05, 0.2, 0.5, 0.8]
    rates = size_curve(margins, model, (0, 1, 2), nominal)["exact"]
    for nom, rate in zip(nominal, rates):
        sigma = math.sqrt(nom * (1 - nom) / 400)
        assert rate <= nom + 3 * sigma
    with pytest.raises(ValueError):
        size_curve(Margins((5, 5), (2, 4, 4)), model, (0, 1), nominal)


def test_size_curve_normal_runs():
    margins = Margins((20, 5, 10), (10, 25))
    model = SensitivityModel(gamma=0.5, delta=(0, 0, 1))
    rates = size_curve(margins, model, (0, 1, 2), [0.1, 0.5])["normal"]
    assert all(0 <= r <= 1 for r in rates)


# criterion 9's instance, the instances of the size tests in this file and a dose model
SIZE_CASES = [
    (Margins((60, 10, 20), (15, 75)), SensitivityModel(gamma=1.0, delta=(0, 0, 1))),
    (Margins((20, 5, 10), (10, 25)), SensitivityModel(gamma=0.8, delta=(0, 0, 1))),
    (Margins((20, 5, 10), (10, 25)), SensitivityModel(gamma=0.5, delta=(0, 0, 1))),
    (Margins((8, 6, 6), (8, 12)), SensitivityModel(gamma=0.0, delta=(0, 0, 1))),
    (Margins((9, 7, 8), (10, 14)), SensitivityModel(gamma=0.7, phi=(0.0, 0.5, 1.5))),
]
NOMINAL = [v / 100 for v in range(1, 100)]


def pointwise_size(margins, model, alpha, nominal, method):
    """Sum of mvehg_pmf(t) over the support points t whose p-value is <= g."""
    rows, n = margins.rows, margins.cols[1]
    weights = [model.gamma * b for b in model.bias]
    if method == "normal":
        stat = ordinal_statistic(alpha, (0, 1))
        mean, var = ordinal_moments(stat, signscore_u_plus(margins), margins, model)
    rates = [0.0] * len(nominal)
    for t in omega_q(n, rows):
        t_obs = sum(a * x for a, x in zip(alpha, t))
        if method == "exact":
            p = signscore_tail(alpha, rows, n, weights, t_obs)
        else:
            p = 0.5 * math.erfc((t_obs - mean) / math.sqrt(var) / math.sqrt(2.0))
        prob = mvehg_pmf(t, rows, n, weights)
        for k, g in enumerate(nominal):
            if p <= g:
                rates[k] += prob
    return rates


def monte_carlo_size(seed, margins, model, alpha, nominal, iterations, method):
    """P(p <= g) estimated from draws of the null law, one p-value per draw."""
    weights = [model.gamma * b for b in model.bias]
    support = np.array(list(omega_q(margins.cols[1], margins.rows)))
    probs = np.array([mvehg_pmf(t, margins.rows, margins.cols[1], weights) for t in support])
    tvals = support @ np.asarray(alpha, dtype=float)
    if method == "normal":
        stat = ordinal_statistic(alpha, (0, 1))
        mean, var = ordinal_moments(stat, signscore_u_plus(margins), margins, model)
    rng = np.random.default_rng([seed, 0])
    draws = rng.choice(len(support), p=probs / probs.sum(), size=iterations)
    pvals = np.empty(iterations)
    for it in range(iterations):
        t_obs = tvals[draws[it]]
        if method == "exact":
            pvals[it] = probs[tvals >= t_obs - statistic_tolerance(t_obs)].sum()
        else:
            pvals[it] = 0.5 * math.erfc((t_obs - mean) / math.sqrt(var) / math.sqrt(2.0))
    return [float(np.mean(pvals <= g)) for g in nominal]


@pytest.mark.parametrize("method", ["exact", "normal"])
@pytest.mark.parametrize("margins,model", SIZE_CASES)
def test_size_curve_is_the_pointwise_sum_over_the_null_law(margins, model, method):
    rates = size_curve(margins, model, (0, 1, 2), NOMINAL)[method]
    want = pointwise_size(margins, model, (0, 1, 2), NOMINAL, method)
    np.testing.assert_allclose(rates, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("method", ["exact", "normal"])
@pytest.mark.parametrize("margins,model", SIZE_CASES[1:4:2])
def test_size_curve_with_tied_scores_is_the_pointwise_sum(margins, model, method):
    # alpha (0, 1, 1) gives many support points one T, so one p-value each
    rates = size_curve(margins, model, (0, 1, 1), NOMINAL)[method]
    want = pointwise_size(margins, model, (0, 1, 1), NOMINAL, method)
    np.testing.assert_allclose(rates, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("margins,model", SIZE_CASES)
def test_size_curve_exact_is_super_uniform(margins, model):
    rates = size_curve(margins, model, (0, 1, 2), NOMINAL)["exact"]
    assert all(r <= g + 1e-12 for g, r in zip(NOMINAL, rates))


@pytest.mark.parametrize("method", ["exact", "normal"])
def test_size_curve_matches_monte_carlo(method):
    margins, model = SIZE_CASES[0]
    iterations = 4000
    rates = size_curve(margins, model, (0, 1, 2), NOMINAL)[method]
    got = monte_carlo_size(123, margins, model, (0, 1, 2), NOMINAL, iterations, method)
    for r, mc in zip(rates, got):
        assert abs(mc - r) <= 4 * math.sqrt(r * (1 - r) / iterations) + 1e-12


def test_sample_rows_deterministic_when_probability_concentrates(rng):
    # a huge interaction weight pushes each row's conditional mass onto one cell
    dgp = LogLinearDGP(0.0, (0.0,) * 3, (0.0,) * 3, 60.0, (0, 1, 2), (0, 1, 2),
                       (4, 4, 4))
    t = sample_table_fixed_treatment(rng, dgp)
    arr = t.as_array()
    assert arr[2, 2] == 4 and arr[1, 2] == 4  # all mass at the top outcome


def test_size_curve_gamma_zero_super_uniform():
    margins = Margins((8, 6, 6), (8, 12))
    model = SensitivityModel(gamma=0.0, delta=(0, 0, 1))
    nominal = [0.1, 0.3, 0.5, 0.9]
    rates = size_curve(margins, model, (0, 1, 2), nominal)["exact"]
    for nom, rate in zip(nominal, rates):
        assert rate <= nom + 3 * math.sqrt(nom * (1 - nom) / 1000)
