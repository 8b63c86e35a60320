"""Candidate sets and worst-case search."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import exactsens.exactdist as exactdist
from exactsens.exactdist import (
    RejectionAggregate,
    brute_force_alpha,
    exact_alpha,
    exact_alpha_grid,
    kernel_alpha,
    signscore_tail,
)
from exactsens.moments import cell_moments, dist_q
from exactsens.moments import test_moments as ordinal_moments
from exactsens.montecarlo import estimate_alpha_permtreat, estimate_alpha_sis
from exactsens.oracle import _random_margins
from exactsens.sensmodel import ConfounderClass, RawConfounder, SensitivityError, SensitivityModel
from exactsens.stats import TestFamily as Family  # avoid pytest class collection
from exactsens.stats import TestStatistic as Statistic
from exactsens.stats import (
    cell_statistic,
    chi2_statistic,
    ordinal_statistic,
    permutation_invariant_statistic,
    weighted_sum_statistic,
)
from exactsens.simulate import LogLinearDGP, PowerTestSpec, power_curve, size_curve
from exactsens.stratified import StratifiedStudy, stratified_worst_case_grid
from exactsens.tables import ContingencyTable, Margins, enumerate_fixed_margin_array
from exactsens.worstcase import (
    _ordinal_classes,
    _pi_classes,
    _signscore_pvalues,
    candidates_ordinal,
    candidates_pi,
    signscore_u_plus,
    worst_case_grid,
    worst_case_multi_delta,
    worst_case_pvalue,
)

GIRLS = ContingencyTable.from_array([[12, 3, 0], [18, 12, 3], [17, 25, 4]])
BOYS = ContingencyTable.from_array([[10, 8, 1], [29, 11, 3], [20, 24, 6]])
PRIOR = dict(alpha=(0, 0.25, 1.5), beta=(0, 1, 1.5))


def test_pi_candidate_counts():
    assert len(list(candidates_pi(Margins((1, 1), (1, 1))))) == 4
    m = Margins((5, 5, 5), (2, 5, 8))
    cands = list(candidates_pi(m))
    assert len(cands) == 3 * 6 * 9 == 162
    assert len(set(c.ubar for c in cands)) == 162
    assert len(cands) <= m.N ** m.J


@pytest.mark.parametrize("cols", [(3, 5, 10), (2, 0, 3), (0, 4, 1, 0), (6, 0)])
def test_class_arrays_match_their_loops(cols):
    # the candidate loops the class arrays replace, empty outcome levels included
    m = Margins((sum(cols) - 1, 1), cols)
    spilled = []
    for k in range(m.N + 1):
        ubar, rem = [0] * m.J, k
        for j in range(m.J - 1, -1, -1):
            ubar[j] = min(rem, cols[j])
            rem -= ubar[j]
        spilled.append(ubar)
    assert _ordinal_classes(m).tolist() == spilled
    assert _pi_classes(m).tolist() == [list(u) for u in itertools.product(
        *(range(c + 1) for c in cols))]
    assert [c.ubar for c in candidates_ordinal(m)] == [tuple(u) for u in spilled]


def test_ordinal_candidates_spill_down():
    m = Margins((6, 6, 6), (3, 5, 10))
    cands = list(candidates_ordinal(m))
    assert len(cands) == m.N + 1
    by_k = {sum(c.ubar): c.ubar for c in cands}
    assert by_k[5] == (0, 0, 5)
    assert by_k[10] == (0, 0, 10)
    assert by_k[14] == (0, 4, 10)
    assert by_k[0] == (0, 0, 0)
    assert by_k[18] == (3, 5, 10)


def test_signscore_u_plus():
    assert signscore_u_plus(Margins((60, 10, 20), (15, 75))).ubar == (0, 75)
    assert signscore_u_plus(Margins((1, 1), (1, 1))).ubar == (0, 1)
    with pytest.raises(ValueError):
        signscore_u_plus(Margins((2, 2), (1, 2, 1)))


def test_worst_case_girls_row():
    model = SensitivityModel(gamma=0.0, delta=(0, 1, 1))
    stat = ordinal_statistic(**PRIOR)
    for G, want in [(1.0, 0.006), (2.0, 0.028), (3.0, 0.054)]:
        res = worst_case_pvalue(stat, GIRLS, model.with_gamma(math.log(G)))
        assert round(res.pvalue, 3) == want
        assert res.candidates_scanned == GIRLS.N + 1


def test_worst_case_boys_row():
    stat = ordinal_statistic(**PRIOR)
    for G, want in [(1.0, 0.013), (2.0, 0.056)]:
        model = SensitivityModel(gamma=math.log(G), delta=(0, 1, 1))
        res = worst_case_pvalue(stat, BOYS, model)
        assert round(res.pvalue, 3) == want


def test_gamma_one_reduces_to_randomization_p():
    t = ContingencyTable.from_array([[2, 1, 0], [1, 1, 1], [0, 1, 2]])
    stat = ordinal_statistic((0, 1, 2), (0, 1, 2))
    model = SensitivityModel(gamma=0.0, delta=(0, 1, 1))
    res = worst_case_pvalue(stat, t, model)
    base = exact_alpha(stat, t, ConfounderClass((0, 0, 0)), model)
    assert res.pvalue == pytest.approx(base, rel=1e-12)
    # every candidate is equal, so the lex-smallest class is reported
    assert res.argmax_class.ubar == (0, 0, 0)


def test_ordinal_equals_pi_scan(rng):
    # ordinal candidate set cannot miss the permutation-invariant maximum
    for _ in range(20):
        N = int(rng.integers(5, 11))
        I = int(rng.integers(2, 4))
        J = int(rng.integers(2, 4))
        m = _random_margins(rng, N, I, J)
        arr = None
        from exactsens.tables import enumerate_fixed_margin_array

        tabs = enumerate_fixed_margin_array(m)
        arr = tabs[rng.integers(0, len(tabs))]
        t = ContingencyTable.from_array(arr)
        alpha = tuple(np.sort(rng.uniform(0, 2, size=I)))
        beta = tuple(np.sort(rng.uniform(0, 2, size=J)))
        stat = ordinal_statistic(alpha, beta)
        deltas = [(0,) * (I - 1) + (1,), (0,) + (1,) * (I - 1)]
        gamma = float(rng.uniform(0.2, 1.5))
        for delta in deltas:
            model = SensitivityModel(gamma=gamma, delta=delta)
            r_ord = worst_case_pvalue(stat, t, model, strategy="ordinal")
            r_pi = worst_case_pvalue(stat, t, model, strategy="pi")
            assert r_ord.pvalue == pytest.approx(r_pi.pvalue, rel=1e-11)


def test_signscore_closed_form_attains_full_scan(rng):
    for _ in range(10):
        N = int(rng.integers(5, 11))
        m = _random_margins(rng, N, 3, 2)
        from exactsens.tables import enumerate_fixed_margin_array

        tabs = enumerate_fixed_margin_array(m)
        t = ContingencyTable.from_array(tabs[rng.integers(0, len(tabs))])
        stat = ordinal_statistic((0, 1, 2), (0, 1))
        model = SensitivityModel(gamma=float(rng.uniform(0.2, 2.0)), delta=(0, 1, 1))
        r_ss = worst_case_pvalue(stat, t, model, strategy="signscore")
        r_pi = worst_case_pvalue(stat, t, model, strategy="pi")
        assert r_ss.pvalue == pytest.approx(r_pi.pvalue, rel=1e-10)
        assert r_ss.argmax_class.ubar == (0, m.cols[1])


def test_gamma_monotonicity():
    stat = ordinal_statistic(**PRIOR)
    model = SensitivityModel(gamma=0.0, delta=(0, 1, 1))
    gammas = [math.log(g) for g in (1.0, 1.5, 2.0, 2.5, 3.0)]
    res = worst_case_grid(stat, GIRLS, model, gammas)
    ps = [r.pvalue for r in res]
    assert all(a <= b + 1e-12 for a, b in zip(ps, ps[1:]))


def test_reproducibility():
    stat = ordinal_statistic(**PRIOR)
    model = SensitivityModel(gamma=math.log(2), delta=(0, 1, 1))
    r1 = worst_case_pvalue(stat, GIRLS, model)
    r2 = worst_case_pvalue(stat, GIRLS, model)
    assert r1 == r2


def test_multi_delta():
    stat = ordinal_statistic(**PRIOR)
    gamma = math.log(2)
    single = worst_case_pvalue(stat, GIRLS, SensitivityModel(gamma=gamma, delta=(0, 1, 1)))
    multi1 = worst_case_multi_delta(stat, GIRLS, gamma, [(0, 1, 1)])
    assert multi1.pvalue == single.pvalue
    multi2 = worst_case_multi_delta(stat, GIRLS, gamma, [(0, 1, 1), (0, 1, 1)])
    assert multi2.pvalue == single.pvalue
    both = worst_case_multi_delta(stat, GIRLS, gamma, [(0, 1, 1), (0, 0, 1)])
    p2 = worst_case_pvalue(stat, GIRLS, SensitivityModel(gamma=gamma, delta=(0, 0, 1)))
    assert both.pvalue == pytest.approx(max(single.pvalue, p2.pvalue))
    assert both.delta in ((0, 1, 1), (0, 0, 1))
    with pytest.raises(ValueError):
        worst_case_multi_delta(stat, GIRLS, gamma, [])


def test_multi_delta_refuses_fractional_entries():
    # truncating 1.7 to 1 would answer for another bias vector
    stat = ordinal_statistic(**PRIOR)
    with pytest.raises(ValueError, match="delta must hold integers"):
        worst_case_multi_delta(stat, GIRLS, 0.5, [(0, 1.7, 1)])
    got = worst_case_multi_delta(stat, GIRLS, 0.5, [(0, 1.0, np.int64(1))])
    assert got.delta == (0, 1, 1) and all(type(v) is int for v in got.delta)


def test_dose_model_refusals():
    stat = ordinal_statistic((0, 1, 2), (0, 1, 2))
    t = ContingencyTable.from_array([[2, 1, 0], [1, 1, 1], [0, 1, 2]])
    model = SensitivityModel(gamma=1.0, phi=(1.0, 2.0, 3.0))
    with pytest.raises(SensitivityError):
        worst_case_pvalue(stat, t, model)
    # sign-score family with binary outcome accepts dose vectors
    t2 = ContingencyTable.from_array([[2, 1], [1, 1], [0, 2]])
    stat2 = ordinal_statistic((0, 1, 2), (0, 1))
    res = worst_case_pvalue(stat2, t2, model)
    assert 0 <= res.pvalue <= 1


def test_strategy_family_mismatch():
    stat = chi2_statistic()
    t = ContingencyTable.from_array([[2, 1], [1, 2]])
    model = SensitivityModel(gamma=0.5, delta=(0, 1))
    with pytest.raises(SensitivityError):
        worst_case_pvalue(stat, t, model, strategy="ordinal")
    res = worst_case_pvalue(stat, t, model, strategy="pi")
    assert 0 <= res.pvalue <= 1
    # the sign-score corner is the worst case only for sign-score statistics:
    # here it would report 0.1726 (cell) and 0.154 (weighted sum) against
    # true worst cases of 0.9020 and 0.842
    t3 = ContingencyTable.from_array([[6, 4], [4, 2], [2, 1]])
    model3 = SensitivityModel(gamma=1.0, delta=(0, 1, 1))
    for other in (cell_statistic(0, 1), weighted_sum_statistic((2, 0, 1), (0, 1)),
                  chi2_statistic()):
        with pytest.raises(SensitivityError, match="sign-score statistic"):
            worst_case_pvalue(other, t3, model3, strategy="signscore")
        assert worst_case_pvalue(other, t3, model3).family_used is other.family
    # nor does it hold for a sign-score statistic with non-monotone bias
    with pytest.raises(SensitivityError, match="monotone bias"):
        worst_case_pvalue(ordinal_statistic((0, 1, 2), (0, 1)), t3,
                          SensitivityModel(gamma=1.0, delta=(1, 0, 1)), strategy="signscore")


def test_aggregate_no_mask_consistency():
    # with critical below the support minimum every class gives alpha = 1
    t = ContingencyTable.from_array([[2, 1], [1, 2]])
    stat = ordinal_statistic((0, 1), (0, 1))
    agg = RejectionAggregate(t.margins(), stat, -100.0, (0, 1))
    for c in candidates_pi(t.margins()):
        for g in (0.0, 1.3):
            assert agg.alpha_grid(c, [g])[0] == pytest.approx(1.0, abs=1e-12)

def test_collapsed_variant_pvalues_from_study_tables():
    # coarsened-test p-values derived from the two study tables; each variant
    # runs the closed-form sign-score worst case after its transform
    from exactsens.simulate import standard_test_suite

    suite = {s.name: s for s in standard_test_suite((0, 0.25, 1.5), (0, 1, 1.5), (0, 1, 1))}
    expected = {
        # (table, variant) -> (p at Gamma=1, p at Gamma=3)
        ("girls", "3x2-v1"): (0.287, 0.495),
        ("boys", "3x2-v1"): (0.188, 0.356),
        ("girls", "3x2-v2"): (0.004, 0.050),
        ("girls", "2x2-v1"): (0.283, 0.633),
        ("boys", "2x2-v1"): (0.466, 0.860),
        ("girls", "2x2-v2"): (0.011, 0.343),
        ("boys", "2x2-v2"): (0.602, 0.993),
        ("girls", "crosscut"): (0.146, 0.460),
    }
    tables = {"girls": GIRLS, "boys": BOYS}
    for (which, name), (want1, want3) in expected.items():
        spec = suite[name]
        tt = spec.transform(tables[which])
        stat = spec.statistic()
        for G, want in ((1.0, want1), (3.0, want3)):
            model = SensitivityModel(gamma=math.log(G), delta=spec.delta)
            res = worst_case_pvalue(stat, tt, model)
            assert round(res.pvalue, 3) == want, (which, name, G, res.pvalue)


SIGNSCORE_TABLE = ContingencyTable.from_array([[7, 3], [5, 6], [2, 9]])


def test_signscore_grid_evaluates_the_statistic_once():
    calls = []

    class Counting(Statistic):
        def evaluate_batch(self, tables):
            calls.append(len(tables))
            return super().evaluate_batch(tables)

    base = ordinal_statistic((0, 1, 2), (0, 1))
    stat = Counting(base.family, base.name, alpha=base.alpha, beta=base.beta,
                    cell_terms=base.cell_terms)
    model = SensitivityModel(gamma=0.0, delta=(0, 1, 1))
    # critical given (T of the table), so the one counted call is the support's
    res = worst_case_grid(stat, SIGNSCORE_TABLE, model, [0.0, 0.5, 1.0], critical=24.0)
    assert len(res) == 3 and len(calls) == 1
    assert {r.family_used for r in res} == {Family.SIGN_SCORE}


@pytest.mark.parametrize("model", [
    SensitivityModel(gamma=0.0, delta=(0, 1, 1)),
    SensitivityModel(gamma=0.0, phi=(0.0, 0.5, 1.0)),
])
def test_signscore_grid_equals_single_gamma_calls(model):
    alpha = (0.0, 1.0, 2.5)
    stat = ordinal_statistic(alpha, (0, 1))
    m = SIGNSCORE_TABLE.margins()
    critical = stat(SIGNSCORE_TABLE)
    gammas = [0.0, 0.25, 0.5, 1.0, 2.0]
    grid = worst_case_grid(stat, SIGNSCORE_TABLE, model, gammas)
    for g, res in zip(gammas, grid):
        one = worst_case_pvalue(stat, SIGNSCORE_TABLE, model.with_gamma(g))
        assert res == one  # bit for bit, class and counts included
        assert res.argmax_class.ubar == (0, m.cols[1])
        weights = [g * b for b in model.bias]
        assert res.pvalue == pytest.approx(
            signscore_tail(alpha, m.rows, m.cols[1], weights, critical), rel=1e-12)


@pytest.mark.parametrize("model", [
    SensitivityModel(gamma=0.0, delta=(0, 1, 1)),
    SensitivityModel(gamma=0.0, phi=(0.0, 0.5, 1.0)),
])
def test_signscore_pvalues_of_many_criticals_equal_one_critical_calls(model):
    # the power study reads one law at every draw's critical value: each
    # column must equal a one-critical call and worst_case_grid bit for bit
    stat = ordinal_statistic((0.0, 1.0, 2.5), (0, 1))
    m = SIGNSCORE_TABLE.margins()
    gammas = [0.0, 0.25, 1.0, 2.0]
    criticals = [stat(SIGNSCORE_TABLE), -1.0, 0.0, 7.5, 10.0, 10.0 + 1e-12, 17.0, 30.0, 45.0]
    both = _signscore_pvalues(stat, m.rows, m.cols[1], model.bias, gammas, criticals)
    assert both.shape == (len(gammas), len(criticals))
    for k, c in enumerate(criticals):
        one = _signscore_pvalues(stat, m.rows, m.cols[1], model.bias, gammas, [c])
        assert one.tolist() == both[:, [k]].tolist()
        grid = worst_case_grid(stat, SIGNSCORE_TABLE, model, gammas, critical=c)
        assert [r.pvalue for r in grid] == np.minimum(both[:, k], 1.0).tolist()
        assert {r.strategy_used for r in grid} == {"signscore"}


# keys of different rows, as the power study's cross-cut makes; with alpha
# (0, 1) and no tilt, T >= 400 on rows (400, 400) and n = 400 has mass
# 1 / C(800, 400), about 1e-240, next to tails near 1
MULTI_KEYS = [((400, 400), 400), ((5, 7), 6), ((12, 9), 10), ((400, 400), 3), ((5, 7), 0)]
MULTI_DRAWS = [(0, 400.0), (1, 2.0), (0, 1.0), (2, 9.0), (3, 1.0), (1, 6.0), (0, 0.0),
               (4, 0.0), (2, 0.5), (0, 399.0), (3, 3.0)]


@pytest.mark.parametrize("weights", [[0.0, 0.0], [[0.0, 0.0], [0.0, 0.5], [-1.0, 3.0]]])
def test_mvehg_laws_of_many_keys_equal_one_key_calls(weights):
    rows = [r for r, _ in MULTI_KEYS]
    totals = [n for _, n in MULTI_KEYS]
    support, starts, probs = exactdist._mvehg_laws(rows, totals, weights)
    assert probs.shape == np.shape(weights)[:-1] + (len(support),)
    for k, (r, n) in enumerate(MULTI_KEYS):
        one_support, one = exactdist._mvehg_law(r, n, weights)
        a, b = starts[k], starts[k + 1]
        assert support[a:b].tolist() == one_support.tolist()
        assert probs[..., a:b].tolist() == one.tolist()
    with pytest.raises(ValueError, match="empty support"):
        exactdist._mvehg_laws([(5, 7), (2, 2)], [3, 5], [0.0, 1.0])


@pytest.mark.parametrize("chunk", [None, 1])
def test_signscore_pvalues_of_many_keys_equal_one_key_calls(chunk, monkeypatch):
    # each draw's tail is read from its own key's law, never a suffix sum
    # across keys: the 1e-240 tail stays exact next to tails near 1
    if chunk is not None:  # one key per law pass
        monkeypatch.setattr("exactsens.worstcase._CHUNK_BYTES", chunk)
    stat = ordinal_statistic((0.0, 1.0), (0, 1))
    gammas = [0.0, 0.5, 2.0]
    rows = [r for r, _ in MULTI_KEYS]
    totals = [n for _, n in MULTI_KEYS]
    key, crits = zip(*MULTI_DRAWS)
    got = _signscore_pvalues(stat, rows, totals, (0, 1), gammas, crits, np.array(key))
    assert got.shape == (len(gammas), len(MULTI_DRAWS))
    for m, (k, c) in enumerate(MULTI_DRAWS):
        r, n = MULTI_KEYS[k]
        one = _signscore_pvalues(stat, r, n, (0, 1), gammas, [c])
        assert got[:, [m]].tolist() == one.tolist()
    assert 0 < got[0, 0] < 1e-200 and got[0, 0] == pytest.approx(1 / math.comb(800, 400))
    assert 0.999 < got[0, 8] < 1 and got[0, 2] == got[0, 6] == 1.0


def test_grids_refuse_non_finite_or_negative_gamma():
    model = SensitivityModel(gamma=0.0, delta=(0, 1, 1))
    ordinal = ordinal_statistic((0, 1, 2), (0, 1, 2))
    signscore = ordinal_statistic((0, 1, 2), (0, 1))
    for bad in (math.nan, math.inf, -0.5):
        with pytest.raises(ValueError, match="finite and >= 0"):
            worst_case_grid(signscore, SIGNSCORE_TABLE, model, [0.0, bad])
        with pytest.raises(ValueError, match="finite and >= 0"):
            worst_case_grid(ordinal, GIRLS, model, [bad])
        with pytest.raises(ValueError, match="finite and >= 0"):
            exact_alpha_grid(ordinal, GIRLS, ConfounderClass((0, 0, 7)), model, [0.0, bad])


def test_signscore_grid_holds_no_memory_after_the_call():
    # the MVEHG support (about 3e5 points here) lives only for the call
    table = ContingencyTable.from_array([[400, 240], [320, 320], [240, 400]])
    stat = ordinal_statistic((0, 1, 2), (0, 1))
    model = SensitivityModel(gamma=0.0, delta=(0, 1, 1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = worst_case_grid(stat, table, model, [0.0, 0.5, 1.0])
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(res) == 3
    assert abs(after - before) < 1 << 20


# ------------------------------------------------------- ordinal suffix sweep


def _ordinal_aggregate(arr, delta, critical=None):
    t = ContingencyTable.from_array(arr)
    m = t.margins()
    stat = ordinal_statistic(tuple(range(m.I)), tuple(range(m.J)))
    return RejectionAggregate(m, stat, stat(t) if critical is None else critical, delta)


def _assert_same_alphas(sweep, table):
    assert sweep.shape == table.shape
    np.testing.assert_array_equal(sweep == 0, table == 0)
    np.testing.assert_allclose(sweep, table, rtol=1e-12, atol=0)


@pytest.mark.parametrize("J", [2, 3, 4, 5])
@pytest.mark.parametrize("I", [2, 3, 4])
def test_suffix_sweep_equals_alpha_table(rng, I, J):
    gammas = [0.0, 0.5, 2.0, 6.0, 100.0, 700.0]
    for _ in range(3):
        m = _random_margins(rng, int(rng.integers(max(I, J) + 2, 15)), I, J)
        tables = enumerate_fixed_margin_array(m)
        t = tables[rng.integers(0, len(tables))]
        stat = ordinal_statistic(tuple(np.sort(rng.uniform(0, 2, size=I))),
                                 tuple(np.sort(rng.uniform(0, 2, size=J))))
        delta = tuple(int(v) for v in rng.integers(0, 2, size=I))
        agg = RejectionAggregate(m, stat, stat(t), delta)
        _assert_same_alphas(agg.suffix_alpha_table(gammas),
                            agg.alpha_table(_ordinal_classes(m), gammas))


@pytest.mark.parametrize("arr", [
    [[3, 0, 2], [1, 0, 4]], [[0, 3, 2], [0, 1, 4]], [[3, 2, 0], [1, 4, 0]],
    [[2, 0, 1, 0], [1, 0, 3, 0]],
], ids=["middle", "first", "last", "two"])
def test_suffix_sweep_with_an_empty_outcome_column(arr):
    gammas = [0.0, 1.0, 6.0]
    agg = _ordinal_aggregate(arr, (0, 1))
    _assert_same_alphas(agg.suffix_alpha_table(gammas),
                        agg.alpha_table(_ordinal_classes(agg.margins), gammas))
    t = ContingencyTable.from_array(arr)
    stat = ordinal_statistic(tuple(range(t.I)), tuple(range(t.J)))
    model = SensitivityModel(gamma=1.0, delta=(0, 1))
    ordinal = worst_case_grid(stat, t, model, gammas, strategy="ordinal")
    full = worst_case_grid(stat, t, model, gammas, strategy="pi")
    for a, b in zip(ordinal, full):
        assert a.pvalue == pytest.approx(b.pvalue, rel=1e-11)


def test_suffix_sweep_when_nothing_is_rejected():
    arr = [[4, 2, 1], [1, 3, 4]]
    agg = _ordinal_aggregate(arr, (0, 1), critical=1e9)
    assert agg.nrejected == 0
    assert not agg.suffix_alpha_table([0.0, 2.0]).any()
    t = ContingencyTable.from_array(arr)
    stat = ordinal_statistic((0, 1), (0, 1, 2))
    for res in worst_case_grid(stat, t, SensitivityModel(gamma=0.0, delta=(0, 1)),
                               [0.0, 2.0], critical=1e9, strategy="ordinal"):
        assert res.pvalue == 0.0
        assert res.argmax_class.ubar == (0, 0, 0)  # the first class


# the 5-column table, and a wide one whose per-class profiles are large
SWEEP_MEMORY_CASES = [
    ([[10, 10, 10, 9, 8], [10, 10, 10, 9, 9]], (0, 1)),
    ([[70, 80], [75, 75], [75, 75]], (0, 1, 1)),
]


@pytest.mark.parametrize("arr, delta", SWEEP_MEMORY_CASES, ids=["five-columns", "wide"])
def test_suffix_sweep_peak_memory_within_alpha_table(arr, delta):
    gammas = [0.0, 1.0, 3.0, 6.0]
    agg = _ordinal_aggregate(arr, delta)
    classes = _ordinal_classes(agg.margins)

    def peak(scan):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = scan()
            return out, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    agg.suffix_alpha_table(gammas)  # fills the shared normalizer and factorial caches
    sweep, sweep_peak = peak(lambda: agg.suffix_alpha_table(gammas))
    table, table_peak = peak(lambda: agg.alpha_table(classes, gammas))
    assert sweep_peak <= table_peak
    _assert_same_alphas(sweep, table)


def test_suffix_sweep_tail_sums_no_more_terms_than_alpha_table(monkeypatch):
    # a 100-point grid at 4x4 margins 8: the log-sum-exp tail dominates both
    # scans there, and the sweep's chunks keep only their reachable d
    agg = _ordinal_aggregate([[2] * 4] * 4, (0, 0, 1, 1))
    classes = _ordinal_classes(agg.margins)
    gammas = np.linspace(0.0, 3.0, 100)
    terms = []
    logsumexp = exactdist.logsumexp

    def counting(a, axis=None):
        terms.append(np.size(a))
        return logsumexp(a, axis)

    monkeypatch.setattr(exactdist, "logsumexp", counting)
    agg.alpha_table(classes, gammas)
    table_terms, terms[:] = sum(terms), []
    agg.suffix_alpha_table(gammas)
    assert sum(terms) <= table_terms


def _counting_logsumexp(monkeypatch):
    """A list that gets the input size of every ``exactdist.logsumexp`` call."""
    calls = []
    logsumexp = exactdist.logsumexp

    def counting(a, axis=None):
        calls.append(np.size(a))
        return logsumexp(a, axis)

    monkeypatch.setattr(exactdist, "logsumexp", counting)
    return calls


def test_suffix_sweep_tilts_once(monkeypatch):
    # a power-suite draw: 3 x 3, ten subjects per treatment level, gammas 0
    # and 1; every column's chunks are tilted by one log-sum-exp together
    agg = _ordinal_aggregate([[6, 3, 1], [3, 4, 3], [1, 4, 5]], (0, 1, 1))
    gammas = [0.0, 1.0]
    want = agg.alpha_table(_ordinal_classes(agg.margins), gammas)  # fills the normalizer cache
    calls = _counting_logsumexp(monkeypatch)
    _assert_same_alphas(agg.suffix_alpha_table(gammas), want)
    assert len(calls) == 1


@pytest.mark.parametrize("arr, delta", [
    ([[6, 3, 1], [3, 4, 3], [1, 4, 5]], (0, 1, 1)),
    ([[5, 0, 2, 3], [1, 3, 2, 4], [2, 2, 3, 1]], (0, 0, 1)),
    ([[10, 10, 10, 9, 8], [10, 10, 10, 9, 9]], (0, 1)),
], ids=["3x3", "3x4", "2x5"])
def test_suffix_sweep_tilts_in_parts_within_a_small_budget(monkeypatch, arr, delta):
    # a budget below one column's numerators makes the sweep tilt what it
    # holds before each new chunk; the alphas are those of the default budget
    agg = _ordinal_aggregate(arr, delta)
    gammas = [0.0, 0.5, 2.0, 6.0]
    want = agg.suffix_alpha_table(gammas)  # also fills the normalizer cache
    calls = _counting_logsumexp(monkeypatch)
    monkeypatch.setattr(exactdist, "_CHUNK_BYTES", 4096)
    got = agg.suffix_alpha_table(gammas)
    assert len(calls) > agg.margins.J
    np.testing.assert_array_equal(got == 0, want == 0)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("strategy, calls", [("ordinal", 0), ("pi", 1)])
def test_ordinal_scan_takes_the_suffix_sweep(monkeypatch, strategy, calls):
    counted = []
    alpha_table = RejectionAggregate.alpha_table

    def counting(self, classes, gammas):
        counted.append(len(classes))
        return alpha_table(self, classes, gammas)

    monkeypatch.setattr(RejectionAggregate, "alpha_table", counting)
    table = ContingencyTable.from_array([[3, 1, 0], [2, 2, 1], [1, 2, 3]])
    res = worst_case_grid(ordinal_statistic(*PRIOR.values()), table,
                          SensitivityModel(gamma=0.0, delta=(0, 1, 1)), [0.0, 1.0],
                          strategy=strategy)
    assert len(counted) == calls
    assert {r.strategy_used for r in res} == {strategy}


# every p-value path on one 2 x 2 table, whose sign-score statistic suits
# all three scan strategies; the oracle and PermTreat get subject-level data
_SMALL = ContingencyTable.from_array([[2, 1], [1, 2]])
_SMALL_MODEL = SensitivityModel(gamma=0.5, delta=(0, 1))
_SMALL_U = RawConfounder((0.0, 0.0, 1.0, 0.0, 1.0, 1.0))
_SMALL_OUTCOMES = (0, 0, 0, 1, 1, 1)
_P_VALUE_PATHS = {
    **{strategy: lambda stat, c, strategy=strategy: worst_case_grid(
        stat, _SMALL, _SMALL_MODEL, [0.0, 1.0], c, strategy)
       for strategy in ("ordinal", "pi", "signscore")},
    "exact": lambda stat, c: exact_alpha(stat, _SMALL, ConfounderClass((1, 2)), _SMALL_MODEL, c),
    "kernel": lambda stat, c: kernel_alpha(stat, _SMALL, ConfounderClass((1, 2)), _SMALL_MODEL, c),
    "oracle": lambda stat, c: brute_force_alpha(
        stat, _SMALL, _SMALL_U, _SMALL_OUTCOMES, _SMALL_MODEL, c),
    "sis": lambda stat, c: estimate_alpha_sis(
        1, stat, _SMALL, ConfounderClass((1, 2)), _SMALL_MODEL, c, M=10),
    "permtreat": lambda stat, c: estimate_alpha_permtreat(
        1, stat, _SMALL, _SMALL_U, _SMALL_OUTCOMES, _SMALL_MODEL, c, M=10),
}


@pytest.mark.parametrize("path", sorted(_P_VALUE_PATHS))
@pytest.mark.parametrize("critical", ["nan", "inf", "nan statistic"])
def test_non_finite_critical_values_are_refused(path, critical):
    # a nan or infinite critical value rejects no table, so each path must
    # refuse it rather than report p = 0
    stat = ordinal_statistic((0, 1), (0, 1))
    c = float(critical) if critical != "nan statistic" else None
    if c is None:
        stat = permutation_invariant_statistic(lambda a: float("nan"))
    with pytest.raises(ValueError, match="critical value must be finite"):
        _P_VALUE_PATHS[path](stat, c)


def test_large_ordinal_scan_keeps_the_flat_gamma_one_tie():
    # rows (600, 600), observed in the upper tail: at Gamma = 1 every suffix
    # class has the same alpha, so the first class must win the tie, which
    # denominator errors near _TIE_REL move (log-factorial ones give (0, 0, 21))
    s, k = 200, 40
    table = ContingencyTable.from_array([[s + k, s, s - k], [s - k, s, s + k]])
    res = worst_case_grid(ordinal_statistic((0, 1), (0, 1, 2)), table,
                          SensitivityModel(gamma=0.0, delta=(0, 1)), [0.0])
    assert res[0].strategy_used == "ordinal"
    assert res[0].argmax_class.ubar == (0, 0, 0)


# every entry point that checks a model against a table, on 3-row tables; on
# the J = 2 table worst_case_grid takes the sign-score strategy
_THREE = ContingencyTable.from_array([[2, 1, 0], [1, 1, 1], [0, 1, 2]])
_THREE_J2 = ContingencyTable.from_array([[2, 1], [1, 1], [0, 2]])
_THREE_STAT = ordinal_statistic((0, 1, 2), (0, 1, 2))
_THREE_CLASS = ConfounderClass((0, 1, 2))
_THREE_OUTCOMES, _THREE_U = _THREE_CLASS.subjects(_THREE.margins())
_BIAS_PATHS = {
    "exact_alpha": lambda model: exact_alpha(_THREE_STAT, _THREE, _THREE_CLASS, model),
    "kernel_alpha": lambda model: kernel_alpha(_THREE_STAT, _THREE, _THREE_CLASS, model),
    "brute_force_alpha": lambda model: brute_force_alpha(
        _THREE_STAT, _THREE, _THREE_U, _THREE_OUTCOMES, model),
    "permtreat": lambda model: estimate_alpha_permtreat(
        1, _THREE_STAT, _THREE, _THREE_U, _THREE_OUTCOMES, model, M=10),
    "sis_pair": lambda model: estimate_alpha_sis(
        1, _THREE_STAT, _THREE, _THREE_CLASS, model, M=10),
    "worst_case_grid_J2": lambda model: worst_case_grid(
        ordinal_statistic((0, 1, 2), (0, 1)), _THREE_J2, model, [0.5]),
    "worst_case_grid_J3": lambda model: worst_case_grid(_THREE_STAT, _THREE, model, [0.5]),
    "dist_q": lambda model: dist_q(_THREE_CLASS, _THREE.margins(), model),
    "cell_moments": lambda model: cell_moments(_THREE_CLASS, _THREE.margins(), model),
    "test_moments": lambda model: ordinal_moments(
        _THREE_STAT, _THREE_CLASS, _THREE.margins(), model),
    "size_curve": lambda model: size_curve(_THREE_J2.margins(), model, (0, 1, 2), [0.05]),
}
# paths whose computation factors through delta-block sums refuse a dose model first
_DOSE_REFUSED_FIRST = {"exact_alpha", "kernel_alpha", "sis_pair"}


@pytest.mark.parametrize("path", sorted(_BIAS_PATHS))
@pytest.mark.parametrize("name, bias", [
    ("delta", (0, 1)), ("delta", (0, 1, 1, 1)), ("phi", (0.0, 1.0)), ("phi", (0.0, 1.0, 2.0, 3.0)),
], ids=["delta-short", "delta-long", "phi-short", "phi-long"])
def test_every_entry_point_checks_the_bias_length(path, name, bias):
    # a bias one entry short or long once gave p = 0, an IndexError or a numpy
    # shape error, depending on the path
    model = SensitivityModel(gamma=0.5, **{name: bias})
    if name == "phi" and path in _DOSE_REFUSED_FIRST:
        with pytest.raises(SensitivityError):
            _BIAS_PATHS[path](model)
        return
    with pytest.raises(ValueError) as refused:
        _BIAS_PATHS[path](model)
    assert type(refused.value) is ValueError
    assert str(refused.value) == "bias length must match the number of treatment levels"


_J2_MODEL = SensitivityModel(gamma=0.0, delta=(0, 1, 1))
_J2_STAT = ordinal_statistic((0, 1, 2), (0, 1))
_EMPTY_GRID_PATHS = {
    **{strategy: lambda strategy=strategy: worst_case_grid(
        _J2_STAT, _THREE_J2, _J2_MODEL, [], strategy=strategy)
       for strategy in ("signscore", "ordinal", "pi")},
    "exact_alpha_grid": lambda: exact_alpha_grid(
        _J2_STAT, _THREE_J2, ConfounderClass((0, 3)), _J2_MODEL, []),
    "stratified_worst_case_grid": lambda: stratified_worst_case_grid(
        StratifiedStudy((_THREE_J2,), ((0, 1, 2),), ((0, 1),), _J2_MODEL), []),
    "power_curve": lambda: power_curve(
        1, LogLinearDGP(0.0, (0.0, 0.0), (0.0, 0.0), 1.0, (0.0, 1.0), (0.0, 1.0), (3, 3)),
        PowerTestSpec("2x2", (0.0, 1.0), (0.0, 1.0), (0, 1)), [], 1),
}


@pytest.mark.parametrize("path", sorted(_EMPTY_GRID_PATHS))
def test_every_grid_refuses_an_empty_gamma_grid(path):
    # an empty grid returned [] from the ordinal and pi scans and died in
    # numpy's stack on the sign-score one
    with pytest.raises(ValueError, match="^gamma grid must be non-empty$"):
        _EMPTY_GRID_PATHS[path]()
