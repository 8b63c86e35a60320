"""SIS proposal correctness and estimator consistency."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from exactsens.exactdist import brute_force_alpha, exact_alpha, kernel_q, kernel_t_q, omega_q
from exactsens.montecarlo import (
    _free_cells,
    _log_v_batch,
    _tilted_fill,
    estimate_alpha_permtreat,
    estimate_alpha_sis_pair,
    sis_log_proposal,
    sis_sample_batch,
)
from exactsens.sensmodel import ConfounderClass, RawConfounder, SensitivityModel
from exactsens.stats import ordinal_statistic
from exactsens.tables import (
    ContingencyTable,
    Margins,
    enumerate_fixed_margin_array,
    enumerate_fixed_margin_tables,
)


def test_proposal_sums_to_one():
    for m in [Margins((2, 2), (2, 2)), Margins((3, 2), (2, 1, 2)),
              Margins((2, 3, 2), (3, 2, 2))]:
        logs = [sis_log_proposal(m, t) for t in enumerate_fixed_margin_tables(m)]
        assert logsumexp(np.array(logs)) == pytest.approx(0.0, abs=1e-12)


def test_one_dof_proposal_weights():
    # margins (2,2) x (2,2): the single free cell is hypergeometric (1,4,1)/6
    m = Margins((2, 2), (2, 2))
    want = {0: 1 / 6, 1: 4 / 6, 2: 1 / 6}
    for t in enumerate_fixed_margin_tables(m):
        assert math.exp(sis_log_proposal(m, t)) == pytest.approx(
            want[t.counts[0][0]], rel=1e-12
        )


def test_forced_cells_have_zero_logprob():
    # a single-column-dominant margin forces every cell
    m = Margins((2, 2), (4,)) if False else Margins((2, 2), (3, 1))
    # the table with t[0][0]=2, t[0][1]=0 leaves no choice in row 1
    t = ContingencyTable.from_array([[2, 0], [1, 1]])
    lh = sis_log_proposal(m, t)
    assert np.isfinite(lh) and lh < 0
    # fully forced case: one feasible table only
    m1 = Margins((1, 1), (1, 1))
    tabs = list(enumerate_fixed_margin_tables(m1))
    probs = [math.exp(sis_log_proposal(m1, t)) for t in tabs]
    assert sum(probs) == pytest.approx(1.0, rel=1e-12)


def test_sampler_matches_scoring(rng):
    m = Margins((3, 3, 3), (4, 3, 2))
    tabs, log_h = sis_sample_batch(rng, m, 50)
    assert (tabs.sum(axis=2) == m.rows).all() and (tabs.sum(axis=1) == m.cols).all()
    for tab, lh in zip(tabs, log_h):
        assert sis_log_proposal(m, tab) == pytest.approx(lh, rel=1e-10)


def test_inverse_weight_count_estimator(rng):
    # mean of 1/h over proposals estimates the number of fixed-margin tables
    m = Margins((3, 3), (3, 3))
    ntables = len(list(enumerate_fixed_margin_tables(m)))
    tabs, log_h = sis_sample_batch(rng, m, 100_000)
    inv = np.exp(-log_h)
    est = inv.mean()
    se = inv.std() / math.sqrt(len(inv))
    assert abs(est - ntables) <= 3 * se


T86 = ContingencyTable.from_array([[2, 3, 0], [0, 1, 4], [0, 1, 4]])
STAT = ordinal_statistic((0, 1, 2), (0, 1, 2))


def test_sis_and_snsis_agree_with_exact():
    model = SensitivityModel(gamma=1.0, delta=(0, 1, 1))
    c = ConfounderClass((0, 0, 3))
    exact = exact_alpha(STAT, T86, c, model)
    finals_sis = []
    finals_sn = []
    for seed in range(30):
        sis, snsis = estimate_alpha_sis_pair(seed, STAT, T86, c, model, M=2000)
        finals_sis.append(sis.final)
        finals_sn.append(snsis.final)
    for finals in (finals_sis, finals_sn):
        err = np.mean(finals) - exact
        se = np.std(finals) / math.sqrt(len(finals))
        assert abs(err) <= 4 * se + 1e-4


def test_gamma_zero_sis_converges_to_randomization_p():
    model = SensitivityModel(gamma=0.0, delta=(0, 1, 1))
    c = ConfounderClass((0, 0, 0))
    exact = exact_alpha(STAT, T86, c, model)
    tr = estimate_alpha_sis_pair(3, STAT, T86, c, model, M=20_000)[0]
    assert tr.final == pytest.approx(exact, abs=0.02)


def test_trace_shape_and_determinism():
    model = SensitivityModel(gamma=0.6, delta=(0, 1, 1))
    c = ConfounderClass((0, 1, 3))
    t1 = estimate_alpha_sis_pair(11, STAT, T86, c, model, M=500)[1]
    t2 = estimate_alpha_sis_pair(11, STAT, T86, c, model, M=500)[1]
    assert len(t1.estimates) == 500
    assert t1.final == t1.estimates[-1]
    np.testing.assert_array_equal(t1.estimates, t2.estimates)
    with pytest.raises(ValueError):
        estimate_alpha_sis_pair(1, STAT, T86, c, model, M=0)


def test_snsis_degenerate_m1():
    model = SensitivityModel(gamma=0.6, delta=(0, 1, 1))
    c = ConfounderClass((0, 1, 3))
    tr = estimate_alpha_sis_pair(2, STAT, T86, c, model, M=1)[1]
    assert tr.final in (0.0, 1.0)  # single indicator


def test_permtreat_gamma_zero():
    model = SensitivityModel(gamma=0.0, delta=(0, 1, 1))
    outcomes = [0, 0, 1, 1, 1, 1, 1, 2] + [2] * 7
    u = RawConfounder((0.0,) * 15)
    crit = STAT(T86)
    tr = estimate_alpha_permtreat(7, STAT, T86, u, outcomes, model, crit, M=20_000)
    exact = exact_alpha(STAT, T86, ConfounderClass((0, 0, 0)),
                        SensitivityModel(gamma=0.0, delta=(0, 1, 1)))
    assert tr.final == pytest.approx(exact, abs=0.02)


def test_permtreat_matches_exact_small():
    # real-valued confounder, moderate gamma, generous sample size
    t = ContingencyTable.from_array([[2, 1], [1, 2]])
    stat = ordinal_statistic((0, 1), (0, 1))
    model = SensitivityModel(gamma=0.8, delta=(0, 1))
    outcomes = (0, 0, 0, 1, 1, 1)
    u = RawConfounder((0.0, 0.0, 1.0, 0.0, 1.0, 1.0))
    want = brute_force_alpha(stat, t, u, outcomes, model)
    tr = estimate_alpha_permtreat(5, stat, t, u, outcomes, model, M=60_000)
    assert tr.final == pytest.approx(want, abs=0.015)


def test_permtreat_takes_outcome_levels_from_the_table():
    # the top outcome level is empty, so max(outcome) + 1 undercounts J
    t = ContingencyTable.from_array([[1, 2, 0], [3, 1, 0]])
    stat = ordinal_statistic((0, 1), (0, 1, 2))
    model = SensitivityModel(gamma=1.0, delta=(0, 1))
    outcomes, u = ConfounderClass((1, 1, 0)).subjects(t.margins())
    want = brute_force_alpha(stat, t, u, outcomes, model)
    tr = estimate_alpha_permtreat(3, stat, t, u, outcomes, model, M=20_000)
    assert tr.final == pytest.approx(want, abs=0.015)


@pytest.mark.parametrize("outcomes, u, delta, message", [
    ((0, 0, 0, 1, 1), (0.0,) * 6, (0, 1), "must have length N"),
    ((0, 0, 0, 1, 1, 1), (0.0,) * 5, (0, 1), "must have length N"),
    ((0, 0, 1, 1, 1, 1), (0.0,) * 6, (0, 1), "column margins"),
    ((0, 0, 0, 1, 1, 2), (0.0,) * 6, (0, 1), "column margins"),
    ((0, 0, 0, 1, 1, 1), (0.0,) * 6, (0, 1, 1), "bias length"),
])
def test_permtreat_checks_subject_data_like_the_oracle(outcomes, u, delta, message):
    t = ContingencyTable.from_array([[2, 1], [1, 2]])
    stat = ordinal_statistic((0, 1), (0, 1))
    model = SensitivityModel(gamma=0.5, delta=delta)
    raw = RawConfounder(u)
    with pytest.raises(ValueError, match=message):
        brute_force_alpha(stat, t, raw, outcomes, model)
    with pytest.raises(ValueError, match=message):
        estimate_alpha_permtreat(1, stat, t, raw, outcomes, model, M=10)


# (margins, delta, ubar): an empty outcome level, a delta with two one-rows,
# and a 2 x 3 table whose single one-row is the last
FACTORIZATION_CASES = [
    (Margins((2, 3, 2), (3, 0, 4)), (0, 1, 1), (1, 0, 2)),
    (Margins((2, 2, 3), (2, 3, 2)), (1, 0, 1), (1, 2, 1)),
    (Margins((3, 2), (2, 1, 2)), (0, 1), (2, 0, 1)),
]


def _log_kernel_sum(weights, delta, gamma):
    """log sum_q e^{gamma delta'q} weights[q] over the q with positive weight."""
    terms = [
        math.log(w) + gamma * sum(dv * qv for dv, qv in zip(delta, q))
        for q, w in weights
        if w
    ]
    return float(logsumexp(np.array(terms)))


@pytest.mark.parametrize("gamma", [0.0, 0.7, 2.0])
def test_log_v_batch_matches_kernel_sum(gamma):
    # every table of the reference set: w(t) prod_j e^{G_j[b_j]} against the
    # integer kernel sum over q
    for m, delta, ubar in FACTORIZATION_CASES:
        c = ConfounderClass(ubar)
        model = SensitivityModel(gamma=gamma, delta=delta)
        tables = enumerate_fixed_margin_array(m)
        got = _log_v_batch(tables, m, c, model)
        qs = list(omega_q(c.total, m.rows))
        for tab, lv in zip(tables, got):
            t = ContingencyTable.from_array(tab)
            want = _log_kernel_sum([(q, kernel_t_q(t, q, c)) for q in qs], delta, gamma)
            assert lv == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("gamma", [0.0, 0.7, 2.0])
def test_tilted_proposal_ratios_are_flat(gamma, rng):
    # h(t) = v(t) / C(u) for every draw: the proposal is the target law
    for m, delta, ubar in FACTORIZATION_CASES:
        c = ConfounderClass(ubar)
        model = SensitivityModel(gamma=gamma, delta=delta)
        tables, log_h = _tilted_fill(m, c, model, rng.random((300, _free_cells(m))))
        assert (tables.sum(axis=2) == m.rows).all() and (tables.sum(axis=1) == m.cols).all()
        qs = list(omega_q(c.total, m.rows))
        log_c = _log_kernel_sum([(q, kernel_q(q, c.total, m)) for q in qs], delta, gamma)
        want = _log_v_batch(tables, m, c, model) - log_c
        np.testing.assert_allclose(log_h, want, rtol=1e-12, atol=1e-12)
