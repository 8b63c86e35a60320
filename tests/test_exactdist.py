"""Kernels, exact significance levels, the brute-force oracle, and MVEHG."""

import itertools
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import special
from scipy.stats import chi2_contingency

from exactsens import exactdist
from exactsens.exactdist import (
    _CHUNK_BYTES,
    ORACLE_CAP,
    RejectionAggregate,
    _sequential_weighted_draw,
    _table_q_weights,
    brute_force_alpha,
    exact_alpha,
    kernel_alpha,
    kernel_q,
    kernel_t_q,
    log_factorials,
    logsumexp,
    mvehg_pmf,
    omega_q,
    signscore_tail,
    statistic_tolerance,
    tail_mass,
)
from exactsens.oracle import _random_margins, run_battery, valid_deltas
from exactsens.sensmodel import ConfounderClass, RawConfounder, SensitivityError, SensitivityModel
from exactsens.stats import (
    cell_statistic,
    chi2_statistic,
    g2_statistic,
    ordinal_statistic,
    permutation_invariant_statistic,
    weighted_sum_statistic,
)
from exactsens.tables import (
    ContingencyTable,
    Margins,
    _bounded_compositions,
    enumerate_fixed_margin_array,
    enumerate_fixed_margin_tables,
)
from exactsens.worstcase import candidates_ordinal, candidates_pi
from tests.conftest import block_sum_normalizer, multiset_permutations


def test_kernel_q_uniform_case():
    # ubar = 0 collapses to plain multinomial counting
    assert kernel_q((0, 0), 0, Margins((2, 2), (2, 2))) == 6


def test_kernel_q_hand_enumeration():
    m = Margins((2, 1), (2, 1))
    assert kernel_q((1, 0), 1, m) == 2
    assert kernel_q((0, 1), 1, m) == 1
    assert kernel_q((1, 0), 1, m) + kernel_q((0, 1), 1, m) == 3  # = 3!/2!1!


def test_kernel_q_symmetry_full_ubar():
    assert kernel_q((2, 2), 4, Margins((2, 2), (2, 2))) == 6


def test_kernel_q_infeasible_is_zero():
    m = Margins((2, 2), (2, 2))
    assert kernel_q((3, 1), 4, m) == 0
    assert kernel_q((1, 1), 3, m) == 0  # sum mismatch


def test_total_count_identity():
    for rows, cols, ubar in [((3, 2), (2, 3), 2), ((2, 2, 2), (3, 3), 4)]:
        m = Margins(rows, cols)
        total = sum(kernel_q(q, ubar, m) for q in omega_q(ubar, rows))
        expect = math.factorial(m.N)
        for r in rows:
            expect //= math.factorial(r)
        assert total == expect


def test_partition_identity_exact():
    # summing the table-refined kernel over all fixed-margin tables recovers
    # the coarse kernel, integer for integer
    m = Margins((2, 1), (2, 1))
    for ubar_j in [(1, 0), (2, 1), (0, 1), (1, 1)]:
        c = ConfounderClass(ubar_j)
        for q in omega_q(sum(ubar_j), m.rows):
            s = sum(
                kernel_t_q(t, q, c) for t in enumerate_fixed_margin_tables(m)
            )
            assert s == kernel_q(q, sum(ubar_j), m)


def test_partition_identity_larger():
    m = Margins((3, 2, 2), (2, 3, 2))
    for ubar_j in [(0, 2, 1), (2, 0, 2), (1, 1, 1)]:
        c = ConfounderClass(ubar_j)
        for q in omega_q(sum(ubar_j), m.rows):
            s = sum(
                kernel_t_q(t, q, c) for t in enumerate_fixed_margin_tables(m)
            )
            assert s == kernel_q(q, sum(ubar_j), m)


def test_kernel_t_q_agrees_with_multinomial_sweep():
    m = Margins((3, 2, 2), (2, 3, 2))
    c = ConfounderClass((1, 2, 1))
    for t in enumerate_fixed_margin_tables(m):
        sweep = _table_q_weights(t.as_array(), c.ubar, m.cols)
        for q in omega_q(c.total, m.rows):
            assert kernel_t_q(t, q, c) == sweep.get(q, 0)


def test_kernel_t_q_out_of_support():
    m = Margins((2, 2), (2, 2))
    t = next(enumerate_fixed_margin_tables(m))
    assert kernel_t_q(t, (2, 1), ConfounderClass((1, 1))) == 0


def test_brute_force_grouping_2x2():
    # with no confounder, kernel_t_q counts the assignments inducing t
    m = Margins((2, 2), (3, 1))
    c = ConfounderClass((0, 0))
    for t in enumerate_fixed_margin_tables(m):
        count = 1
        for j, col in enumerate(m.cols):
            count *= math.comb(col, t.counts[0][j])
        assert kernel_t_q(t, (0, 0), c) == count


def test_exact_alpha_gamma_zero_is_randomization_pvalue():
    t = ContingencyTable.from_array([[2, 1], [0, 3]])
    stat = ordinal_statistic((0, 1), (0, 1))
    model = SensitivityModel(gamma=0.0, delta=(0, 1))
    for ubar in [(0, 0), (1, 2), (2, 4)]:
        p = exact_alpha(stat, t, ConfounderClass(ubar), model)
        # plain randomization p-value by direct counting
        m = t.margins()
        crit = stat(t)
        num = den = 0
        outcomes = [0] * m.cols[0] + [1] * m.cols[1]
        base = [0] * m.rows[0] + [1] * m.rows[1]
        for z in multiset_permutations(base):
            tab = np.zeros((2, 2), dtype=int)
            for zi, rj in zip(z, outcomes):
                tab[zi, rj] += 1
            den += 1
            if float(stat.evaluate_batch(tab[None])[0]) >= crit - 1e-9:
                num += 1
        assert p == pytest.approx(num / den, rel=1e-12)


def test_exact_alpha_monotone_in_critical():
    t = ContingencyTable.from_array([[2, 3, 0], [0, 1, 4], [0, 1, 4]])
    stat = ordinal_statistic((0, 1, 2), (0, 1, 2))
    model = SensitivityModel(gamma=1.0, delta=(0, 1, 1))
    c = ConfounderClass((0, 0, 3))
    crits = [-1e9, 0.0, 10.0, stat(t), 1e9]
    vals = [exact_alpha(stat, t, c, model, critical=cr) for cr in crits]
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_exact_vs_fast_paths_agree():
    # every row of the batched scan, over every pi class (the ordinal suffix
    # classes among them), against the integer path
    gammas = [0.0, 0.5, 1.0, 2.5]
    for arr, delta in [
        ([[2, 3, 0], [0, 1, 4], [0, 1, 4]], (0, 1, 1)),
        ([[2, 3, 0], [0, 1, 4], [0, 1, 4]], (0, 0, 1)),
        ([[2, 0, 1, 1], [1, 0, 3, 0]], (0, 1)),  # an empty outcome level
    ]:
        t = ContingencyTable.from_array(arr)
        m = t.margins()
        stat = ordinal_statistic(tuple(range(m.I)), tuple(range(m.J)))
        classes = list(candidates_pi(m))
        U = np.array([c.ubar for c in classes])
        table = RejectionAggregate(m, stat, stat(t), delta).alpha_table(U, gammas)
        assert table.shape == (len(classes), len(gammas))
        for c, row in zip(classes, table):
            for g, b in zip(gammas, row):
                model = SensitivityModel(gamma=g, delta=delta)
                a = kernel_alpha(stat, t, c, model)
                assert b == pytest.approx(a, rel=1e-10), (arr, delta, c.ubar, g)
        for ub in [(0,) * m.J, m.cols]:
            model = SensitivityModel(gamma=1.0, delta=delta)
            a = kernel_alpha(stat, t, ConfounderClass(ub), model)
            f = exact_alpha(stat, t, ConfounderClass(ub), model)
            assert f == pytest.approx(a, rel=1e-10)


def test_alpha_table_chunks_match_single_class_calls():
    # N = 60 gives more ordinal classes than one chunk holds
    t = ContingencyTable.from_array([[10, 6, 4], [5, 8, 7], [5, 6, 9]])
    m = t.margins()
    stat = ordinal_statistic((0, 1, 2), (0, 1, 2))
    agg = RejectionAggregate(m, stat, stat(t), (0, 1, 1))
    classes = list(candidates_ordinal(m))
    assert len(classes) > _CHUNK_BYTES // (8 * agg._floats_per_class())
    gammas = [0.0, 0.7, 3.0]
    table = agg.alpha_table(np.array([c.ubar for c in classes]), gammas)
    for c, row in zip(classes, table):
        np.testing.assert_allclose(row, agg.alpha_grid(c, gammas), rtol=1e-13, atol=0)


@pytest.mark.parametrize("U", [
    [[0, 1]], [[0, 1, 2, 0]], [0, 1, 2], [[0, -1, 2]], [[0, 1, 9]],
    [[0.9, 1.5, 2.0]], [[0, np.nan, 2]],
], ids=["too-narrow", "too-wide", "one-dimensional", "negative", "above-margin",
        "fractional", "nan"])
def test_alpha_table_refuses_malformed_class_arrays(U):
    t = ContingencyTable.from_array([[3, 1, 2], [1, 2, 3]])
    stat = ordinal_statistic((0, 1), (0, 1, 2))
    agg = RejectionAggregate(t.margins(), stat, stat(t), (0, 1))
    with pytest.raises(ValueError):
        agg.alpha_table(np.array(U), [0.0, 1.0])


@pytest.mark.parametrize("gammas", [[], [np.nan], [-1.0], [0.5, np.inf]],
                         ids=["empty", "nan", "negative", "inf"])
def test_both_scans_refuse_a_bad_gamma_grid(gammas):
    t = ContingencyTable.from_array([[3, 1, 2], [1, 2, 3]])
    stat = ordinal_statistic((0, 1), (0, 1, 2))
    agg = RejectionAggregate(t.margins(), stat, stat(t), (0, 1))
    with pytest.raises(ValueError):
        agg.alpha_table(np.array([[0, 1, 2]]), gammas)
    with pytest.raises(ValueError):
        agg.suffix_alpha_table(gammas)


def test_both_scans_read_one_cached_normalizer_table():
    t = ContingencyTable.from_array([[4, 1, 2], [1, 3, 3], [0, 2, 4]])
    m = t.margins()
    stat = ordinal_statistic((0, 1, 2), (0, 1, 2))
    agg = RejectionAggregate(m, stat, stat(t), (0, 1, 1))
    gammas = [0.25, 1.75, 2.125]
    agg.suffix_alpha_table(gammas)
    misses = exactdist._log_block_normalizer.cache_info().misses
    agg.alpha_table(np.array([[0, 2, 5], [3, 3, 3]]), gammas)
    assert exactdist._log_block_normalizer.cache_info().misses == misses
    logC = exactdist._log_block_normalizer(m.rows, agg.block_total, tuple(gammas))
    assert logC.shape == (m.N + 1, len(gammas))
    assert not logC.flags.writeable


def test_aggregates_share_the_per_margin_caches():
    # a second aggregate with the same margins and statistic reads the
    # column vectors and binomial rows of the first, read-only
    t = ContingencyTable.from_array([[4, 1, 2], [1, 3, 3], [0, 2, 4]])
    m = t.margins()
    stat = ordinal_statistic((0, 1, 2), (0, 1, 2))
    caches = (exactdist._column_vectors, exactdist._scaled_binomials)
    first = RejectionAggregate(m, stat, stat(t), (0, 1, 1))
    want = first.suffix_alpha_table([0.0, 1.0])
    before = [cache.cache_info() for cache in caches]
    second = RejectionAggregate(m, stat, stat(t), (0, 1, 1))
    got = second.suffix_alpha_table([0.0, 1.0])
    for cache, info in zip(caches, before):
        assert cache.cache_info().misses == info.misses, cache
        assert cache.cache_info().hits > info.hits, cache
    assert (second.ntables, second.nrejected) == (first.ntables, first.nrejected)
    np.testing.assert_array_equal(got, want)
    shared = [*exactdist._column_vectors(m.cols[0], m.rows, (1, 2)),
              exactdist._scaled_binomials(m.cols[0])[0]]
    for arr in shared:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


def _fold_by_loop(A, w):
    """The suffix sweep's fold as a loop over b: shifted rows of A times w, added in turn."""
    Q, B, S = A.shape
    out = np.zeros((Q, S + B - 1))
    for b in range(B):
        out[:, b : b + S] += A[:, b, :] * w[b]
    return out


@pytest.mark.parametrize("budget", [None, 1, 600])
def test_skewed_fold_equals_the_loop_bit_for_bit(monkeypatch, budget):
    # one chunk, a row per chunk and a few rows per chunk; B = 1 and S = 1
    # included, and zeros as R has them off its support
    if budget is not None:
        monkeypatch.setattr(exactdist, "_CHUNK_BYTES", budget)
    rng = np.random.default_rng(34)
    for Q, B, S in [(1, 1, 1), (5, 1, 4), (5, 4, 1), (7, 3, 3), (3, 21, 9), (40, 9, 30)]:
        for _ in range(20):
            A = rng.random((Q, B, S)) * (rng.random((Q, B, S)) < 0.7)
            w = rng.random(B)[:, None] * np.exp(rng.normal(0.0, 20.0, S))
            np.testing.assert_array_equal(exactdist._skewed_fold(A, w), _fold_by_loop(A, w))


def test_fast_path_large_column_margins():
    # column margins of 1200: exact-integer chi profiles overflowed float here
    stat = ordinal_statistic((0, 1), (0, 1))
    for arr, ub in [([[700, 500], [500, 700]], (0, 1200)), ([[70, 50], [50, 70]], (0, 120))]:
        t = ContingencyTable.from_array(arr)
        for g in (0.0, 0.5):
            model = SensitivityModel(gamma=g, delta=(0, 1))
            f = exact_alpha(stat, t, ConfounderClass(ub), model)
            assert math.isfinite(f) and 0.0 <= f <= 1.0
            a = kernel_alpha(stat, t, ConfounderClass(ub), model)
            assert f == pytest.approx(a, rel=1e-10), (arr, g)


def test_confounder_class_sufficiency():
    # two raw confounders with identical per-outcome counts give the same
    # brute-force alpha (placement within an outcome level cancels)
    t = ContingencyTable.from_array([[2, 1], [1, 2]])
    stat = ordinal_statistic((0, 1), (0, 1))
    model = SensitivityModel(gamma=0.8, delta=(0, 1))
    outcomes = (0, 0, 0, 1, 1, 1)
    u1 = RawConfounder((1.0, 0.0, 0.0, 1.0, 1.0, 0.0))
    u2 = RawConfounder((0.0, 0.0, 1.0, 0.0, 1.0, 1.0))
    a1 = brute_force_alpha(stat, t, u1, outcomes, model)
    a2 = brute_force_alpha(stat, t, u2, outcomes, model)
    assert a1 == pytest.approx(a2, rel=1e-12)
    # and matches the kernel path at the shared class
    cclass = u1.to_class(outcomes, 2)
    assert exact_alpha(stat, t, cclass, model) == pytest.approx(a1, rel=1e-12)


def test_oracle_battery_smoke():
    rep = run_battery(seed=11, max_n=8, cases=6)
    assert rep.counterexample is None
    assert rep.max_rel < 1e-12


def test_brute_force_cap():
    t = ContingencyTable.from_array([[7, 0], [0, 7]])
    stat = ordinal_statistic((0, 1), (0, 1))
    model = SensitivityModel(gamma=0.0, delta=(0, 1))
    u = RawConfounder((0.0,) * 14)
    with pytest.raises(ValueError, match="oracle cap"):
        brute_force_alpha(stat, t, u, (0,) * 7 + (1,) * 7, model)
    assert ORACLE_CAP == 12


def test_brute_force_rejects_outcome_codes_outside_levels():
    # codes -1 and J lie outside 0..J-1, so no column margin counts them
    t = ContingencyTable.from_array([[2, 1], [0, 3]])
    stat = ordinal_statistic((0, 1), (0, 1))
    model = SensitivityModel(gamma=1.0, delta=(0, 1))
    u = RawConfounder((0.0,) * 6)
    for outcomes in ([0, 0, -1, -1, -1, -1], [0, 0, 2, 2, 2, 2]):
        with pytest.raises(ValueError, match="column margins"):
            brute_force_alpha(stat, t, u, outcomes, model)


# oracle values recorded as float.hex before its labels were built from
# complement tables: (table, statistic, bias, class ubar or real-valued u,
# critical, {gamma: p}); 4x3-dose has 25,200 assignments in five label blocks
_PINNED_ORACLE = {
    "2x3-ordinal": ([[3, 1, 1], [1, 2, 2]], ordinal_statistic((0, 1), (0, 1, 2)),
                    {"delta": (0, 1)}, (1, 2, 2), None,
                    {0.0: "0x1.e79e79e79e79ep-3", 2.0: "0x1.e7d020cbda7dep-2"}),
    "3x2-chi2-real-u": ([[3, 0], [0, 3], [1, 1]], chi2_statistic(), {"delta": (0, 1, 1)},
                        (0.3, 0.9, 0.1, 0.5, 0.7, 0.2, 0.8, 0.4), None,
                        {0.0: "0x1.d41d41d41d41dp-5", 2.0: "0x1.9c9c4bd359cdcp-5"}),
    "3x3-dose": ([[2, 1, 0], [1, 1, 1], [0, 1, 2]], ordinal_statistic((0, 1, 2), (0, 1, 3)),
                 {"phi": (0.0, 1.0, 2.5)}, (0.6, 0.1, 0.9, 0.4, 0.35, 0.8, 0.2, 0.05, 0.7),
                 None, {0.0: "0x1.94b94b94b94b9p-5", 2.0: "0x1.8f47005450689p-8"}),
    "4x2-ordinal": ([[2, 1], [1, 2], [0, 2], [1, 1]], ordinal_statistic((0, 1, 2, 3), (0, 1)),
                    {"delta": (0, 0, 1, 1)}, (2, 3), None,
                    {0.0: "0x1.7297297297297p-2", 2.0: "0x1.60b857b924b90p-2"}),
    "4x3-g2": ([[3, 0, 0], [0, 2, 1], [0, 0, 2], [1, 0, 0]], g2_statistic(),
               {"delta": (0, 1, 0, 1)}, (2, 1, 2), None,
               {0.0: "0x1.d41d41d41d41dp-6", 2.0: "0x1.14457f2286d5fp-6"}),
    "4x3-dose": ([[1, 1, 1], [1, 2, 0], [0, 1, 1], [1, 0, 1]],
                 ordinal_statistic((0, 0.5, 1.5, 2), (0, 1, 2)), {"phi": (0.0, 0.5, 1.0, 2.0)},
                 (0.15, 0.95, 0.5, 0.25, 0.75, 0.05, 0.65, 0.45, 0.85, 0.35), 7.0,
                 {0.0: "0x1.99b8cec01f352p-1", 2.0: "0x1.a32609dba5229p-1"}),
}


@pytest.mark.parametrize("name", sorted(_PINNED_ORACLE))
def test_brute_force_values_are_pinned(name):
    arr, stat, bias, ubar_or_u, critical, want = _PINNED_ORACLE[name]
    t = ContingencyTable.from_array(arr)
    m = t.margins()
    if len(ubar_or_u) == m.J:
        outcomes, u = ConfounderClass(ubar_or_u).subjects(m)
    else:
        outcomes, u = [j for j, k in enumerate(m.cols) for _ in range(k)], RawConfounder(ubar_or_u)
    for gamma, p in want.items():
        model = SensitivityModel(gamma=gamma, **bias)
        assert brute_force_alpha(stat, t, u, outcomes, model, critical).hex() == p


def test_brute_force_weights_do_not_overflow_at_large_gamma():
    t = ContingencyTable.from_array([[3, 1], [1, 3]])
    stat = ordinal_statistic((0, 1), (0, 1))
    c = ConfounderClass((0, 4))
    outcomes, u = c.subjects(t.margins())
    for gamma in (0.0, 2.0, 200.0, 700.0):
        model = SensitivityModel(gamma=gamma, delta=(0, 1))
        want = kernel_alpha(stat, t, c, model)
        assert brute_force_alpha(stat, t, u, outcomes, model) == pytest.approx(want, rel=1e-12)
    # a dose model with real-valued u, against a log-sum-exp over all 70 assignments
    u = (0.1, 0.9, 0.5, 0.3, 0.7, 0.2, 0.8, 0.6)
    model = SensitivityModel(gamma=300.0, phi=(0.0, 2.0))
    logw, rejected = [], []
    for z in multiset_permutations([0] * 4 + [1] * 4):
        tab = np.zeros((2, 2), dtype=int)
        for zi, rj in zip(z, outcomes):
            tab[zi, rj] += 1
        logw.append(300.0 * sum(2.0 * zi * ui for zi, ui in zip(z, u)))
        rejected.append(stat(ContingencyTable.from_array(tab)) >= stat(t) - 1e-9)
    logw = np.array(logw)
    want = math.exp(logsumexp(logw[np.array(rejected)]) - logsumexp(logw))
    got = brute_force_alpha(stat, t, RawConfounder(u), outcomes, model)
    assert got == pytest.approx(want, rel=1e-12)


def test_exact_alpha_clipped_when_every_table_rejected():
    # every table is rejected, and the aggregate's ratio rounds to 1.000000000000007
    t = ContingencyTable.from_array([[2, 2, 1, 1], [1, 2, 2, 1], [1, 1, 2, 2], [2, 1, 1, 2]])
    stat = chi2_statistic()
    model = SensitivityModel(gamma=1.0, delta=(0, 0, 0, 1))
    assert exact_alpha(stat, t, ConfounderClass((3, 3, 3, 3)), model) == 1.0


def test_exact_alpha_is_the_aggregate_at_n30():
    # small N takes the aggregate too, not the integer path (which differs in the last bits)
    t = ContingencyTable.from_array([[4, 3, 3], [3, 4, 3], [3, 3, 4]])
    stat = ordinal_statistic((0, 1, 2), (0, 1, 2))
    model = SensitivityModel(gamma=1.0, delta=(0, 0, 1))
    c = ConfounderClass((5, 5, 5))
    p = exact_alpha(stat, t, c, model)
    agg = RejectionAggregate(t.margins(), stat, stat(t), model.delta)
    assert p == agg.alpha_grid(c, [1.0])[0]
    assert p == pytest.approx(kernel_alpha(stat, t, c, model), rel=1e-10)


def test_valid_deltas():
    assert valid_deltas(2) == [(0, 1), (1, 0)]
    assert len(valid_deltas(3)) == 6


def test_dose_model_refused_by_exact_alpha():
    t = ContingencyTable.from_array([[2, 1], [1, 2]])
    stat = ordinal_statistic((0, 1), (0, 1))
    model = SensitivityModel(gamma=1.0, phi=(1.0, 2.0))
    for alpha_fn in (exact_alpha, kernel_alpha):
        with pytest.raises(SensitivityError):
            alpha_fn(stat, t, ConfounderClass((0, 3)), model)


# ---------------------------------------------------------------- MVEHG


def test_log_factorials_match_gammaln():
    small = log_factorials(7).copy()
    table = log_factorials(100_000)
    k = np.arange(100_001)
    assert table.shape == k.shape and not table.flags.writeable
    np.testing.assert_allclose(table, special.gammaln(k + 1.0), rtol=1e-15, atol=0)
    # the cache grows without moving the entries it had
    assert (table[:8] == small).all() and len(log_factorials(3)) == 4


def logsumexp_cases(rng, shape):
    """Arrays whose last-axis slices cover the regimes the callers meet."""
    plain = rng.normal(size=shape)
    ties = np.round(rng.normal(size=shape))  # several entries equal to the maximum
    holes = np.where(rng.random(shape) < 0.5, -np.inf, rng.normal(size=shape))
    empty_rows = np.where(np.arange(shape[0])[:, None] % 2 == 1, -np.inf, plain) \
        if len(shape) == 2 else np.full(shape, -np.inf)
    big = rng.choice([-1e300, -800.0, 0.0, 750.0, 1e300], size=shape)
    with_inf = plain.copy()
    with_inf[..., 0] = np.inf
    return [plain, 900.0 + plain, -900.0 + plain, 300.0 * plain, ties, holes, empty_rows,
            big, with_inf]


@pytest.mark.parametrize("shape", [(9,), (6, 11)])
def test_logsumexp_matches_scipy(shape):
    rng = np.random.default_rng(12)
    for a in logsumexp_cases(rng, shape):
        for axis in (None, -1):
            want = special.logsumexp(a, axis=axis)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no RuntimeWarning on -inf slices or overflow
                got = logsumexp(a, axis=axis)
            assert np.shape(got) == np.shape(want)
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_mvehg_central_case():
    assert mvehg_pmf((1, 1), (2, 2), 2, (0.0, 0.0)) == pytest.approx(4 / 6, rel=1e-14)


def test_mvehg_normalization(rng):
    for _ in range(10):
        m_rows = rng.integers(1, 6, size=3).tolist()
        n = int(rng.integers(0, sum(m_rows) + 1))
        w = rng.normal(size=3).tolist()
        total = sum(mvehg_pmf(t, m_rows, n, w) for t in omega_q(n, m_rows))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_mvehg_off_support_zero():
    assert mvehg_pmf((3, 0), (2, 2), 3, (0.0, 0.0)) == 0.0
    assert mvehg_pmf((1, 1), (2, 2), 3, (0.0, 0.0)) == 0.0


@pytest.mark.parametrize("law", [
    lambda: mvehg_pmf((1, 1), (2.9, 2), 2, (0, 0)),
    lambda: mvehg_pmf((1.5, 0.5), (2, 2), 2, (0, 0)),
    lambda: mvehg_pmf((1, 1), (2, 2), 2.5, (0, 0)),
    lambda: mvehg_pmf((1, 1), (2, 2), 2, (np.nan, 0)),
    lambda: signscore_tail((0, 1), (2, 2.7), 2.9, (0, 0.5), 0.5),
    lambda: signscore_tail((0, 1), (2, 2), 2, (0, np.inf), 0.5),
], ids=["fractional-rows", "fractional-counts", "fractional-n", "nan-weight",
        "fractional-rows-and-n", "inf-weight"])
def test_mvehg_law_refuses_non_integers_and_non_finite_weights(law):
    with pytest.raises(ValueError):
        law()


def test_mvehg_law_of_a_weight_stack_is_each_vector_law():
    rows, n = (4, 6, 3), 5
    stack = [[0.0, 0.7, 1.4], [0.0, 0.0, 0.0], [-1.0, 2.5, 0.3]]
    support, probs = exactdist._mvehg_law(rows, n, stack)
    assert probs.shape == (len(stack), len(support))
    for w, row in zip(stack, probs):
        one_support, one = exactdist._mvehg_law(rows, n, w)
        assert one.shape == (len(support),)
        np.testing.assert_array_equal(one_support, support)
        np.testing.assert_array_equal(row, one)


def _product_filter(total, caps):
    """Bounded compositions by brute force, in lexicographic order."""
    return [
        v for v in itertools.product(*(range(c + 1) for c in caps)) if sum(v) == total
    ]


def test_compositions_match_product_filter(rng):
    cases = [((0, 3, 0), 2), ((0, 0), 0), ((2, 0, 1), 4), ((2, 3), -1), ((2, 3), 6), ((4,), 4)]
    for _ in range(40):
        caps = tuple(int(v) for v in rng.integers(0, 4, size=int(rng.integers(1, 5))))
        cases.append((caps, int(rng.integers(-2, sum(caps) + 3))))
    for caps, total in cases:
        want = _product_filter(total, caps)
        assert list(omega_q(total, caps)) == want, (caps, total)


def test_sequential_draw_logprob_is_mvehg_pmf(rng):
    # the shared suffix-normalizer sampler, fed MVEHG log-weights, reports the
    # exact log-probability of each draw
    for _ in range(10):
        m_rows = tuple(int(v) for v in rng.integers(1, 6, size=int(rng.integers(2, 5))))
        n = int(rng.integers(0, sum(m_rows) + 1))
        w = rng.normal(size=len(m_rows)).tolist()
        logweights = [
            np.array([math.log(math.comb(mi, x)) + wi * x for x in range(min(mi, n) + 1)])
            for mi, wi in zip(m_rows, w)
        ]
        U = rng.random((50, len(m_rows) - 1))
        draws, log_p, ucol = _sequential_weighted_draw(U, logweights, n)
        assert ucol == len(m_rows) - 1
        for row, lp in zip(draws, log_p):
            assert lp == pytest.approx(math.log(mvehg_pmf(row, m_rows, n, w)), abs=1e-12)


def test_signscore_worstcase_law_is_mvehg():
    # at ubar = (0, N_.2) the kernel-derived law of the column-2 cells is
    # multivariate extended hypergeometric with weights gamma * delta
    from tests.conftest import table_law

    rng = np.random.default_rng(77)
    for _ in range(5):
        rows = tuple(int(v) for v in rng.integers(1, 5, size=3))
        n2 = int(rng.integers(1, sum(rows)))
        m = Margins(rows, (sum(rows) - n2, n2))
        gamma = float(rng.uniform(0, 2))
        model = SensitivityModel(gamma=gamma, delta=(0, 1, 1))
        cclass = ConfounderClass((0, n2))
        weights = [gamma * d for d in (0, 1, 1)]
        tables, law = table_law(m, cclass, model)
        assert signscore_tail((0.0, 1.0, 2.0), rows, n2, weights, -1.0) == pytest.approx(
            1.0, abs=1e-12
        )
        for tab, p in zip(tables, law):
            want = mvehg_pmf(tuple(tab[:, 1]), rows, n2, weights)
            assert p == pytest.approx(want, abs=1e-12)


def test_signscore_tail_matches_exact_alpha():
    t = ContingencyTable.from_array([[3, 1], [2, 4], [1, 4]])
    stat = ordinal_statistic((0, 1, 2), (0, 1))
    gamma = 0.9
    model = SensitivityModel(gamma=gamma, delta=(0, 1, 1))
    rows = t.row_margins()
    n2 = t.col_margins()[1]
    cclass = ConfounderClass((0, n2))
    via_kernel = exact_alpha(stat, t, cclass, model)
    via_mvehg = signscore_tail((0, 1, 2), rows, n2, [gamma * d for d in (0, 1, 1)],
                               stat(t))
    assert via_mvehg == pytest.approx(via_kernel, rel=1e-10)


def test_published_fixed_class_pvalues_n86_to_n112():
    # exact values reported for sampling-convergence illustrations on the
    # N = 86 synthetic table and the two study tables
    girls = ContingencyTable.from_array([[12, 3, 0], [18, 12, 3], [17, 25, 4]])
    boys = ContingencyTable.from_array([[10, 8, 1], [29, 11, 3], [20, 24, 6]])
    fig = ContingencyTable.from_array([[12, 18, 5], [6, 12, 6], [6, 6, 15]])
    stat = ordinal_statistic((0, 1, 2.5), (0, 1, 2))
    cases = [
        (fig, (0, 10, 20), 1.0, 0.05),
        (fig, (0, 36, 26), 1.0, 0.10),
        (girls, (0, 40, 7), 0.5, 0.02),
        (girls, (0, 30, 5), 1.0, 0.03),
        (girls, (0, 40, 7), 1.0, 0.06),
        (boys, (0, 20, 10), 0.5, 0.07),
        (boys, (0, 30, 10), 0.5, 0.09),
    ]
    for t, ub, gamma, want in cases:
        model = SensitivityModel(gamma=gamma, delta=(0, 1, 1))
        p = exact_alpha(stat, t, ConfounderClass(ub), model)
        assert round(p, 2) == want, (ub, gamma, p)


def test_aggregate_partition_identity_no_mask():
    # with the whole reference set rejected, the aggregated numerator buckets
    # must reproduce the closed-form denominator buckets (law of partitions
    # at the tensor level)
    m = Margins((4, 3, 2), (3, 4, 2))
    stat = ordinal_statistic((0, 1, 2), (0, 1, 2))
    for delta in [(0, 1, 1), (0, 0, 1), (1, 0, 0)]:
        agg = RejectionAggregate(m, stat, -1e9, delta)
        for ubar in [(0, 0, 0), (1, 2, 0), (3, 4, 2), (2, 2, 1)]:
            logS = agg._log_numerators(np.array([ubar]))[0]
            logk, scale = block_sum_normalizer(m.rows, agg.block_total, sum(ubar))
            logK = logk + scale
            mask = np.isfinite(logK)
            np.testing.assert_array_equal(np.isfinite(logS), mask)
            np.testing.assert_allclose(logS[mask], logK[mask], rtol=1e-10)


def test_log_block_normalizer_matches_the_exact_integer_form():
    # every total and delta-block size, the empty and full blocks included
    gammas = (0.0, 0.7, 3.0)
    for rows in [(4, 3, 2), (1, 5)]:
        N = sum(rows)
        for B in range(N + 1):
            logC = exactdist._log_block_normalizer(rows, B, gammas)
            for u in range(N + 1):
                logk, scale = block_sum_normalizer(rows, B, u)
                d = np.flatnonzero(np.isfinite(logk))
                want = [logsumexp(logk[d] + g * d) + scale for g in gammas]
                np.testing.assert_allclose(logC[u], want, rtol=1e-14, atol=1e-14)


def _decimal_log_normalizer(rows, B, u, gammas):
    """log C(u) at each gamma to 60 digits, from the exact integers C(u, d) C(N - u, B - d)."""
    N = sum(rows)
    multinomial, left = 1, N
    for r in rows:
        multinomial *= math.comb(left, r)
        left -= r
    lo, hi = max(0, u - (N - B)), min(u, B)
    counts = [math.comb(u, lo) * math.comb(N - u, B - lo)]
    for d in range(lo + 1, hi + 1):  # each count from the last, exactly
        count, rem = divmod(counts[-1] * (u - d + 1) * (B - d + 1), d * (N - u - B + d))
        assert rem == 0
        counts.append(count)
    with localcontext() as ctx:
        ctx.prec = 60
        terms = [Decimal(k) for k in counts]
        base = Decimal(multinomial).ln() - Decimal(math.comb(N, B)).ln()
        out = []
        for g in gammas:
            tilt = Decimal(g).exp()
            total, w = Decimal(0), tilt**lo
            for t in terms:
                total += t * w
                w *= tilt
            out.append(base + total.ln())
        return out


@pytest.mark.parametrize("rows, B", [
    ((4, 3, 2), 5), ((50, 60, 70), 130), ((300, 300), 300), ((100, 200, 300), 500),
    ((1600, 1600, 1600), 1600), ((1600, 1600, 1600), 3200), ((4000, 800), 800),
])
def test_log_block_normalizer_within_an_ulp_of_a_decimal_reference(rows, B):
    # one ulp of log C(u); the exact-integer form in conftest, rounded to a
    # float log, is off by up to 1.7 ulp at rows (1600, 1600, 1600)
    N = sum(rows)
    totals = sorted({0, 1, 7, N // 5, N // 2, 2 * N // 3, N - 3, N})
    gammas = (0.0, 0.5, 1.0, 3.0)
    logC = exactdist._log_block_normalizer(rows, B, gammas)[totals]
    for row, u in zip(logC.tolist(), totals):
        for got, want in zip(row, _decimal_log_normalizer(rows, B, u, gammas)):
            assert abs(Decimal(got) - want) <= Decimal(math.ulp(float(want))), (u, got, want)


def test_log_block_normalizer_is_one_float_at_gamma_zero():
    # every class of a scan gets the same gamma = 0 denominator, so a flat
    # Gamma = 1 scan ties on numerator jitter alone
    for rows, B in [((4, 3, 2), 5), ((20, 20, 20), 40), ((600, 600), 600)]:
        logC = exactdist._log_block_normalizer(rows, B, (0.0, 1.0))
        assert np.all(logC[:, 0] == logC[0, 0])
        assert len(set(logC[:, 1].tolist())) == sum(rows) + 1


def test_fast_path_extreme_gamma_stable():
    t = ContingencyTable.from_array([[3, 2, 1], [0, 2, 4], [0, 1, 5]])
    stat = ordinal_statistic((0, 1, 2.5), (0, 1, 2))
    c = ConfounderClass((0, 4, 10))
    for gamma in (6.0, 12.0):
        model = SensitivityModel(gamma=gamma, delta=(0, 1, 1))
        a = kernel_alpha(stat, t, c, model)
        b = exact_alpha(stat, t, c, model)
        assert 0.0 <= b <= 1.0
        assert b == pytest.approx(a, rel=1e-9)
    # a delta block of B = 5 subjects, so e^{gamma d} spans e^{5 gamma}
    t = ContingencyTable.from_array([[50, 45], [0, 5]])
    stat = ordinal_statistic((0, 1), (0, 1))
    for gamma in (20.0, 100.0, 700.0):
        model = SensitivityModel(gamma=gamma, delta=(0, 1))
        for ubar in [(0, 50), (10, 50), (25, 25), (50, 50)]:
            c = ConfounderClass(ubar)
            assert exact_alpha(stat, t, c, model) == pytest.approx(
                kernel_alpha(stat, t, c, model), rel=1e-10)


def test_equivalence_wide_and_tall_shapes():
    # four treatment levels / four outcome levels exercise the general prefix
    # bookkeeping beyond the 3 x 3 battery
    t1 = ContingencyTable.from_array([[2, 1], [1, 1], [0, 2], [1, 1]])
    stat1 = ordinal_statistic((0, 1, 2, 3), (0, 1))
    outcomes1 = [0] * 4 + [1] * 5
    for ub in [(0, 0), (2, 3), (1, 4), (4, 0)]:
        u = RawConfounder(
            tuple([0.0] * (4 - ub[0]) + [1.0] * ub[0] + [0.0] * (5 - ub[1]) + [1.0] * ub[1])
        )
        for delta in [(0, 1, 1, 1), (0, 0, 1, 1), (1, 0, 0, 1)]:
            for g in (0.0, 0.9):
                model = SensitivityModel(gamma=g, delta=delta)
                a = kernel_alpha(stat1, t1, ConfounderClass(ub), model)
                b = brute_force_alpha(stat1, t1, u, outcomes1, model)
                f = exact_alpha(stat1, t1, ConfounderClass(ub), model)
                assert a == pytest.approx(b, rel=1e-12)
                assert f == pytest.approx(a, rel=1e-10)
    t2 = ContingencyTable.from_array([[2, 1, 0, 1], [0, 1, 2, 2]])
    stat2 = ordinal_statistic((0, 1), (0, 0.5, 1.5, 2))
    outcomes2 = [0] * 2 + [1] * 2 + [2] * 2 + [3] * 3
    for ub in [(0, 0, 0, 0), (1, 1, 1, 1), (2, 0, 2, 3)]:
        u: list[float] = []
        for c, k in zip((2, 2, 2, 3), ub):
            u += [0.0] * (c - k) + [1.0] * k
        for g in (0.0, 1.2):
            model = SensitivityModel(gamma=g, delta=(0, 1))
            a = kernel_alpha(stat2, t2, ConfounderClass(ub), model)
            b = brute_force_alpha(stat2, t2, RawConfounder(tuple(u)), outcomes2, model)
            f = exact_alpha(stat2, t2, ConfounderClass(ub), model)
            assert a == pytest.approx(b, rel=1e-12)
            assert f == pytest.approx(a, rel=1e-10)


@pytest.mark.parametrize("J", [2, 3])
def test_four_treatment_levels_against_the_kernel(J):
    # the battery draws I, J <= 3; seeded 4 x J instances take the oracle's
    # blocks and the production path to a fourth treatment level
    rng = np.random.default_rng(4000 + J)
    for _ in range(4):
        m = _random_margins(rng, int(rng.integers(6, 11)), 4, J)
        tables = enumerate_fixed_margin_array(m)
        t = ContingencyTable.from_array(tables[rng.integers(0, len(tables))])
        stat = ordinal_statistic(tuple(np.sort(rng.uniform(0, 3, size=4))),
                                 tuple(np.sort(rng.uniform(0, 3, size=J))))
        c = ConfounderClass(tuple(int(rng.integers(0, k + 1)) for k in m.cols))
        outcomes, u = c.subjects(m)
        for delta in valid_deltas(4)[::3]:
            for gamma in (0.0, 1.0):
                model = SensitivityModel(gamma=gamma, delta=delta)
                a = kernel_alpha(stat, t, c, model)
                assert brute_force_alpha(stat, t, u, outcomes, model) == pytest.approx(
                    a, rel=1e-12)
                assert exact_alpha(stat, t, c, model) == pytest.approx(a, rel=1e-10)


def test_exact_vs_fast_n24():
    t = ContingencyTable.from_array([[4, 3, 1], [2, 3, 3], [1, 2, 5]])
    stat = ordinal_statistic((0, 1, 2), (0, 1, 2))
    model = SensitivityModel(gamma=1.0, delta=(0, 1, 1))
    c = ConfounderClass((2, 4, 6))
    a = kernel_alpha(stat, t, c, model)
    f = exact_alpha(stat, t, c, model)
    assert f == pytest.approx(a, rel=1e-10)


# margins of tables in this module and in test_worstcase.py: every shape the
# two modules use (I x J for I, J in 2..4), a study table, and J = 5, whose
# network has two fully built levels before the bounded last one
STREAM_MARGINS = [
    Margins((3, 3), (2, 4)),
    Margins((3, 2, 2), (2, 3, 2)),
    Margins((5, 5, 5), (2, 5, 8)),
    Margins((6, 6, 6), (3, 5, 10)),
    Margins((3, 2, 2, 2), (4, 5)),
    Margins((4, 5), (2, 2, 2, 3)),
    Margins((6, 6, 6, 6), (6, 6, 6, 6)),
    Margins((15, 33, 46), (47, 40, 7)),
    Margins((3, 4, 5), (2, 3, 2, 3, 2)),
    Margins((2, 3, 3, 2, 2), (3, 2, 3, 2, 2)),
]


def _stream_statistics(m: Margins, with_opaque: bool):
    stats = [
        ordinal_statistic(range(m.I), np.linspace(0.0, 2.0, m.J)),
        weighted_sum_statistic(np.arange(m.I)[::-1] * 0.5, np.arange(m.J) % 2 + 0.25),
        chi2_statistic(),
        g2_statistic(),
        cell_statistic(0, m.J - 1),
    ]
    if with_opaque:
        stats.append(permutation_invariant_statistic(
            lambda t: float(np.abs(np.diff(t, axis=0)).sum()), "rowdiff"))
    return stats


@pytest.mark.parametrize("m", STREAM_MARGINS, ids=str)
def test_streamed_build_matches_precomputed_tables(monkeypatch, m):
    # R, ntables and nrejected of the streamed build against the route that
    # is handed the materialized reference set (one chunk).  Budget 1 makes
    # every prefix its own batch, smaller than any expansion; 3000 bytes cuts
    # the expansions into chunks of a few dozen rows; the default budget runs
    # in every other test.  Above 10000 tables only one delta and one
    # critical value run, without the Python-looped opaque statistic, to keep
    # this test short.
    tables = enumerate_fixed_margin_array(m)
    small = len(tables) < 10000
    deltas = [(0,) * (m.I - 1) + (1,), (1,) + (0,) * (m.I - 1)][: 2 if small else 1]
    for stat in _stream_statistics(m, with_opaque=small):
        tvals = stat.evaluate_batch(tables)
        for critical in np.quantile(tvals, [0.5, 0.9] if small else [0.9]):
            for delta in deltas:
                ref = RejectionAggregate(m, stat, critical, delta, tables, tvals)
                for budget in (1, 3000):
                    monkeypatch.setattr(exactdist, "_CHUNK_BYTES", budget)
                    got = RejectionAggregate(m, stat, critical, delta)
                    assert got.ntables == ref.ntables == len(tables)
                    assert got.nrejected == ref.nrejected > 0
                    np.testing.assert_allclose(
                        got._R * math.exp(got._offset - ref._offset), ref._R,
                        rtol=1e-12, atol=0, err_msg=f"{stat.name} {delta} {budget}",
                    )


def test_streamed_build_with_overflowing_state_keys():
    # eight rows of 250 put the network's mixed-radix keys past int64, so the
    # reference set is materialized; one subject in column 2 gives 8 tables
    m = Margins((250,) * 8, (1999, 1))
    stat = cell_statistic(7, 1)
    agg = RejectionAggregate(m, stat, 1.0, (0,) * 7 + (1,))
    assert (agg.ntables, agg.nrejected) == (8, 1)
    c = ConfounderClass((0, 1))
    p0, p2 = agg.alpha_grid(c, [0.0, 2.0])
    assert p0 == pytest.approx(1 / 8, rel=1e-12)
    assert p2 == pytest.approx(math.exp(2.0) / (7 + math.exp(2.0)), rel=1e-12)


@pytest.mark.parametrize("stat", [chi2_statistic(), g2_statistic()])
def test_streamed_build_refuses_empty_outcome_level(stat):
    # the column-term hook keeps the batch's positive-margin refusal, also
    # when the critical value is given and the observed table never evaluated
    with pytest.raises(ValueError, match="margin positive"):
        RejectionAggregate(Margins((3, 4), (5, 0, 2)), stat, 1.0, (0, 1))



def _assert_pruned_build_matches(m, stat, critical, delta, tables, tvals):
    # the streamed build, which drops wholly accepted subtrees, against the
    # route handed the materialized reference set, which prunes nothing
    ref = RejectionAggregate(m, stat, critical, delta, tables, tvals)
    got = RejectionAggregate(m, stat, critical, delta)
    assert got.ntables == ref.ntables == ref.nexpanded == len(tables)
    assert got.nrejected == ref.nrejected
    assert got.nexpanded <= got.ntables
    np.testing.assert_allclose(got._R * math.exp(got._offset - ref._offset), ref._R,
                               rtol=1e-12, atol=0, err_msg=f"{stat.name} at {critical}")
    return got


def test_pruned_build_at_tail_and_median_critical_values():
    # 1,189,507 tables; the tail critical value (z about 1.9, the top 3%)
    # leaves most subtrees wholly accepted, the median about half of them
    m = Margins((8, 8, 8, 9), (8, 8, 9, 8))
    stat = ordinal_statistic((0, 1, 2, 3), (0, 1.05, 2.1, 3.2))
    tables = enumerate_fixed_margin_array(m)
    tvals = stat.evaluate_batch(tables)
    assert len(tables) == 1_189_507
    expanded = []
    for critical in np.quantile(tvals, [0.97, 0.5]):
        got = _assert_pruned_build_matches(m, stat, critical, (0, 0, 1, 1), tables, tvals)
        expanded.append(got.nexpanded)
    assert expanded[0] < len(tables) // 2
    assert expanded[1] < len(tables)


@pytest.mark.parametrize("stat", [
    weighted_sum_statistic((1.0, -2.0, 0.5), (-1.0, 3.0, -0.5, 2.0)),
    chi2_statistic(),
    g2_statistic(),
    cell_statistic(1, 2),
], ids=lambda s: s.name)
def test_pruned_build_matches_materialized_route(stat):
    # mixed-sign scores make a prefix's partial sum rise and fall along a path
    m = Margins((6, 7, 8), (5, 6, 4, 6))
    tables = enumerate_fixed_margin_array(m)
    tvals = stat.evaluate_batch(tables)
    for critical in np.quantile(tvals, [0.5, 0.9, 0.99]):
        for delta in [(0, 0, 1), (1, 0, 1)]:
            got = _assert_pruned_build_matches(m, stat, critical, delta, tables, tvals)
    assert got.nexpanded < len(tables) // 2


def test_pruned_build_keeps_ties_at_an_attained_critical_value():
    m = Margins((6, 7, 8), (5, 6, 4, 6))
    stat = ordinal_statistic((0, 1, 2), (0, 1, 2, 3))
    tables = enumerate_fixed_margin_array(m)
    tvals = stat.evaluate_batch(tables)
    critical = float(np.sort(tvals)[int(0.95 * len(tvals))])
    ties = int(np.sum(tvals == critical))
    assert ties > 1
    got = _assert_pruned_build_matches(m, stat, critical, (0, 1, 1), tables, tvals)
    assert got.nrejected == int(np.sum(tvals >= critical))


def test_pruned_build_above_every_statistic_expands_nothing():
    m = Margins((6, 7, 8), (5, 6, 4, 6))
    stat = ordinal_statistic((0, 1, 2), (0, 1, 2, 3))
    tables = enumerate_fixed_margin_array(m)
    tvals = stat.evaluate_batch(tables)
    got = _assert_pruned_build_matches(m, stat, tvals.max() + 0.5, (0, 1, 1), tables, tvals)
    assert (got.nexpanded, got.nrejected) == (0, 0)


def test_opaque_build_prunes_nothing():
    m = Margins((3, 2, 2), (2, 3, 2))
    stat = permutation_invariant_statistic(
        lambda t: float(np.abs(np.diff(t, axis=0)).sum()), "rowdiff")
    tables = enumerate_fixed_margin_array(m)
    tvals = stat.evaluate_batch(tables)
    got = _assert_pruned_build_matches(m, stat, tvals.max(), (0, 1, 1), tables, tvals)
    assert got.nexpanded == got.ntables == len(tables)


def test_completion_bounds_of_a_network():
    # the root's bound is the largest path sum and its count the table count;
    # the last level has edges only for the states a surviving prefix reaches,
    # and those are all of each such state's completions
    m = Margins((6, 7, 8), (5, 6, 4, 6))
    stat = weighted_sum_statistic((1.0, -2.0, 0.5), (-1.0, 3.0, -0.5, 2.0))
    tvals = stat.evaluate_batch(enumerate_fixed_margin_array(m))
    levels, _, (_, bounds) = exactdist._column_network(
        m, [2], stat, float(np.quantile(tvals, 0.9)))
    (top, count), = bounds[:1]
    assert count.tolist() == [len(tvals)]
    assert top[0] == pytest.approx(tvals.max(), rel=1e-12)
    edges = np.diff(levels[-1].ptr)
    built = edges > 0
    assert 0 < built.sum() < len(built)
    assert edges[built].tolist() == bounds[-1][1][built].tolist()


def test_completion_count_refused_at_two_to_the_62():
    # L levels of one state with two edges to the next state, above a last
    # level whose one state has two completions, give 2^(L + 1) completions:
    # 2^61 is counted exactly, 2^62 refused
    level = exactdist._ColumnLevel(
        ptr=np.array([0, 2]), child=np.zeros(2, dtype=np.int64), vids=(),
        logw=np.zeros(2), ridx=np.zeros(2, dtype=np.int64), tterm=np.array([0.0, 1.0]))
    last = (np.array([1.0]), np.array([2]))
    bounds = exactdist._completion_bounds([level] * 60, *last)
    assert int(bounds[0][1][0]) == 2**61
    assert bounds[0][0][0] == 61.0
    with pytest.raises(ValueError, match="64-bit"):
        exactdist._completion_bounds([level] * 61, *last)


@pytest.mark.parametrize("make", [
    lambda I: weighted_sum_statistic((1.0, -2.0, 0.5, 3.0, -1.5)[:I], (0.5, -1.0, 2.5)),
    lambda I: chi2_statistic(),
    lambda I: g2_statistic(),
    lambda I: cell_statistic(1, 2),
], ids=["weighted", "chi2", "g2", "cell"])
def test_last_level_bounds_equal_the_edges(make, rng):
    # a last-level state's bound is the largest forward sum over its edges,
    # within the pruning guard, and its count is the number of its edges
    for _ in range(40):
        I = int(rng.integers(2, 6))
        stat = make(I)
        s = rng.integers(0, 7, size=I) + np.eye(I, dtype=np.int64)[0] * 2
        c = int(rng.integers(1, s.sum()))  # chi2 and G2 need both margins positive
        rows, cols = s + rng.integers(1, 4, size=I), (7, c, int(s.sum()) - c)
        terms = [stat.cell_terms(np.broadcast_to(np.arange(n + 1)[:, None], (n + 1, I)),
                                 j, rows, n, 3) for j, n in ((1, cols[1]), (2, cols[2]))]
        top, count = exactdist._last_level_bounds(s[None, :], *terms)
        v = _bounded_compositions(c, s)
        paths = (stat.cell_terms(v, 1, rows, cols[1], 3).sum(axis=1)
                 + stat.cell_terms(s - v, 2, rows, cols[2], 3).sum(axis=1))
        assert count.tolist() == [len(v)]
        M = sum(float(np.abs(t).max(axis=0).sum()) for t in terms)
        assert abs(top[0] - paths.max()) <= (I + 3) * 2.0**-51 * M
        assert top[0] == pytest.approx(paths.max(), rel=1e-12, abs=1e-12)


def test_chi2_and_g2_match_scipy_on_every_table():
    # an independent reference for the column-term formulas: scipy's
    # Pearson and log-likelihood statistics on every table of the margins
    m = Margins((5, 5, 5), (2, 5, 8))
    tables = enumerate_fixed_margin_array(m)
    for stat, lambda_ in ((chi2_statistic(), None), (g2_statistic(), "log-likelihood")):
        want = [chi2_contingency(t, correction=False, lambda_=lambda_)[0] for t in tables]
        np.testing.assert_allclose(stat.evaluate_batch(tables), want, rtol=1e-12, atol=0,
                                   err_msg=stat.name)


def test_score_length_mismatch_in_j_is_a_value_error():
    # two column scores on a 3 x 3 table: refused by the column-term hook,
    # never an IndexError from indexing beta with column 2
    stat = ordinal_statistic((0, 1, 2), (0, 1))
    table = ContingencyTable.from_array([[2, 1, 0], [1, 1, 1], [0, 1, 2]])
    with pytest.raises(ValueError, match="score lengths"):
        stat(table)
    with pytest.raises(ValueError, match="score lengths"):
        RejectionAggregate(table.margins(), stat, 1.0, (0, 1, 1))


@pytest.mark.parametrize("critical", [math.nan, math.inf, -math.inf])
def test_tail_paths_refuse_non_finite_critical_values(critical):
    # nan compares false with every value, so it would pass for p = 0
    with pytest.raises(ValueError, match="critical value must be finite"):
        signscore_tail((0, 1, 2), (3, 3, 3), 4, [0, 0.5, 1.0], critical)
    with pytest.raises(ValueError, match="critical value must be finite"):
        tail_mass(np.array([0.0, 1.0]), np.array([0.5, 0.5]), critical)
    with pytest.raises(ValueError, match="critical value must be finite"):
        tail_mass(np.array([0.0, 1.0]), np.array([0.5, 0.5]), np.array([0.5, critical]))


def test_tail_mass_over_a_law_stack_and_many_critical_values(rng):
    # the suffix-sum tails equal a masked sum per (law, critical value), ties
    # (within statistic_tolerance) included on the upper side
    values = rng.integers(0, 6, 40) * 0.5 + rng.choice([0.0, 1e-12], 40)
    probs = rng.random((3, 40))
    probs /= probs.sum(axis=1, keepdims=True)
    critical = np.concatenate([values[:10], [-1.0, 2.5, 2.5 + 1e-7, 99.0]])
    got = tail_mass(values, probs, critical)
    assert got.shape == (3, len(critical))
    for g in range(3):
        for c, v in zip(critical, got[g]):
            want = probs[g][values >= c - statistic_tolerance(c)].sum()
            assert v == pytest.approx(want, rel=1e-14, abs=1e-300)
            assert tail_mass(values, probs[g], c) == v
    assert got[:, -1].tolist() == [0.0] * 3
