"""Test-statistic families and evaluators."""

import numpy as np
import pytest

from exactsens.stats import (
    cell_statistic,
    chi2_statistic,
    g2_statistic,
    ordinal_statistic,
    sign_score_statistic,
    weighted_sum_statistic,
)
from exactsens.stats import TestFamily as Family  # avoid pytest class collection
from exactsens.stats import TestStatistic as Statistic
from exactsens.tables import ContingencyTable


T1 = ContingencyTable.from_array([[3, 2, 1], [0, 2, 4], [0, 1, 5]])


def test_ordinal_arithmetic():
    assert ordinal_statistic((0, 1, 2.5), (0, 1, 2))(T1) == pytest.approx(37.5)
    assert ordinal_statistic((0, 0, 0), (0, 1, 2))(T1) == 0.0
    with pytest.raises(ValueError):
        ordinal_statistic((0, 1), (0, 1, 2))(T1)


def test_ordinal_is_weighted_sum_with_monotone_scores():
    tables = np.array([T1.counts, [[1, 2, 3], [2, 2, 2], [3, 2, 1]]])
    a, b = (0, 1, 2.5), (0, 1, 2)
    np.testing.assert_array_equal(
        ordinal_statistic(a, b).evaluate_batch(tables),
        weighted_sum_statistic(a, b).evaluate_batch(tables),
    )
    assert ordinal_statistic(a, b).family is Family.ORDINAL
    assert weighted_sum_statistic(a, b).family is Family.PERMUTATION_INVARIANT
    with pytest.raises(ValueError, match="non-decreasing"):
        ordinal_statistic((0, 2, 1), b)
    with pytest.raises(ValueError, match="finite"):
        ordinal_statistic(a, (0, 1, float("nan")))


def test_sign_score_reduction():
    t = ContingencyTable.from_array([[3, 1], [0, 5], [2, 2]])
    stat = ordinal_statistic((0, 1, 2), (0, 1))
    assert stat(t) == pytest.approx(0 * 1 + 1 * 5 + 2 * 2)
    assert stat.family is Family.SIGN_SCORE
    assert sign_score_statistic((0, 1, 2))(t) == stat(t)


def test_chi2():
    assert chi2_statistic()(ContingencyTable.from_array([[2, 2], [2, 2]])) == 0.0
    assert chi2_statistic()(ContingencyTable.from_array([[1, 0], [0, 1]])) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        chi2_statistic()(ContingencyTable.from_array([[1, 0], [1, 0]]))


def test_g2():
    assert g2_statistic()(ContingencyTable.from_array([[2, 2], [2, 2]])) == pytest.approx(0.0)
    # zero cells contribute nothing
    v = g2_statistic()(ContingencyTable.from_array([[2, 0], [1, 3]]))
    assert np.isfinite(v) and v > 0


def test_row_swap_invariance():
    arr = np.array([[3, 2, 1], [0, 2, 4], [0, 1, 5]])
    swapped = arr[[1, 0, 2]]
    for stat in (chi2_statistic(), g2_statistic()):
        assert stat(ContingencyTable.from_array(arr)) == pytest.approx(
            stat(ContingencyTable.from_array(swapped))
        )


def test_cell_statistic():
    t = ContingencyTable.from_array([[3, 1], [0, 5]])
    assert cell_statistic(1, 1)(t) == 5.0
    assert cell_statistic(0, 0)(ContingencyTable.from_array([[0, 0], [0, 1]])) == 0.0
    with pytest.raises(ValueError):
        cell_statistic(0, 5)(t)


def test_monotonicity_enforced():
    with pytest.raises(ValueError):
        ordinal_statistic((1, 0), (0, 1))
    with pytest.raises(ValueError):
        ordinal_statistic((0, 1), (2, 1))


def test_arrangement_increasing(rng):
    # swapping a discordant treatment pair cannot decrease an ordinal statistic
    alpha = np.sort(rng.uniform(0, 2, size=3))
    beta = np.sort(rng.uniform(0, 2, size=3))
    stat = ordinal_statistic(alpha, beta)
    for _ in range(100):
        z = rng.integers(0, 3, size=8)
        r = rng.integers(0, 3, size=8)
        pairs = [
            (a, b)
            for a in range(8)
            for b in range(8)
            if a != b and (z[a] - z[b]) * (r[a] - r[b]) <= 0
        ]
        if not pairs:
            continue
        a, b = pairs[rng.integers(0, len(pairs))]
        z2 = z.copy()
        z2[a], z2[b] = z2[b], z2[a]

        def table(zv):
            tab = np.zeros((3, 3), dtype=int)
            for zi, ri in zip(zv, r):
                tab[zi, ri] += 1
            return tab

        before = float(stat.evaluate_batch(table(z)[None])[0])
        after = float(stat.evaluate_batch(table(z2)[None])[0])
        assert after >= before - 1e-12


def test_batch_matches_scalar(rng):
    # the tables' margins differ, so each table's terms use its own rows
    tabs = rng.integers(0, 5, size=(20, 3, 3)) + 1
    assert len({tuple(r) for r in tabs.sum(axis=2)}) > 1
    for stat in (ordinal_statistic((0, 1, 2), (0, 0.5, 2)), chi2_statistic(), g2_statistic(),
                 cell_statistic(1, 2)):
        batch = stat.evaluate_batch(tabs)
        for k in range(20):
            assert batch[k] == pytest.approx(stat(tabs[k]), rel=1e-12), stat.name


def test_statistic_needs_cell_terms_or_a_batch():
    with pytest.raises(ValueError, match="cell_terms or a whole-table batch"):
        Statistic(Family.PERMUTATION_INVARIANT, "empty")


def test_weighted_sum_accepts_nonmonotone():
    from exactsens.stats import weighted_sum_statistic

    stat = weighted_sum_statistic((0, 2, 1), (1, 0))
    assert stat.family is Family.PERMUTATION_INVARIANT
    t = ContingencyTable.from_array([[1, 1], [2, 0], [0, 2]])
    assert stat(t) == pytest.approx(0 * 1 + 2 * 2 + 1 * 0)
