"""Test statistics over contingency tables.

Three nested families drive how hard the worst-case confounder search is:

* permutation-invariant: any function of the table alone, candidate set
  O(N^J);
* ordinal: T = sum_ij alpha_i beta_j N_ij with non-decreasing scores,
  candidate set O(N);
* sign-score: the J = 2 specialization T = sum_i alpha_i N_i2, closed-form
  worst case.

Statistics are functions of the table only (the subject-level view lives in
the brute-force oracle).  The built-in ones are also sums of per-column terms,
which they expose through ``TestStatistic.column_terms`` so the exact engine
can score a table from its columns without building it.  All tests are
upper-tailed, p = P(T >= c) with ties included; express a lower-tail test by
negating scores.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from exactsens.tables import ContingencyTable, Margins

__all__ = [
    "TestFamily",
    "TestStatistic",
    "ordinal_statistic",
    "sign_score_statistic",
    "weighted_sum_statistic",
    "chi2_statistic",
    "g2_statistic",
    "cell_statistic",
    "permutation_invariant_statistic",
]


class TestFamily(enum.Enum):
    PERMUTATION_INVARIANT = "permutation_invariant"
    ORDINAL = "ordinal"
    SIGN_SCORE = "sign_score"


@dataclass(frozen=True)
class TestStatistic:
    """A named table statistic with a vectorized evaluator.

    ``batch`` maps an (M, I, J) count array to an (M,) float array; single
    tables go through the same code path so tie decisions are reproducible.

    ``column_terms``, when set, states that T(t) = sum_j f_j(t[:, j]) on
    tables with margins m: ``column_terms(vectors, j, m)`` maps an (n, I)
    array of candidate column-j vectors to their (n,) terms f_j.  It raises
    the errors ``batch`` would raise on such tables.  ``None`` marks an
    opaque statistic, which is only ever evaluated on whole tables.
    """

    family: TestFamily
    name: str
    batch: Callable[[np.ndarray], np.ndarray]
    alpha: tuple[float, ...] | None = None
    beta: tuple[float, ...] | None = None
    column_terms: Callable[[np.ndarray, int, Margins], np.ndarray] | None = None

    def __call__(self, t: ContingencyTable | np.ndarray) -> float:
        arr = t.as_array() if isinstance(t, ContingencyTable) else np.asarray(t)
        return float(self.batch(arr[None, :, :])[0])

    def evaluate_batch(self, tables: np.ndarray) -> np.ndarray:
        return np.asarray(self.batch(tables), dtype=float)


def _require_monotone(scores: Sequence[float], what: str) -> tuple[float, ...]:
    vals = tuple(float(v) for v in scores)
    if any(not math.isfinite(v) for v in vals):
        raise ValueError(f"{what} scores must be finite")
    if any(a > b for a, b in zip(vals, vals[1:])):
        raise ValueError(f"{what} scores must be non-decreasing")
    return vals


def ordinal_statistic(alpha: Sequence[float], beta: Sequence[float]) -> TestStatistic:
    a = _require_monotone(alpha, "row")
    b = _require_monotone(beta, "column")
    # with two outcome levels T is a non-decreasing affine map of the
    # sign-score statistic, so the O(1) worst case applies
    fam = TestFamily.SIGN_SCORE if len(b) == 2 else TestFamily.ORDINAL
    ws = weighted_sum_statistic(a, b)
    return TestStatistic(fam, f"ordinal[{a}x{b}]", ws.batch, alpha=a, beta=b,
                         column_terms=ws.column_terms)


def sign_score_statistic(alpha: Sequence[float]) -> TestStatistic:
    """T = sum_i alpha_i N_i2 on an I x 2 table (beta fixed at (0, 1))."""
    stat = ordinal_statistic(alpha, (0.0, 1.0))
    return TestStatistic(
        TestFamily.SIGN_SCORE, f"signscore[{stat.alpha}]", stat.batch,
        alpha=stat.alpha, beta=stat.beta, column_terms=stat.column_terms,
    )


def _check_positive_margins(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows = tables.sum(axis=2)
    cols = tables.sum(axis=1)
    if np.any(rows <= 0) or np.any(cols <= 0):
        raise ValueError("chi2/G2 need every row and column margin positive")
    return rows, cols


def _column_expected(m: Margins, j: int) -> np.ndarray:
    """Expected counts N_i. N_.j / N of column j; an empty column is refused as in batch."""
    if min(m.cols) <= 0:  # Margins already refuses empty rows
        raise ValueError("chi2/G2 need every row and column margin positive")
    return np.asarray(m.rows, dtype=float) * float(m.cols[j]) / float(m.N)


def chi2_statistic() -> TestStatistic:
    def batch(tables: np.ndarray) -> np.ndarray:
        arr = tables.astype(float)
        rows, cols = _check_positive_margins(arr)
        N = arr.sum(axis=(1, 2), keepdims=True)
        expected = rows[:, :, None] * cols[:, None, :] / N
        return ((arr - expected) ** 2 / expected).sum(axis=(1, 2))

    def column_terms(vectors: np.ndarray, j: int, m: Margins) -> np.ndarray:
        expected = _column_expected(m, j)
        return ((vectors - expected) ** 2 / expected).sum(axis=1)

    return TestStatistic(TestFamily.PERMUTATION_INVARIANT, "chi2", batch,
                         column_terms=column_terms)


def g2_statistic() -> TestStatistic:
    def batch(tables: np.ndarray) -> np.ndarray:
        arr = tables.astype(float)
        rows, cols = _check_positive_margins(arr)
        N = arr.sum(axis=(1, 2), keepdims=True)
        expected = rows[:, :, None] * cols[:, None, :] / N
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = arr * np.log(arr / expected)
        terms = np.where(arr > 0, terms, 0.0)  # zero cells contribute 0
        return 2.0 * terms.sum(axis=(1, 2))

    def column_terms(vectors: np.ndarray, j: int, m: Margins) -> np.ndarray:
        expected = _column_expected(m, j)
        v = vectors.astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(v > 0, v * np.log(v / expected), 0.0)
        return 2.0 * terms.sum(axis=1)

    return TestStatistic(TestFamily.PERMUTATION_INVARIANT, "g2", batch,
                         column_terms=column_terms)


def weighted_sum_statistic(alpha: Sequence[float], beta: Sequence[float]) -> TestStatistic:
    """Score-weighted cell sum without monotonicity; permutation-invariant only.

    Non-monotone scores forfeit the ordinal candidate-set shortcut, so the
    worst-case search falls back to the full per-outcome-class scan.
    """
    a = tuple(float(v) for v in alpha)
    b = tuple(float(v) for v in beta)
    if any(not math.isfinite(v) for v in a + b):
        raise ValueError("scores must be finite")
    av = np.asarray(a)
    bv = np.asarray(b)

    def check(I: int, J: int) -> None:
        if I != len(a) or J != len(b):
            raise ValueError("score lengths must match table dimensions")

    def batch(tables: np.ndarray) -> np.ndarray:
        check(tables.shape[1], tables.shape[2])
        return np.einsum("i,j,mij->m", av, bv, tables.astype(float))

    def column_terms(vectors: np.ndarray, j: int, m: Margins) -> np.ndarray:
        check(m.I, m.J)
        return bv[j] * (vectors @ av)

    return TestStatistic(
        TestFamily.PERMUTATION_INVARIANT, f"weighted[{a}x{b}]", batch,
        alpha=a, beta=b, column_terms=column_terms,
    )


def cell_statistic(i: int, j: int) -> TestStatistic:
    """Single cell count N_ij as the statistic (Fisher-style corner test)."""
    if i < 0 or j < 0:
        raise ValueError("cell indices must be non-negative")

    def check(I: int, J: int) -> None:
        if i >= I or j >= J:
            raise ValueError("cell index out of range")

    def batch(tables: np.ndarray) -> np.ndarray:
        check(tables.shape[1], tables.shape[2])
        return tables[:, i, j].astype(float)

    def column_terms(vectors: np.ndarray, col: int, m: Margins) -> np.ndarray:
        check(m.I, m.J)
        return vectors[:, i].astype(float) if col == j else np.zeros(len(vectors))

    return TestStatistic(TestFamily.PERMUTATION_INVARIANT, f"cell[{i},{j}]", batch,
                         column_terms=column_terms)


def permutation_invariant_statistic(
    fn: Callable[[np.ndarray], float], name: str = "custom"
) -> TestStatistic:
    """Wrap a user table-function; batch evaluation falls back to a loop.

    The result is opaque (no ``column_terms``): the exact engine rebuilds
    whole tables to evaluate it.
    """

    def batch(tables: np.ndarray) -> np.ndarray:
        return np.array([fn(tab) for tab in tables], dtype=float)

    return TestStatistic(TestFamily.PERMUTATION_INVARIANT, name, batch)
