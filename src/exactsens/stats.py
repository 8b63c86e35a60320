"""Test statistics over contingency tables.

Three nested families drive how hard the worst-case confounder search is:

* permutation-invariant: any function of the table alone, candidate set
  O(N^J);
* ordinal: T = sum_ij alpha_i beta_j N_ij with non-decreasing scores,
  candidate set O(N);
* sign-score: the J = 2 specialization T = sum_i alpha_i N_i2, closed-form
  worst case.

Statistics are functions of the table only (the subject-level view lives in
the brute-force oracle).  Each built-in statistic is one formula, a sum of
per-column terms ``TestStatistic.column_terms(vectors, j, rows, J)``: whole
tables are scored by summing them over the columns, and the exact engine
scores a table from its columns without building it.  All tests are
upper-tailed, p = P(T >= c) with ties included; express a lower-tail test by
negating scores.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from exactsens.tables import ContingencyTable

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

    ``column_terms`` states that T(t) = sum_j f_j(t[:, j]):
    ``column_terms(vectors, j, rows, J)`` maps an (n, I) array of column-j
    vectors to their (n,) terms f_j, given the row margins ``rows`` (shape
    (I,), shared by all vectors, or (n, I), one per vector) and the number
    of columns J.  It raises ``ValueError`` on tables the statistic is not
    defined for.  ``evaluate_batch`` maps an (M, I, J) count array to an
    (M,) float array by summing the terms over the columns, and single
    tables go through the same code path, so tie decisions are reproducible.

    ``batch``, an (M, I, J) -> (M,) function, defines an opaque statistic
    instead (``column_terms`` None), which is only ever evaluated on whole
    tables.  A statistic needs one of the two.
    """

    family: TestFamily
    name: str
    batch: Callable[[np.ndarray], np.ndarray] | None = None
    alpha: tuple[float, ...] | None = None
    beta: tuple[float, ...] | None = None
    column_terms: Callable[[np.ndarray, int, np.ndarray, int], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.batch is None and self.column_terms is None:
            raise ValueError("a statistic needs column_terms or a whole-table batch")

    def __call__(self, t: ContingencyTable | np.ndarray) -> float:
        arr = t.as_array() if isinstance(t, ContingencyTable) else np.asarray(t)
        return float(self.evaluate_batch(arr[None, :, :])[0])

    def evaluate_batch(self, tables: np.ndarray) -> np.ndarray:
        tables = np.asarray(tables)
        if self.column_terms is None:
            return np.asarray(self.batch(tables), dtype=float)
        rows, J = tables.sum(axis=2), tables.shape[2]
        out = np.zeros(len(tables))
        for j in range(J):
            out += self.column_terms(tables[:, :, j], j, rows, J)
        return out


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
    return TestStatistic(fam, f"ordinal[{a}x{b}]", alpha=a, beta=b,
                         column_terms=ws.column_terms)


def sign_score_statistic(alpha: Sequence[float]) -> TestStatistic:
    """T = sum_i alpha_i N_i2 on an I x 2 table (beta fixed at (0, 1))."""
    stat = ordinal_statistic(alpha, (0.0, 1.0))
    return TestStatistic(
        TestFamily.SIGN_SCORE, f"signscore[{stat.alpha}]",
        alpha=stat.alpha, beta=stat.beta, column_terms=stat.column_terms,
    )


def _expected(vectors: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Expected counts N_i. N_.j / N of the columns ``vectors`` under row margins ``rows``."""
    rows = np.asarray(rows, dtype=float)
    cols = vectors.sum(axis=-1, dtype=float)
    if np.any(rows <= 0) or np.any(cols <= 0):
        raise ValueError("chi2/G2 need every row and column margin positive")
    return rows * cols[:, None] / rows.sum(axis=-1, keepdims=True)


def chi2_statistic() -> TestStatistic:
    def column_terms(vectors: np.ndarray, j: int, rows: np.ndarray, J: int) -> np.ndarray:
        expected = _expected(vectors, rows)
        return ((vectors - expected) ** 2 / expected).sum(axis=1)

    return TestStatistic(TestFamily.PERMUTATION_INVARIANT, "chi2", column_terms=column_terms)


def g2_statistic() -> TestStatistic:
    def column_terms(vectors: np.ndarray, j: int, rows: np.ndarray, J: int) -> np.ndarray:
        expected = _expected(vectors, rows)
        v = vectors.astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(v > 0, v * np.log(v / expected), 0.0)  # zero cells contribute 0
        return 2.0 * terms.sum(axis=1)

    return TestStatistic(TestFamily.PERMUTATION_INVARIANT, "g2", column_terms=column_terms)


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

    def column_terms(vectors: np.ndarray, j: int, rows: np.ndarray, J: int) -> np.ndarray:
        if vectors.shape[-1] != len(a) or J != len(b):
            raise ValueError("score lengths must match table dimensions")
        return bv[j] * (vectors @ av)

    return TestStatistic(
        TestFamily.PERMUTATION_INVARIANT, f"weighted[{a}x{b}]",
        alpha=a, beta=b, column_terms=column_terms,
    )


def cell_statistic(i: int, j: int) -> TestStatistic:
    """Single cell count N_ij as the statistic (Fisher-style corner test)."""
    if i < 0 or j < 0:
        raise ValueError("cell indices must be non-negative")

    def column_terms(vectors: np.ndarray, col: int, rows: np.ndarray, J: int) -> np.ndarray:
        if i >= vectors.shape[-1] or j >= J:
            raise ValueError("cell index out of range")
        return vectors[:, i].astype(float) if col == j else np.zeros(len(vectors))

    return TestStatistic(TestFamily.PERMUTATION_INVARIANT, f"cell[{i},{j}]",
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
