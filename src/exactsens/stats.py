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
per-cell terms ``TestStatistic.cell_terms(counts, j, rows, col, J)`` given
the margins: a column's term is their sum over the rows, whole tables are
scored by summing those over the columns, the exact engine scores a table
from its columns without building it, and bounds the statistic over the
tables a partial table completes to from the cell terms alone.  All tests are
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

    ``cell_terms`` states that T(t) = sum_ij f_ij(t_ij) given the margins:
    ``cell_terms(counts, j, rows, col, J)`` maps an (n, I) array of column-j
    counts to their (n, I) terms f_ij, given the row margins ``rows`` (shape
    (I,), shared by all n, or (n, I)), the column-j margin ``col`` (a scalar
    or shape (n,)) and the number of columns J.  It raises ``ValueError`` on
    tables the statistic is not defined for.  ``evaluate_batch`` maps an
    (M, I, J) count array to an (M,) float array by summing each column's
    terms over the rows and those column terms over the columns, and single
    tables go through the same code path, so tie decisions are reproducible.

    ``batch``, an (M, I, J) -> (M,) function, defines an opaque statistic
    instead (``cell_terms`` None), which is only ever evaluated on whole
    tables.  A statistic needs one of the two.
    """

    family: TestFamily
    name: str
    batch: Callable[[np.ndarray], np.ndarray] | None = None
    alpha: tuple[float, ...] | None = None
    beta: tuple[float, ...] | None = None
    cell_terms: Callable[..., np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.batch is None and self.cell_terms is None:
            raise ValueError("a statistic needs cell_terms or a whole-table batch")

    def __call__(self, t: ContingencyTable | np.ndarray) -> float:
        arr = t.as_array() if isinstance(t, ContingencyTable) else np.asarray(t)
        return float(self.evaluate_batch(arr[None, :, :])[0])

    def evaluate_batch(self, tables: np.ndarray) -> np.ndarray:
        tables = np.asarray(tables)
        if self.cell_terms is None:
            return np.asarray(self.batch(tables), dtype=float)
        # the margins and the column terms are added slice by slice: a numpy
        # sum over a short axis runs one inner loop per table
        rows = sum(tables[:, :, 1:].transpose(2, 0, 1), tables[:, :, 0])
        cols = sum(tables[:, 1:].transpose(1, 0, 2), tables[:, 0])
        out = np.zeros(len(tables))
        for j in range(tables.shape[2]):
            out += self.column_terms(tables[:, :, j], j, rows, cols[:, j], tables.shape[2])
        return out

    def column_terms(
        self, counts: np.ndarray, j: int, rows: np.ndarray, col, J: int
    ) -> np.ndarray:
        """(n,) column terms: the row sums of ``cell_terms``, added row by row.

        Whole tables and the exact engine's column vectors are scored by this
        one sum, so both see the same floats.
        """
        cells = np.asarray(self.cell_terms(counts, j, rows, col, J), dtype=float)
        return sum(cells.T[1:], cells[:, 0])


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
    return TestStatistic(fam, f"ordinal[{a}x{b}]", alpha=a, beta=b, cell_terms=ws.cell_terms)


def sign_score_statistic(alpha: Sequence[float]) -> TestStatistic:
    """T = sum_i alpha_i N_i2 on an I x 2 table (beta fixed at (0, 1))."""
    stat = ordinal_statistic(alpha, (0.0, 1.0))
    return TestStatistic(
        TestFamily.SIGN_SCORE, f"signscore[{stat.alpha}]",
        alpha=stat.alpha, beta=stat.beta, cell_terms=stat.cell_terms,
    )


def _expected(rows: np.ndarray, col: np.ndarray | int) -> np.ndarray:
    """Expected counts N_i. N_.j / N under row margins ``rows`` and column margin ``col``."""
    rows = np.asarray(rows, dtype=float)
    col = np.asarray(col, dtype=float)
    if np.any(rows <= 0) or np.any(col <= 0):
        raise ValueError("chi2/G2 need every row and column margin positive")
    return rows * col[..., None] / rows.sum(axis=-1, keepdims=True)


def chi2_statistic() -> TestStatistic:
    def cell_terms(counts: np.ndarray, j: int, rows: np.ndarray, col, J: int) -> np.ndarray:
        expected = _expected(rows, col)
        return (counts - expected) ** 2 / expected

    return TestStatistic(TestFamily.PERMUTATION_INVARIANT, "chi2", cell_terms=cell_terms)


def g2_statistic() -> TestStatistic:
    def cell_terms(counts: np.ndarray, j: int, rows: np.ndarray, col, J: int) -> np.ndarray:
        expected = _expected(rows, col)
        v = counts.astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(v > 0, v * np.log(v / expected), 0.0)  # zero cells contribute 0
        return 2.0 * terms

    return TestStatistic(TestFamily.PERMUTATION_INVARIANT, "g2", cell_terms=cell_terms)


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

    def cell_terms(counts: np.ndarray, j: int, rows: np.ndarray, col, J: int) -> np.ndarray:
        if counts.shape[-1] != len(a) or J != len(b):
            raise ValueError("score lengths must match table dimensions")
        return bv[j] * (counts * av)

    return TestStatistic(
        TestFamily.PERMUTATION_INVARIANT, f"weighted[{a}x{b}]",
        alpha=a, beta=b, cell_terms=cell_terms,
    )


def cell_statistic(i: int, j: int) -> TestStatistic:
    """Single cell count N_ij as the statistic (Fisher-style corner test)."""
    if i < 0 or j < 0:
        raise ValueError("cell indices must be non-negative")

    def cell_terms(counts: np.ndarray, k: int, rows: np.ndarray, col, J: int) -> np.ndarray:
        if i >= counts.shape[-1] or j >= J:
            raise ValueError("cell index out of range")
        out = np.zeros(counts.shape)
        if k == j:
            out[..., i] = counts[..., i]
        return out

    return TestStatistic(TestFamily.PERMUTATION_INVARIANT, f"cell[{i},{j}]",
                         cell_terms=cell_terms)


def permutation_invariant_statistic(
    fn: Callable[[np.ndarray], float], name: str = "custom"
) -> TestStatistic:
    """Wrap a user table-function; batch evaluation falls back to a loop.

    The result is opaque (no ``cell_terms``): the exact engine rebuilds
    whole tables to evaluate it, and cannot bound it to skip any.
    """

    def batch(tables: np.ndarray) -> np.ndarray:
        return np.array([fn(tab) for tab in tables], dtype=float)

    return TestStatistic(TestFamily.PERMUTATION_INVARIANT, name, batch)
