"""Sampling-based p-value estimators over the fixed-margin table space.

The row-fill proposal (Chen, Diaconis, Holmes & Liu, JASA 2005) fills cells
row-major: cell (i, j) is drawn from its feasibility interval with
probability proportional to C(crem_j, x) * C(rest_j, rrem_i - x), the
hypergeometric law of how the remaining row quota splits between column j
and the columns after it.  Every fixed-margin table has positive proposal
probability and the exact log-probability h(t) accumulates cell by cell
(forced cells contribute 0).  ``sis_sample_batch`` draws from it and
``sis_log_proposal`` scores a given table under it.

With v(t) = sum_q e^{gamma delta'q} kernel_t_q(t, q) and the normalizer
C(u) = sum_q e^{gamma delta'q} kernel_q(q), the estimators are

    SIS       : (1 / (M C(u))) sum_m 1{T(t_m) >= c} v(t_m) / h(t_m)
    snSIS     : sum_m 1{T >= c} v/h  /  sum_m v/h
    PermTreat : self-normalized importance ratio over uniformly sampled
                treatment permutations, scored as the oracle scores its
                assignments (no kernels; slow-converging baseline)

SIS and snSIS draw from the confounder-aware proposal
(``TILTED_PROPOSAL_NAME``).  For binary delta the target law factors per
outcome column through the delta-block sums b_j as prod_j e^{G_j[b_j]},
with G_j[b] = log sum_d chi_j[b, d] e^{gamma d} from the column profiles of
``exactdist._log_column_profile``.  The proposal draws the block sums from
that exact tilted marginal (``exactdist._sequential_weighted_draw``) and
then fills each block by the row-fill proposal, which is the
uniform-assignment law of a block.  So h(t) = v(t) / C(u) for every table:
each ratio v/h equals C(u), and both formulas reduce to the running share
of rejected draws, k_m / m.  ``estimate_alpha_sis`` returns that one
trace; the proposal's exact log h stays available from ``_tilted_fill`` as
the certificate that the ratios are flat.

Reproducibility: an estimator call draws its M rows in order from one
``np.random.default_rng(seed)``, so the trace of M draws is the first M
entries of any longer run with the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.random  # noqa: F401  (loaded at import, not lazily at the first draw)

from exactsens.exactdist import (
    _assignment_scores,
    _check_subject_data,
    _log_binom,
    _log_column_profile,
    _resolve_critical,
    _sequential_weighted_draw,
    log_factorials,
    logsumexp,
    statistic_tolerance,
)
from exactsens.sensmodel import ConfounderClass, RawConfounder, SensitivityError, SensitivityModel
from exactsens.stats import TestStatistic
from exactsens.tables import ContingencyTable, Margins

__all__ = [
    "EstimatorTrace",
    "sis_sample_batch",
    "sis_log_proposal",
    "estimate_alpha_sis",
    "estimate_alpha_permtreat",
    "TILTED_PROPOSAL_NAME",
]

TILTED_PROPOSAL_NAME = "blocksum-exact-tilted"


@dataclass(frozen=True)
class EstimatorTrace:
    method: str
    estimates: np.ndarray  # running estimate after each iteration
    final: float


def _free_cells(m: Margins) -> int:
    return (m.I - 1) * (m.J - 1)


def _sis_fill(
    rows: Sequence[int], colmat: np.ndarray, U: np.ndarray, ucol0: int = 0
) -> tuple[np.ndarray, np.ndarray, int]:
    """Fill tables row-major from pre-drawn uniforms.

    ``colmat`` holds per-sample column margins (they differ across samples in
    the block-fill stage).  One column of U is consumed per free cell; forced
    cells contribute log-probability 0.  Returns (tables, log_h, next ucol).
    """
    size = U.shape[0]
    I = len(rows)
    J = colmat.shape[1]
    out = np.zeros((size, I, J), dtype=np.int64)
    crem = colmat.astype(np.int64).copy()
    log_h = np.zeros(size)
    lf = log_factorials(sum(rows))
    ucol = ucol0
    for i in range(I - 1):
        rrem = np.full(size, rows[i], dtype=np.int64)
        for j in range(J - 1):
            rest = crem[:, j + 1 :].sum(axis=1)
            lo = np.maximum(0, rrem - rest)
            hi = np.minimum(rrem, crem[:, j])
            width = int((hi - lo).max()) + 1
            xs = lo[:, None] + np.arange(width)[None, :]
            logw = _log_binom(lf, crem[:, j, None], xs) + _log_binom(
                lf, rest[:, None], rrem[:, None] - xs
            )
            norm = logsumexp(logw, axis=1)
            p = np.exp(logw - norm[:, None])
            p /= p.sum(axis=1, keepdims=True)
            cum = np.cumsum(p, axis=1)
            pick = (U[:, ucol, None] > cum).sum(axis=1)
            pick = np.minimum(pick, hi - lo)
            ucol += 1
            x = lo + pick
            log_h += logw[np.arange(size), pick] - norm
            out[:, i, j] = x
            crem[:, j] -= x
            rrem = rrem - x
        out[:, i, J - 1] = rrem  # forced cell, log-probability 0
        crem[:, J - 1] -= rrem
    out[:, I - 1, :] = crem  # last row forced
    return out, log_h, ucol


def _tilted_column_weights(
    m: Margins, c: ConfounderClass, gamma: float
) -> list[np.ndarray]:
    """G_j[b] = log sum_d chi_j[b, d] e^{gamma d} over b = 0..N_.j, per column j."""
    logfact = log_factorials(m.N)
    return [
        logsumexp(_log_column_profile(logfact, cj, [uj])[0] + gamma * np.arange(uj + 1), axis=1)
        for cj, uj in zip(m.cols, c.ubar)
    ]


def _tilted_fill(
    m: Margins,
    c: ConfounderClass,
    model: SensitivityModel,
    U: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Confounder-aware proposal: exact block-sum marginal, uniform block fills.

    The target table law factorizes through the per-column sums b_j of the
    delta = 1 rows: P(b) ~ prod_j e^{G_j[b_j]} (``_tilted_column_weights``),
    after which each block is a plain fixed-margin fill.  Drawing b from that
    exact marginal and the blocks uniformly reproduces the target law itself,
    so importance ratios v/h are flat; h stays exact and every table keeps
    positive probability.
    """
    one_rows = [i for i, dv in enumerate(model.delta) if dv == 1]  # type: ignore[arg-type]
    zero_rows = [i for i, dv in enumerate(model.delta) if dv == 0]  # type: ignore[arg-type]
    B = sum(m.rows[i] for i in one_rows)
    size = U.shape[0]
    J = m.J
    bdraw, log_hb, ucol = _sequential_weighted_draw(
        U, _tilted_column_weights(m, c, model.gamma), B
    )
    adraw = np.asarray(m.cols, dtype=np.int64)[None, :] - bdraw
    out = np.zeros((size, m.I, J), dtype=np.int64)
    log_h = log_hb
    for rows_idx, colmat in ((zero_rows, adraw), (one_rows, bdraw)):
        sub, lh, ucol = _sis_fill(tuple(m.rows[i] for i in rows_idx), colmat, U, ucol)
        out[:, rows_idx, :] = sub
        log_h += lh
    return out, log_h


def sis_log_proposal(m: Margins, table: np.ndarray | ContingencyTable) -> float:
    """Exact log h(t) of a given fixed-margin table under the proposal."""
    arr = table.as_array() if isinstance(table, ContingencyTable) else np.asarray(table)
    if tuple(arr.sum(axis=1)) != m.rows or tuple(arr.sum(axis=0)) != m.cols:
        raise ValueError("table margins do not match")
    crem = list(m.cols)
    log_h = 0.0
    for i in range(m.I - 1):
        rrem = m.rows[i]
        for j in range(m.J - 1):
            rest = sum(crem[j + 1 :])
            lo = max(0, rrem - rest)
            hi = min(rrem, crem[j])
            x = int(arr[i, j])
            num = math.lgamma(crem[j] + 1) - math.lgamma(x + 1) - math.lgamma(crem[j] - x + 1)
            num += (
                math.lgamma(rest + 1)
                - math.lgamma(rrem - x + 1)
                - math.lgamma(rest - (rrem - x) + 1)
            )
            den = logsumexp(
                np.array(
                    [
                        math.lgamma(crem[j] + 1)
                        - math.lgamma(v + 1)
                        - math.lgamma(crem[j] - v + 1)
                        + math.lgamma(rest + 1)
                        - math.lgamma(rrem - v + 1)
                        - math.lgamma(rest - (rrem - v) + 1)
                        for v in range(lo, hi + 1)
                    ]
                )
            )
            log_h += num - den
            crem[j] -= x
            rrem -= x
        crem[m.J - 1] -= rrem
    return float(log_h)


def sis_sample_batch(
    rng: np.random.Generator, m: Margins, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """(size, I, J) tables and (size,) log h values from one shared stream."""
    U = rng.random((size, _free_cells(m)))
    tabs, log_h, _ = _sis_fill(m.rows, np.tile(np.asarray(m.cols), (size, 1)), U)
    return tabs, log_h


def estimate_alpha_sis(
    seed: int,
    test: TestStatistic,
    t_obs: ContingencyTable,
    c: ConfounderClass,
    model: SensitivityModel,
    critical: float | None = None,
    M: int = 10_000,
) -> EstimatorTrace:
    """The SIS trace of M tilted draws, which is also the snSIS trace.

    The proposal is the target law, so every importance ratio v/h is C(u):
    both the unbiased (1/(M C(u))) sum 1{T>=c} v/h and the self-normalized
    estimator are the running share of rejected draws.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    if not model.is_binary:
        raise SensitivityError(
            "the SIS proposal draws delta-block column sums, so it requires a binary delta"
        )
    m = t_obs.margins()
    model.validate_for(m)
    c.validate_for(m)
    critical = _resolve_critical(test, t_obs, critical)
    U = np.random.default_rng(seed).random((M, _free_cells(m)))
    tables, _ = _tilted_fill(m, c, model, U)
    keep = test.evaluate_batch(tables) >= critical - statistic_tolerance(critical)
    running = np.cumsum(keep) / np.arange(1, M + 1)
    return EstimatorTrace("SIS", running, float(running[-1]))


def estimate_alpha_permtreat(
    seed: int,
    test: TestStatistic,
    t_obs: ContingencyTable,
    u: RawConfounder,
    outcome_vector: Sequence[int],
    model: SensitivityModel,
    critical: float | None = None,
    M: int = 10_000,
) -> EstimatorTrace:
    """Kernel-free baseline: uniform treatment permutations, tilted weights.

    Takes the oracle's arguments (``brute_force_alpha``): the table fixes I,
    J and the treatment margins, and the subject-level data must reproduce
    its outcome margins.  Converges slowly because the permutation space
    dwarfs the table space; kept as the documented comparison point,
    including dose models.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    m = t_obs.margins()
    outcomes = _check_subject_data(m, u, outcome_vector, model)
    critical = _resolve_critical(test, t_obs, critical)
    base = np.repeat(np.arange(m.I), m.rows)
    Z = np.random.default_rng(seed).permuted(np.tile(base, (M, 1)), axis=1)
    tabs, tilt = _assignment_scores(Z, outcomes, u.u, model.bias, m)
    keep = test.evaluate_batch(tabs) >= critical - statistic_tolerance(critical)
    logw = model.gamma * tilt  # running log sums: entry m reads the first m draws only
    log_num = np.logaddexp.accumulate(np.where(keep, logw, -np.inf))
    running = np.exp(log_num - np.logaddexp.accumulate(logw))
    return EstimatorTrace("PermTreat", running, float(running[-1]))
