"""Exact null distributions under the sensitivity model.

Conditioning on fixed treatment margins reduces the tilted assignment
distribution to a ratio of weighted assignment counts.  For a binary
confounder summarized by per-outcome counts ``ubar_j``, the two counting
kernels are

* ``kernel_q(q)``: assignments whose per-treatment u = 1 counts equal q,
* ``kernel_t_q(t, q)``: assignments additionally inducing the table t,

both exact non-negative integers given by products of binomial coefficients
(with C(n, k) = 0 outside 0 <= k <= n, so infeasible configurations vanish
without branching).  The significance level of an upper-tail test T >= c is

    alpha = sum_{t: T(t) >= c} sum_q e^{gamma delta'q} kernel_t_q(t, q)
            -----------------------------------------------------------
                      sum_q e^{gamma delta'q} kernel_q(q)

``exact_alpha`` has one evaluation path, ``RejectionAggregate``.  A binary
delta only enters through the scalar d = delta'q, and once q is summed out
subject to d the within-column choices telescope into closed-form binomials,
so each table's weight factors through its per-column delta-block sums into
a gamma-free tensor R.  R is built from a stream over the reference set that
never holds it: the table weight, the block sums and the built-in statistics
are sums of per-column terms, so a table is a path of per-column vector ids
through a column-by-column network (after Mehta & Patel, JASA 78:427-434,
1983), and prefixes of those paths are expanded in chunks of bounded memory
that carry only a few scalars each.  For a statistic of cell terms, a state
of the last level (two columns left) gets its largest remaining statistic
and its number of completions from a max-plus and a plus-times convolution
over its rows (``_last_level_bounds``), without its edges; one backward
pass carries both to every earlier state (``_completion_bounds``), and a
prefix whose bound cannot reach the critical value is counted and dropped
before it is expanded, as FEXACT cuts with its longest path (Mehta & Patel,
ACM TOMS 12:154-161, 1986).  The last level's edges, which are as many as
the tables when J = 3, are made only for the states a surviving prefix
reaches, and every table that can still reject is classified by its own
path sum, so the rejection region does not move.  A candidate
scan over a Gamma grid is then one batched log-domain pass
(``RejectionAggregate.alpha_table``): R is contracted column by column
against the per-column binomial profiles, batched over the classes, while
the d buckets are convolved, and one log-sum-exp over d yields every
(class, gamma) pair.  The ordinal scan's N + 1 suffix classes, whose columns
are empty, full or (one of them) partial, need no per-class contraction:
``RejectionAggregate.suffix_alpha_table`` folds R once from the last column
down and scores each column's partial classes against that fold, so R is
contracted J times.  No exact integer becomes a float, so large column
margins cannot overflow either scan, and classes go through in chunks of
bounded memory.

Two references check it; only the oracle battery and the tests call them.
``kernel_alpha`` sums the exact integer kernels per q over the rejected
tables.  ``brute_force_alpha`` scores every treatment assignment in flat
label blocks, and also supports real-valued u and dose models.

Each closed-form law the package shares is implemented once.  The
bounded-composition expander (``_bounded_compositions`` and
``_bounded_compositions_many``) lives in ``tables``, where it also builds
``enumerate_fixed_margin_array``; here it gives the supports behind
``omega_q``, the MVEHG laws, the per-column allocations and the column
network.  The rest live here:

* ``_mvehg_laws``: the multivariate extended (Fisher noncentral)
  hypergeometric law that the I x 2 column counts follow at the sign-score
  worst case, for a stack of (rows, total) keys at one weight vector or a
  stack of them (built per call, never cached).  One
  ``_bounded_compositions_many`` call lays the keys' supports end to end,
  and each key is normalized on its own rows, so it equals its one-key
  call, ``_mvehg_law``, bit for bit.  ``mvehg_pmf``, ``signscore_tail``,
  the sign-score worst case (``worstcase``, one call per Gamma grid and,
  in the power study, one per chunk of keys), the size study (one law for
  both curves) and the Q law (``moments.dist_q``) take their
  probabilities from it, and ``tail_mass``, applied per key, is their one
  P(T >= c) tie rule;
* ``_sequential_weighted_draw``: the suffix-normalizer sampler behind the
  tilted SIS proposal (``montecarlo``);
* ``_log_block_normalizer``: the binary-delta normalizer C(u), from the
  hypergeometric law of d = delta'q, as one cached table over every ubar
  total that both ``RejectionAggregate`` scans read;
* ``_log_table_weight`` and ``_log_column_profile``: the binary-delta
  factorization v(t) = w(t) prod_j sum_d chi_j[b_j, d] e^{gamma d} into the
  gamma-free table weight w(t) = prod_j a_j! b_j! / prod_ij t_ij! and the
  column profiles chi_j[b, d] = C(ubar_j, d) C(N_.j - ubar_j, b - d), for
  ``RejectionAggregate`` and the SIS estimator and proposal (``montecarlo``).

The package's one log k! table (``log_factorials``) and its log-sum-exp
(``logsumexp``) live here too, so the runtime needs numpy only.
"""

from __future__ import annotations

import itertools
import math
from decimal import Context, Decimal
from functools import lru_cache
from math import comb, fsum, lgamma
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from exactsens.sensmodel import (
    ConfounderClass, RawConfounder, SensitivityError, SensitivityModel, check_gammas,
)
from exactsens.stats import TestStatistic
from exactsens.tables import (
    ContingencyTable, Margins, _bounded_compositions, _bounded_compositions_many, _integers,
    enumerate_fixed_margin_array,
)

__all__ = [
    "kernel_q",
    "kernel_t_q",
    "omega_q",
    "exact_alpha",
    "exact_alpha_grid",
    "kernel_alpha",
    "brute_force_alpha",
    "RejectionAggregate",
    "mvehg_pmf",
    "signscore_tail",
    "statistic_tolerance",
    "tail_mass",
    "log_factorials",
    "logsumexp",
    "ORACLE_CAP",
]

ORACLE_CAP = 12  # N above this needs allow_large=True; factorial growth


def _c(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


# log k! for k = 0..len - 1; replaced by a longer copy when a caller needs more
_log_factorial_table = np.zeros(1)
_log_factorial_table.flags.writeable = False


def log_factorials(n: int) -> np.ndarray:
    """Read-only array of log k! for k = 0..n.

    Every entry is ``math.lgamma(k + 1)`` on its own, not a running sum of
    log k, whose rounding error would grow with the number of terms.  One
    table is cached for the process and grows on demand (at least doubling);
    the result is a view of it.
    """
    global _log_factorial_table
    have = len(_log_factorial_table)
    if n >= have:
        size = max(n + 1, 2 * have)
        grown = np.empty(size)
        grown[:have] = _log_factorial_table
        grown[have:] = [lgamma(k + 1) for k in range(have, size)]
        grown.flags.writeable = False
        _log_factorial_table = grown
    return _log_factorial_table[: n + 1]


def logsumexp(a: np.ndarray | Sequence[float], axis: int | None = None) -> np.ndarray | float:
    """log sum exp(a) over ``axis`` (every entry for None), without overflow.

    Shifted by the maximum: the m entries equal to it contribute log m and
    the rest enter through log1p of their shifted sum over m, which stays
    accurate when one term dominates (Blanchard, Higham & Higham, IMA J.
    Numer. Anal. 41(4), 2021).  A slice that is all -inf gives -inf, and one
    holding +inf gives +inf, without warnings.
    """
    a = np.asarray(a, dtype=float)
    top = np.max(a, axis=axis, keepdims=True)
    at_top = a == top
    with np.errstate(invalid="ignore"):  # inf - inf, only where a == top
        shifted = np.where(at_top, -np.inf, a - top)
    m = np.sum(at_top, axis=axis, keepdims=True, dtype=float)
    out = np.log1p(np.sum(np.exp(shifted), axis=axis, keepdims=True) / m) + np.log(m) + top
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def statistic_tolerance(critical: float | np.ndarray) -> float | np.ndarray:
    """Tie tolerance for T >= c comparisons; shared by all evaluation paths.

    Elementwise on an array of critical values.
    """
    return 1e-9 * np.maximum(1.0, np.abs(critical))


def omega_q(ubar: int, rows: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Support of the per-treatment u=1 counts: sum q_i = ubar within bounds."""
    return iter(map(tuple, _bounded_compositions(ubar, rows).tolist()))


def kernel_q(q: Sequence[int], ubar_total: int, m: Margins) -> int:
    """Number of assignments with per-treatment u=1 counts q (exact integer)."""
    rows = m.rows
    N = m.N
    if len(q) != len(rows):
        raise ValueError("q must have one entry per treatment level")
    out = 1
    A = 0
    B = 0
    for i in range(len(rows) - 1):
        out *= _c(ubar_total - A, q[i]) * _c(N - ubar_total - B, rows[i] - q[i])
        if out == 0:
            return 0
        A += q[i]
        B += rows[i] - q[i]
    # the last treatment group absorbs every remaining subject, so q is
    # feasible only when it exactly exhausts both pools
    last = len(rows) - 1
    if q[last] != ubar_total - A or rows[last] - q[last] != N - ubar_total - B:
        return 0
    return out


def kernel_t_q(t: ContingencyTable, q: Sequence[int], c: ConfounderClass) -> int:
    """Assignments inducing table t with per-treatment u=1 counts q.

    Sums the closed-form binomial products over the inner allocation set:
    n[i][j] = number of u=1 subjects with treatment i and outcome j, free for
    i < I-1 and j < J-1, everything else forced by the q / ubar margins.
    """
    arr = t.as_array()
    I, J = arr.shape
    rows = arr.sum(axis=1)
    cols = arr.sum(axis=0)
    ubar_j = c.ubar
    if len(ubar_j) != J:
        raise ValueError("confounder class does not match table outcome levels")
    if any(u > col for u, col in zip(ubar_j, cols)):
        raise ValueError("ubar exceeds a column margin")
    if len(q) != I:
        raise ValueError("q must have one entry per treatment level")
    if sum(q) != sum(ubar_j):
        return 0

    idx = [(i, j) for i in range(I - 1) for j in range(J - 1)]
    ranges = []
    for (i, j) in idx:
        lo = max(0, ubar_j[j] + arr[i, j] - cols[j])
        hi = min(arr[i, j], q[i], ubar_j[j])
        if hi < lo:
            return 0
        ranges.append(range(lo, hi + 1))

    total = 0
    n = np.zeros((I - 1, J - 1), dtype=np.int64)
    for combo in itertools.product(*ranges):
        for (i, j), v in zip(idx, combo):
            n[i, j] = v
        p = 1
        for i in range(I - 1):
            for j in range(J - 1):
                used1 = int(n[:i, j].sum())
                used0 = int((arr[:i, j] - n[:i, j]).sum())
                p *= _c(ubar_j[j] - used1, int(n[i, j]))
                p *= _c(cols[j] - ubar_j[j] - used0, int(arr[i, j] - n[i, j]))
                if p == 0:
                    break
            if p == 0:
                break
            ni_last = q[i] - int(n[i, :].sum())
            e_used = sum(q[e] - int(n[e, :].sum()) for e in range(i))
            f_used = sum(
                int(rows[e]) - int(arr[e, : J - 1].sum()) - (q[e] - int(n[e, :].sum()))
                for e in range(i)
            )
            p *= _c(ubar_j[J - 1] - e_used, ni_last)
            p *= _c(
                cols[J - 1] - ubar_j[J - 1] - f_used,
                int(rows[i]) - int(arr[i, : J - 1].sum()) - ni_last,
            )
            if p == 0:
                break
        total += p
    return total


def _resolve_critical(
    test: TestStatistic, t_obs: ContingencyTable, critical: float | None
) -> float:
    """The c of T >= c: ``critical``, or T(t_obs) when None; refused unless finite.

    Every p-value path calls it: a nan or infinite c would reject no table
    and pass for p = 0.
    """
    if critical is None:
        critical = test(t_obs)
    if not math.isfinite(critical):
        raise ValueError("critical value must be finite")
    return float(critical)


def _checked_critical(
    test: TestStatistic,
    t_obs: ContingencyTable,
    c: ConfounderClass,
    model: SensitivityModel,
    critical: float | None,
) -> float:
    """Validate an exact-alpha request; return the critical value to use."""
    if not model.is_binary:
        raise SensitivityError(
            "exact alphas require a binary delta model; dose models are supported by "
            "the sign-score worst case, the Q law and its moments (dist_q, cell_moments, "
            "normal_approx_pvalue), the size study, PermTreat and the brute-force oracle"
        )
    m = t_obs.margins()
    c.validate_for(m)
    model.validate_for(m)
    return _resolve_critical(test, t_obs, critical)


def exact_alpha(
    test: TestStatistic,
    t_obs: ContingencyTable,
    c: ConfounderClass,
    model: SensitivityModel,
    critical: float | None = None,
) -> float:
    """P(T >= critical) under the sensitivity model at confounder class c.

    ``critical`` defaults to the observed statistic, making this the exact
    one-sided p-value.  Evaluated through ``RejectionAggregate``; rounding
    above 1 (every table rejected) is clipped, as in ``worst_case_grid``.
    """
    return exact_alpha_grid(test, t_obs, c, model, [model.gamma], critical)[0]


def exact_alpha_grid(
    test: TestStatistic,
    t_obs: ContingencyTable,
    c: ConfounderClass,
    model: SensitivityModel,
    gammas: Sequence[float],
    critical: float | None = None,
) -> list[float]:
    """``exact_alpha`` at each gamma of ``gammas`` (``model.gamma`` is ignored).

    One gamma-free ``RejectionAggregate`` serves the whole grid.
    """
    check_gammas(gammas)
    critical = _checked_critical(test, t_obs, c, model, critical)
    agg = RejectionAggregate(t_obs.margins(), test, critical, model.delta)  # type: ignore[arg-type]
    return [min(p, 1.0) for p in agg.alpha_grid(c, gammas)]


# --------------------------------------------------------------------------
# exact-integer reference
# --------------------------------------------------------------------------


def _ratio_from_buckets(
    num_buckets: dict[float, float], den_buckets: dict[float, float], gamma: float
) -> float:
    """Ratio of sums of count * exp(gamma * key) in the log domain.

    Counts are exact (possibly huge) integers; log2 handles big ints at full
    precision, so the only float error is the final log-sum-exp over
    positive terms.
    """
    def log_terms(buckets: dict[float, float]) -> list[float]:
        out = []
        for key, val in buckets.items():
            if val == 0:
                continue
            out.append(math.log2(val) * math.log(2.0) + gamma * key)
        return out

    num = log_terms(num_buckets)
    den = log_terms(den_buckets)
    if not den:
        raise ZeroDivisionError("empty reference set")
    if not num:
        return 0.0
    return float(np.exp(logsumexp(np.array(num)) - logsumexp(np.array(den))))


def kernel_alpha(
    test: TestStatistic,
    t_obs: ContingencyTable,
    c: ConfounderClass,
    model: SensitivityModel,
    critical: float | None = None,
) -> float:
    """``exact_alpha`` from exact integer kernels per q (the reference path).

    Independent of ``RejectionAggregate`` and far slower; the gamma weights
    are applied per d = delta'q to exact integer bucket sums.
    """
    critical = _checked_critical(test, t_obs, c, model, critical)
    m = t_obs.margins()

    def by_d(items) -> dict[float, float]:
        buckets: dict[float, float] = {}
        for q, count in items:
            d = float(sum(dd * qq for dd, qq in zip(model.delta, q)))  # type: ignore[arg-type]
            buckets[d] = buckets.get(d, 0) + count
        return buckets

    S_items, K_items = _integer_buckets(test, m.rows, m.cols, c.ubar, critical)
    return _ratio_from_buckets(by_d(S_items), by_d(K_items), model.gamma)


def _table_q_weights(
    arr: np.ndarray, ubar_j: Sequence[int], cols: Sequence[int]
) -> dict[tuple[int, ...], int]:
    """kernel_t_q(t, q) for every q at once, via one sweep of u-allocations.

    Allocations n_ij (u = 1 subjects of outcome j under treatment i) are
    enumerated column by column; each column contributes the exact count
    ubar_j! (N_.j - ubar_j)! / prod_i n_ij! (t_ij - n_ij)!, and q is the row
    sum of the allocation matrix.
    """
    I = arr.shape[0]
    per_col: list[list[tuple[tuple[int, ...], int]]] = []
    for j, (uj, cj) in enumerate(zip(ubar_j, cols)):
        col_counts = []
        base = math.factorial(uj) * math.factorial(cj - uj)
        for split in _bounded_compositions(uj, arr[:, j]).tolist():
            w = base
            for i in range(I):
                w //= math.factorial(split[i]) * math.factorial(int(arr[i, j]) - split[i])
            col_counts.append((split, w))
        per_col.append(col_counts)

    acc: dict[tuple[int, ...], int] = {tuple([0] * I): 1}
    for col_counts in per_col:
        nxt: dict[tuple[int, ...], int] = {}
        for q_prev, w_prev in acc.items():
            for split, w in col_counts:
                q_new = tuple(a + b for a, b in zip(q_prev, split))
                nxt[q_new] = nxt.get(q_new, 0) + w_prev * w
        acc = nxt
    return acc


@lru_cache(maxsize=256)
def _integer_buckets(
    test: TestStatistic,
    rows: tuple[int, ...],
    cols: tuple[int, ...],
    ubar: tuple[int, ...],
    critical: float,
) -> tuple[tuple[tuple[tuple[int, ...], int], ...], tuple[tuple[tuple[int, ...], int], ...]]:
    """(S(q), kernel_q(q)) as exact integers over the q support (gamma-free)."""
    m = Margins(rows, cols)
    tol = statistic_tolerance(critical)
    tables = enumerate_fixed_margin_array(m)
    tvals = test.evaluate_batch(tables)
    S: dict[tuple[int, ...], int] = {}
    for tab, tv in zip(tables, tvals):
        if tv >= critical - tol:
            for q, w in _table_q_weights(tab.astype(np.int64), ubar, cols).items():
                S[q] = S.get(q, 0) + w
    total = sum(ubar)
    K = {q: kernel_q(q, total, m) for q in omega_q(total, rows)}
    return tuple(S.items()), tuple(K.items())


# --------------------------------------------------------------------------
# gamma-free aggregation
# --------------------------------------------------------------------------


# Bytes of intermediates one chunk may hold, in the build and in the scans.
# The streamed aggregate build splits prefix batches so that their expanded
# rows, at about _BUILD_ROW_BYTES each (the carried per-row scalars and the
# expansion's temporaries), fit; depth first, it holds at most one such
# expansion per column, and the last level's bounds are taken in batches of
# states within the same budget.  The candidate scans, the normalizer table
# and the oracle take classes, totals or assignments in chunks no larger than
# this allows (one at a time when a single one needs more).  Unchunked, a 61-class scan raised a
# power study's peak resident memory by about a quarter.
_CHUNK_BYTES = 2 << 20
_BUILD_ROW_BYTES = 96


@lru_cache(maxsize=64)
def _log_block_normalizer(
    rows: tuple[int, ...], block_total: int, gammas: tuple[float, ...]
) -> np.ndarray:
    """(N + 1, G) log C(u) at every ubar total u = 0..N and gamma ``gammas[g]``, binary delta.

    Both scans' denominators, cached per (rows, B, gammas) and read-only as
    their power-study and strata-grid repeats need: ``alpha_table`` indexes
    it by its classes' totals and ``suffix_alpha_table`` reads it whole.

    C(u) = sum_q e^{gamma delta'q} kernel_q(q) = N! / prod_i N_i.! E[e^{gamma d}]
    with d = delta'q hypergeometric (N, ubar, B), B the delta-block treatment
    total (Vandermonde's identity); the constant is correctly rounded, so at
    gamma = 0 every total gets the same float.  log h, relative to its mode, is
    a running sum of log h(d) / h(d - 1) = log (ubar - d + 1)(B - d + 1) /
    (d (N - ubar - B + d)), integers up to N^2 that float64 holds exactly.
    """
    N, B = sum(rows), block_total
    # N! / prod_i N_i.! as a product of binomials, filling the rows from the last
    multinomial = math.prod(map(comb, itertools.accumulate(rows[::-1]), rows[::-1]))
    log_multinomial = float(Decimal(multinomial).ln(Context(prec=30)))
    g = np.append(0.0, gammas)[:, None]  # gamma 0 first: log E[1], the divisor
    out = np.empty((N + 1, len(g) - 1))
    # floats per total: the tilted terms, log-sum-exp temporaries and running sums
    chunk = max(1, _CHUNK_BYTES // (8 * (min(B, N - B) + 1) * (3 * len(g) + 6)))
    for start in range(0, N + 1, chunk):
        u = np.arange(start, min(start + chunk, N + 1))[:, None]
        lo, hi = np.maximum(0, u - (N - B)), np.minimum(u, B)
        mode = (u + 1) * (B + 1) // (N + 2)
        d = lo + np.arange(int((hi - lo).max()) + 1)
        step = (d > lo) & (d <= hi)  # where h(d) / h(d - 1) is defined
        den = np.where(step, d * (N - u - B + d), 1)
        ratio = np.log1p((np.where(step, (u - d + 1) * (B - d + 1), 1) - den) / den)
        # summed as multiples of 2^-20, whose running sums are exact, and the
        # small remainders, so the sums round once however far d is from the mode
        coarse = np.round(ratio * 2.0**20) / 2.0**20
        run = np.cumsum(np.stack([coarse, ratio - coarse]), axis=2)
        run -= np.take_along_axis(run, (mode - lo)[None], axis=2)
        logh = np.where(d <= hi, run[0] + run[1], -np.inf)
        tilted = logsumexp(logh[:, None, :] + g * (d - mode)[:, None, :], axis=-1)
        out[start : start + chunk] = (
            tilted[:, 1:] - tilted[:, :1] + g[1:].T * mode + log_multinomial)
    out.flags.writeable = False
    return out


def _log_binom(logfact: np.ndarray, n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """log C(n, k) from a log-factorial table, -inf outside 0 <= k <= n (broadcasts)."""
    ok = (k >= 0) & (k <= n)
    kk = np.where(ok, k, 0)
    return np.where(ok, logfact[n] - logfact[kk] - logfact[np.where(ok, n - kk, 0)], -np.inf)


def _log_scaled(x: np.ndarray, logscale: np.ndarray | float) -> np.ndarray:
    """log(x) + logscale for non-negative x, -inf where x = 0."""
    with np.errstate(divide="ignore"):
        return np.log(x) + logscale


def _log_table_weight(
    tables: np.ndarray, one_rows: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """(log w(t), b) over an (M, I, J) stack, w(t) = prod_j a_j! b_j! / prod_ij t_ij!.

    b (a) holds the (M, J) column sums over the delta = 1 rows ``one_rows``
    (over the other rows).
    """
    cols = tables.sum(axis=1)
    b = tables[:, one_rows, :].sum(axis=1)
    a = cols - b
    logfact = log_factorials(int(cols.max(initial=0)))
    logw = logfact[a].sum(axis=1) + logfact[b].sum(axis=1) - logfact[tables].sum(axis=(1, 2))
    return logw, b


def _log_column_profile(
    logfact: np.ndarray, cj: int, u: np.ndarray, b_range: range | None = None
) -> np.ndarray:
    """log chi[b, d] = log C(u, d) C(cj - u, b - d) for the (K,) ubar_j values u.

    Returns (K, len(b_range), max(u) + 1), indexed by (class, b, d) for b in
    ``b_range`` (default 0..cj), -inf where chi vanishes.  The second factor
    depends on b - d only, so it is taken per class over that range and read
    through a sliding-window view, and the sum is the one array of the
    profile's size that is made.
    """
    b_range = range(cj + 1) if b_range is None else b_range
    u = np.asarray(u, dtype=np.int64)[:, None]
    n = int(u.max()) + 1
    rest = _log_binom(logfact, cj - u, np.arange(b_range.start + 1 - n, b_range.stop))
    # window b holds b - d for d = n - 1 down to 0
    windows = np.lib.stride_tricks.sliding_window_view(rest, n, axis=1)[:, :, ::-1]
    return _log_binom(logfact, u, np.arange(n))[:, None, :] + windows


def _scaled_column_profile(
    logfact: np.ndarray, cj: int, u: np.ndarray, b_range: range | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(chi^T, log scale): each class's chi divided by its maximum, and that maximum's log.

    chi^T is the (K, max(u) + 1, len(b_range)) transposed view, indexed by
    (class, d, b), of ``_log_column_profile`` exponentiated in place.
    """
    chi = _log_column_profile(logfact, cj, u, b_range)
    top = chi.max(axis=(1, 2))
    chi -= top[:, None, None]
    return np.exp(chi, out=chi).transpose(0, 2, 1), top


def _matmul_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The d convolution of a batched matmul: out[k, e] = sum_i (a @ b)[k, i, e - i].

    ``a @ b`` has shape (K, D, n) + rest, its axes 1 and 2 indexing two d
    counts that add up; the result has shape (K, D + n - 1) + rest.  The
    product is written into the first n of n + D slots of each row of a
    zero-padded buffer, and re-reading that buffer with rows of n + D - 1
    skews row i right by i without a copy, so one sum over axis 1 convolves.
    """
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
    K, D, n = shape[:3]
    rest = shape[3:]
    pad = np.zeros((K, D, n + D) + rest)
    np.matmul(a, b, out=pad[:, :, :n])
    E = n + D - 1
    return pad.reshape(K, -1)[:, : D * E * math.prod(rest)].reshape((K, D, E) + rest).sum(axis=1)


class _ColumnLevel(NamedTuple):
    """Edges of the column network from the states before column j.

    Edge e leaves state s (edges are grouped by state; s owns
    ``ptr[s]:ptr[s + 1]``, empty for a last-level state that no surviving
    prefix reaches) and reaches state ``child[e]`` of the next level (None on
    the last level).  The edge fills column j, and on the last level also the
    forced last column; ``logw``, ``ridx`` and ``tterm`` sum those vectors'
    log w factors, flat offsets into R and statistic terms.  For an opaque
    statistic ``vids`` holds, per filled column, the ids of the vectors in
    that column's list, from which tables are rebuilt (empty otherwise).
    """

    ptr: np.ndarray
    child: np.ndarray | None
    vids: tuple[np.ndarray, ...]
    logw: np.ndarray
    ridx: np.ndarray
    tterm: np.ndarray


def _place_values(sizes: np.ndarray) -> np.ndarray:
    """C-order place values of a mixed radix with the given digit ranges."""
    return np.cumprod(sizes[::-1])[::-1] // sizes


@lru_cache(maxsize=64)
def _column_vectors(
    cj: int, rows: tuple[int, ...], one_rows: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One column's feasible vectors and their gamma-free scores, read-only.

    Returns (vectors, keys, log w factors, delta-block sums b): the vectors
    are ``_bounded_compositions(cj, rows)``, lexicographic, so their
    mixed-radix keys in radices rows_i + 1 ascend; the factor is
    log a! + log b! - sum_i log t_i! (``_log_table_weight`` of the column).
    Cached per (cj, rows, delta), since equal column margins recur within a
    table and across the calls of a scan or a simulation.
    """
    vec = _bounded_compositions(cj, rows)
    key = vec @ _place_values(np.asarray(rows, dtype=np.int64) + 1)
    logw, b = _log_table_weight(vec[:, :, None], one_rows)
    out = (vec, key, logw, b[:, 0])
    for arr in out:
        arr.flags.writeable = False
    return out


def _column_network(
    m: Margins, one_rows: Sequence[int], test: TestStatistic, threshold: float
) -> tuple[list[_ColumnLevel], list[np.ndarray], tuple | None] | None:
    """The fixed-margin tables as paths through a column-by-column network.

    Column j's feasible vectors (``_column_vectors``) are scored once: the
    log w factor, the flat offset b_j stride_j into R and the statistic term,
    the row sum of the cell terms (zero for an opaque statistic).  The states
    before column j are the distinct vectors of row sums still to fill,
    level 0 being the row margins, under which every column-0 vector fits.  A
    later state's edges are the column vectors that fit under it, made from
    per-cell bounds, so every edge lies on a complete table and each table is
    one path.  The last column is forced by its state and is folded into the
    edges that reach it, so the network has J - 1 levels.  States and vectors
    are matched by their mixed-radix keys, under which a child state's key is
    its parent's minus the edge vector's.

    For a statistic of cell terms, the last level is bounded before it is
    built (``_last_level_bounds``), the pruning floor and every state's bound
    follow (``_pruning``), and the last level gets edges only for the states
    that a prefix surviving the pruning reaches: the others are counted
    without them.  Returns (levels, the per-column vector lists, the pruning
    (floor, ``_completion_bounds``), None for an opaque statistic), or None
    when the key range overflows int64.
    """
    if math.prod(r + 1 for r in m.rows) >= 2**63:
        return None
    bounded = test.cell_terms is not None
    rows = np.asarray(m.rows, dtype=np.int64)
    radix = _place_values(rows + 1)
    strides = _place_values(np.asarray(m.cols, dtype=np.int64) + 1)  # of R
    vectors, keys, scores = [], [], []
    for j, cj in enumerate(m.cols):
        vec, key, logw, b = _column_vectors(cj, m.rows, tuple(one_rows))
        tterm = test.column_terms(vec, j, rows, cj, m.J) if bounded else np.zeros(len(vec))
        vectors.append(vec)
        keys.append(key)
        scores.append((logw, b * strides[j], tterm))

    state = rows[None, :]
    state_key = state @ radix
    levels: list[_ColumnLevel] = []
    pruning = None
    for j in range(m.J - 1):
        expand = np.arange(len(state))  # the states that get edges
        if j == m.J - 2 and bounded:
            pruning, expand = _pruning(m, test, levels, state, threshold)
        if j == 0 and len(expand):  # the root's edges are column 0's vectors
            vec, vkey = vectors[0], keys[0]
            owner, ids = np.zeros(len(vec), dtype=np.int64), np.arange(len(vec))
        else:
            vec, owner = _bounded_compositions_many(np.full(len(expand), m.cols[j]), state[expand])
            owner, vkey = expand[owner], vec @ radix
            ids = np.searchsorted(keys[j], vkey)
        child_key = state_key[owner] - vkey
        ptr = np.searchsorted(owner, np.arange(len(state) + 1))
        vids = {j: ids}  # column -> vector ids
        child = None
        if j + 2 < m.J:
            if j == 0:  # the root's children are distinct, their keys descending
                state_key, first, child = child_key[::-1], ids[::-1], ids[::-1]
            else:
                state_key, first, child = np.unique(
                    child_key, return_index=True, return_inverse=True)
            state = state[owner[first]] - vec[first]
        else:  # the child state is the forced last column
            vids[m.J - 1] = np.searchsorted(keys[-1], child_key)
        del vec, vkey, owner, child_key  # before the level's sums: a level can hold every table
        logw, ridx, tterm = (sum(scores[k][q][v] for k, v in vids.items()) for q in range(3))
        opaque_ids = () if bounded else tuple(vids.values())
        levels.append(_ColumnLevel(ptr, child, opaque_ids, logw, ridx, tterm))
    return levels, vectors, pruning


def _pruning(
    m: Margins, test: TestStatistic, levels: list[_ColumnLevel], state: np.ndarray,
    threshold: float,
) -> tuple[tuple[float, list[tuple[np.ndarray, np.ndarray]]], np.ndarray]:
    """((floor, bounds), the last-level states a surviving prefix reaches), before the last level.

    ``levels`` are the built levels before the last and ``state`` (n, I) the
    last level's states.  The cell terms of the last two columns, at every
    count up to their margins, give each state its bound and count
    (``_last_level_bounds``), and ``_completion_bounds`` the earlier states'.

    The guard: a path's forward sum adds the earlier columns' terms to the
    row sums of the last two columns' cell terms, and its bound adds the same
    column terms to a row-by-row sum of those cell terms; each is a float sum
    of the same leaves, by a summation tree at most I + J deep, so each lies
    within gamma_{I+J} S of the exact sum, S the sum of the leaves' absolute
    values, gamma_n = n u / (1 - n u) and u = 2^-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 4.2).  S is at most M, the
    sum of the largest absolute column term of each earlier level and the
    largest absolute cell term of each (row, last-two column), and forming
    the floor rounds by at most u |floor|.  (I + J) 2^-51 (M + |threshold|)
    covers all three with room to spare, so no table that its forward sum
    would reject is dropped.

    A forward max-plus pass then carries the largest partial sum of a
    surviving prefix to every state: a prefix survives at a state when its
    partial sum plus the state's bound reaches the floor, and float addition
    is monotone, so that largest sum is exactly the stream's largest, and a
    last-level state it leaves below the floor has no surviving prefix.
    """
    rows, J = np.asarray(m.rows, dtype=np.int64), m.J
    terms = []
    for j in (J - 2, J - 1):
        counts = np.repeat(np.arange(m.cols[j] + 1)[:, None], m.I, axis=1)
        terms.append(np.asarray(test.cell_terms(counts, j, rows, m.cols[j], J), dtype=float))
    bounds = _completion_bounds(levels, *_last_level_bounds(state, *terms))
    M = (sum(float(np.abs(lev.tterm).max()) for lev in levels)
         + float(np.abs(terms[0]).max(axis=0).sum() + np.abs(terms[1]).max(axis=0).sum()))
    floor = threshold - (m.I + J) * 2.0**-51 * (M + abs(threshold))
    reach = np.zeros(1)  # the root's partial sum
    for lev, (top, _), (after, _) in zip(levels, bounds, bounds[1:]):
        reach = np.where(reach + top >= floor, reach, -np.inf)
        carried = np.full(len(after), -np.inf)
        np.maximum.at(carried, lev.child, np.repeat(reach, np.diff(lev.ptr)) + lev.tterm)
        reach = carried
    return (floor, bounds), np.flatnonzero(reach + bounds[-1][0] >= floor)


def _last_level_bounds(
    state: np.ndarray, first: np.ndarray, second: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(top, count) per last-level state, without its edges.

    State s (its remaining row sums) completes as v and s - v over the last
    two columns, v any vector with sum c (the first one's margin) and
    0 <= v_i <= s_i; the second column's sum is then its margin, and so no
    entry of s - v exceeds it.  ``first[x, i]`` and ``second[y, i]`` are the
    columns' cell terms f_i(x) and g_i(y) at counts 0..margin.  With
    h_i(x) = f_i(x) + g_i(s_i - x), top[s] is the largest sum_i h_i(v_i), a
    max-plus convolution over the rows in which the last row takes what the
    others leave.  count[s] (int64) is the number of such v: the numbers of
    ways to reach each partial sum over the rows before the last two, a
    plus-times convolution of their ranges taken as prefix-sum differences,
    times the number of ways the last two rows can share the rest.  No
    partial count exceeds prod_i (s_i + 1), which the network's int64 keys
    bound, so none wraps.  The states run along the last axis of every
    array, so each step is a few whole-array passes.
    """
    n, I = state.shape
    c = len(first) - 1
    X = np.arange(c + 1)[:, None]
    # g_i(y) at flat index i W + y: -inf past the margin, and for y < 0, read
    # from the end of the row before (of the last row, for i = 0)
    W = len(second) + 2 * c
    lookup = np.full((I, W), -np.inf)
    lookup[:, : len(second)] = second.T
    at = np.arange(I)[:, None, None] * W - X  # + s_i: where g_i(s_i - x) sits
    top, count = np.empty(n), np.empty(n, dtype=np.int64)
    step = max(1, _CHUNK_BYTES // (8 * (c + 1) * (c + 1 + 2 * I)))
    for start in range(0, n, step):
        s = state[start : start + step].T  # (I, k)
        h = first.T[:, :, None] + lookup.ravel()[at + s[:, None, :]]  # (I, x, k)
        acc = h[0]  # by y, the partial sum
        for i in range(1, I - 1):
            pad = np.full((2 * c + 1, s.shape[1]), -np.inf)
            pad[c:] = acc
            # [x, y] = acc[y - x] in acc padded with c leading -inf, that is
            # row c - x + y of pad: a view of pad whose x stride is minus its
            # y stride, so nothing is gathered
            stride = pad.strides[0]
            back = np.ndarray((c + 1, c + 1, s.shape[1]), buffer=pad, offset=c * stride,
                              strides=(-stride, stride, pad.strides[1]))
            acc = (back + h[i][:, None, :]).max(axis=0)
        top[start : start + step] = (acc + h[-1][::-1]).max(axis=0)
        ways = X <= s[0] if I > 2 else X == 0  # to reach y over the rows before the last two
        for i in range(1, I - 2):
            run = np.cumsum(ways, axis=0)
            cap = np.minimum(s[i], c) + 1  # y less this is too small a partial sum for y
            flat = (X - cap) * s.shape[1] + np.arange(s.shape[1])
            ways = run - np.where(X >= cap, run.ravel()[flat], 0)
        rest = c - X  # for the last two rows, x and rest - x within their ranges
        split = np.minimum(s[-2], rest) - np.maximum(rest - s[-1], 0) + 1
        count[start : start + step] = (ways * np.maximum(split, 0)).sum(axis=0)
    return top, count


def _completion_bounds(
    levels: list[_ColumnLevel], top: np.ndarray, count: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per level j, (top_j, count_j) over the states before column j, in one backward pass.

    ``levels`` are the levels before the last, and (top, count) the last
    level's states' bounds and int64 completion counts.  top_j[s]
    is the largest statistic sum over state s's completions, the max over its
    edges e of tterm[e] + top_{j+1}[child[e]], and count_j[s] (int64) the
    number of those completions; every state has an edge, since every edge
    lies on a complete table.  A float64 shadow of the counts that reaches
    2^62 at the root raises ``ValueError``; no state has more completions
    than the root, so no int64 count can wrap.
    """
    out, shadow = [(top, count)], count.astype(float)
    for lev in reversed(levels):
        starts = lev.ptr[:-1]
        top = np.maximum.reduceat(lev.tterm + top[lev.child], starts)
        count = np.add.reduceat(count[lev.child], starts)
        shadow = np.add.reduceat(shadow[lev.child], starts)
        out.append((top, count))
    if shadow[0] >= 2.0**62:
        raise ValueError(f"the reference set holds about {shadow[0]:.3g} tables, "
                         "too many to count in 64-bit integers")
    return out[::-1]


class RejectionAggregate:
    """Gamma-free summary of a rejection region for one (margins, test, critical, delta).

    R accumulates, for every vector b of per-column delta-block sums, the
    total R[b] of the table weights w(t) (``_log_table_weight``) over the
    rejected tables (log-offset floats; all terms positive).  The numerator
    of alpha at a confounder class ubar is S_d = sum_b R[b] sum_{d_1 + ... +
    d_J = d} prod_j chi_j[b_j, d_j] with the column profiles of
    ``_log_column_profile``.  The denominator C(u) is ``_log_block_normalizer``.

    R is built from a stream over the reference set that never holds the
    tables.  log w, b and the built-in statistics are sums of per-column
    terms (a statistic's are the row sums of ``TestStatistic.cell_terms``),
    so a table is a path of column ids through ``_column_network`` and each
    prefix carries only its state, partial log w, partial statistic and
    partial flat index of R.  Prefixes are expanded column by column in
    batches whose expansion stays within ``_CHUNK_BYTES`` (one prefix
    at least), depth first, and every completed chunk is added to R under a
    running log offset that only grows, so no weight overflows at large
    margins.  An opaque statistic gets each chunk's tables rebuilt from their
    column-vector ids.  Precomputed ``tables`` (and ``tvals``) feed the same
    accumulator as one chunk.

    Wholly accepted subtrees are never expanded.  For a statistic of cell
    terms, each network state s at level j has the largest statistic sum
    top_j[s] over its completions and their number count_j[s] (``_pruning``),
    and a prefix with partial statistic tterm is dropped when tterm +
    top_j[s] falls below the rejection threshold less a guard that exceeds
    the float gap between that bound and any completion's forward path sum,
    so no table that the per-path sum would reject is dropped, and the last
    level classifies every surviving path by that sum.  Opaque statistics
    and precomputed tables are not pruned.
    ``ntables`` counts the reference set exactly (the dropped prefixes add
    their count_j[s]; a reference set of 2^62 tables or more raises
    ``ValueError``), ``nrejected`` the rejected tables, and ``nexpanded``
    the tables whose statistic was evaluated, at most ``ntables`` and equal
    to it without pruning.

    ``alpha_table`` evaluates a whole candidate scan, given as a (K, J)
    array of classes, in one batched pass.  Each (class, column) chi profile
    is scaled by its maximum, so no exact integer is ever converted to float
    and large column margins cannot overflow.  R is contracted column by
    column as a matmul batched over the classes, convolving d as it goes
    (``_matmul_convolve``), and one log-sum-exp over d gives every (class,
    gamma) numerator (``_tilted_alphas``), over denominators taken once per
    scan.  Gamma is applied only after the d convolution, by that one
    log-sum-exp over d, so the scans keep the d axis.  Classes are processed
    in chunks whose intermediates fit in ``_CHUNK_BYTES``.  ``alpha_grid`` is
    its one-class call.  ``suffix_alpha_table`` gives the same alphas for the
    N + 1 ordinal suffix classes from one sweep over R's columns instead of
    one contraction per class, through the same convolution and tail.
    """

    def __init__(
        self,
        m: Margins,
        test: TestStatistic,
        critical: float,
        delta: Sequence[int],
        tables: np.ndarray | None = None,
        tvals: np.ndarray | None = None,
    ) -> None:
        if len(delta) != m.I:
            raise ValueError("delta length must match the number of treatment levels")
        if any(v not in (0, 1) for v in delta):
            raise ValueError("fast aggregation requires a binary delta")
        self.margins = m
        self.critical = float(critical)
        self.delta = tuple(int(v) for v in delta)
        one_rows = [i for i, dv in enumerate(self.delta) if dv == 1]
        self.block_total = int(np.asarray(m.rows)[one_rows].sum())
        self._shape = tuple(int(cj) + 1 for cj in m.cols)
        self._logfact = log_factorials(m.N)
        self._threshold = self.critical - statistic_tolerance(self.critical)
        self.ntables = 0
        self.nrejected = 0
        self.nexpanded = 0
        self._R = np.zeros(self._shape)
        self._offset = -math.inf
        network = None
        if tables is None and tvals is None:
            network = _column_network(m, one_rows, test, self._threshold)
        if network is not None:
            self._stream(test, *network)
        else:  # precomputed tables, or margins whose network keys overflow
            if tables is None:
                tables = enumerate_fixed_margin_array(m)
            if tvals is None:
                tvals = test.evaluate_batch(tables)
            mask = np.asarray(tvals) >= self._threshold
            logw, b = _log_table_weight(np.asarray(tables)[mask].astype(np.int64), one_rows)
            self._add(len(mask), np.ravel_multi_index(tuple(b.T), self._shape), logw)
        if self.nrejected == 0:
            self._offset = 0.0

    def _add(self, ntables: int, ridx: np.ndarray, logw: np.ndarray) -> None:
        """Count a chunk of ``ntables`` evaluated tables and add its rejected ones to R."""
        self.ntables += ntables
        self.nexpanded += ntables
        self.nrejected += len(logw)
        if not len(logw):
            return
        top = float(logw.max())
        if top > self._offset:
            self._R *= math.exp(self._offset - top)
            self._offset = top
        np.add.at(self._R.reshape(-1), ridx, np.exp(logw - self._offset))

    def _stream(
        self, test: TestStatistic, levels: list[_ColumnLevel], vectors: list[np.ndarray],
        pruning: tuple | None,
    ) -> None:
        """Accumulate R over the paths of the column network, chunk by chunk."""
        m = self.margins
        opaque = test.cell_terms is None
        # an opaque statistic's rows also carry J ids and a rebuilt table
        row_bytes = _BUILD_ROW_BYTES + (8 * (m.J + 3 * m.I * m.J) if opaque else 0)
        budget = max(1, _CHUNK_BYTES // row_bytes)
        root = np.zeros(1, dtype=np.int64)
        prefixes = (root, np.zeros(1), np.zeros(1), root, [] if opaque else None)
        self._descend(test, levels, vectors, budget, pruning, 0, *prefixes)

    def _descend(
        self, test, levels, vectors, budget, pruning, j, state, logw, tterm, ridx, ids
    ) -> None:
        """Expand the prefixes at network level j in batches, depth first.

        Prefix p sits at ``state[p]`` with partial sums ``logw[p]``,
        ``tterm[p]`` and ``ridx[p]``; for an opaque statistic ``ids`` holds
        its column-vector ids so far, one array per column (else None).
        With ``pruning`` = (floor, ``_completion_bounds``), a prefix whose
        bound tterm + top_j[state] lies below the floor is dropped first, and
        its count_j[state] completions are counted as accepted tables.
        """
        lev = levels[j]
        if pruning is not None:
            floor, bounds = pruning
            top, count = bounds[j]
            dead = tterm + top[state] < floor
            if dead.any():
                self.ntables += int(count[state[dead]].sum())
                live = ~dead
                state, logw, tterm, ridx = state[live], logw[live], tterm[live], ridx[live]
        counts = lev.ptr[state + 1] - lev.ptr[state]
        ends = np.cumsum(counts)
        start = 0
        while start < len(state):
            done = int(ends[start - 1]) if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, done + budget, "right")))
            c = counts[start:stop]
            parent = np.repeat(np.arange(start, stop), c)
            edge = np.repeat(lev.ptr[state[start:stop]] - (ends[start:stop] - c - done), c)
            edge += np.arange(len(edge))
            ids_e = None if ids is None else [v[parent] for v in ids] + [v[edge] for v in lev.vids]
            if j + 1 < len(levels):
                self._descend(test, levels, vectors, budget, pruning, j + 1, lev.child[edge],
                              logw[parent] + lev.logw[edge], tterm[parent] + lev.tterm[edge],
                              ridx[parent] + lev.ridx[edge], ids_e)
            else:
                if ids_e is not None:
                    cols = [vectors[k][v] for k, v in enumerate(ids_e)]
                    tv = test.evaluate_batch(np.stack(cols, axis=-1))
                else:
                    tv = tterm[parent] + lev.tterm[edge]
                keep = tv >= self._threshold
                parent, edge = parent[keep], edge[keep]
                self._add(len(keep), ridx[parent] + lev.ridx[edge], logw[parent] + lev.logw[edge])
            start = stop

    def _floats_per_class(self) -> int:
        """Floats per class live at once in ``_log_numerators`` at its widest column.

        That is the column's input plus its padded output, sized for
        ubar_j = N_.j, the widest profile a class can have.
        """
        widest, D = 1, 1
        for j, cj in enumerate(self.margins.cols):
            P = math.prod(self._shape[j + 1 :])
            widest = max(widest, D * (cj + 1) * P + D * (cj + 1 + D) * P)
            D += cj
        return widest

    def _log_numerators(self, U: np.ndarray) -> np.ndarray:
        """log S_d for each class row of U, d = 0..sum_j max_k U[k, j]; -inf where S_d = 0."""
        K = len(U)
        logscale = np.full(K, self._offset)
        # M[k, e, b_j, rest]: R with columns < j contracted and their d convolved
        M = self._R.reshape(1, 1, self._shape[0], -1)
        for j, cj in enumerate(self.margins.cols):
            chiT, top = _scaled_column_profile(self._logfact, cj, U[:, j])
            logscale += top
            # sum over b_j and convolve d_j into the d of the columns before
            M = _matmul_convolve(chiT[:, None], M)
            if j + 1 < len(self._shape):
                M = M.reshape(K, M.shape[1], self._shape[j + 1], -1)
        return _log_scaled(M[:, :, 0], logscale[:, None])

    def alpha_grid(self, c: ConfounderClass, gammas: Sequence[float]) -> list[float]:
        return self.alpha_table(np.array([c.ubar]), gammas)[0].tolist()

    def alpha_table(self, U: np.ndarray, gammas: Sequence[float]) -> np.ndarray:
        """(K, G) array: exact alpha of class k, the ubar in row k of U (K, J), at gamma g.

        A row of the wrong width, an entry that is not an integer between 0
        and N_.j, or a gamma that ``check_gammas`` refuses raises ``ValueError``.
        """
        m = self.margins
        U = np.asarray(U)
        if U.ndim != 2 or U.shape[1] != m.J:
            raise ValueError(f"classes must be rows of {m.J} outcome counts, not shape {U.shape}")
        if U.dtype.kind not in "iu" and not (np.isfinite(U) & (U == np.trunc(U))).all():
            raise ValueError("class counts must be integers")
        U = U.astype(np.int64)
        if (U < 0).any() or (U > np.asarray(m.cols)).any():
            raise ValueError(f"class counts must lie between 0 and the column margins {m.cols}")
        check_gammas(gammas)
        g = np.asarray(gammas, dtype=float)
        out = np.zeros((len(U), len(g)))
        logC = _log_block_normalizer(m.rows, self.block_total, tuple(g.tolist()))[U.sum(axis=1)]
        per_class = max(self._floats_per_class(), len(g) * (m.N + 1))
        chunk = max(1, _CHUNK_BYTES // (8 * per_class))
        for start in range(0, len(U), chunk):
            Uc = U[start : start + chunk]
            out[start : start + chunk] = self._tilted_alphas(
                [(self._log_numerators(Uc), 0)], g, logC[start : start + chunk])
        return out

    def _tilted_alphas(
        self, parts: Sequence[tuple[np.ndarray, int]], g: np.ndarray, logC: np.ndarray
    ) -> np.ndarray:
        """(K, G) alphas from log numerators given as row blocks (logS (k, D), d0).

        Column i of a block's logS holds d = d0 + i, and the blocks' rows
        are the K classes in order.  One log-sum-exp per (class, gamma) over
        the tilted numerator, less the class's log C(u) ``logC`` (K, G),
        which the caller takes once per scan.  Each block is tilted at its
        own d and laid from the start of the d axis, narrower ones padded
        with -inf, so a block pays for no other block's range of d.
        """
        x, at = np.empty((len(logC), len(g), max(S.shape[1] for S, _ in parts))), 0
        for S, d0 in parts:
            k, w = S.shape
            np.add(S[:, None, :], g[:, None] * np.arange(d0, d0 + w), out=x[at : at + k, :, :w])
            x[at : at + k, :, w:] = -np.inf
            at += k
        return np.exp(logsumexp(x, axis=-1) - logC)

    def suffix_alpha_table(self, gammas: Sequence[float]) -> np.ndarray:
        """(N + 1, G) array: ``alpha_table`` over the ordinal suffix classes.

        Row k is row k of ``worstcase._ordinal_classes``: k ones filling the
        outcome columns from the last down, so columns after some p are full,
        columns before it empty and column p holds u.  An empty column
        has chi[b, d] = [d = 0] C(c, b) and a full one [d = b] C(c, b), so
        S_d(p, u) = sum_{b, e} chi_p[b, e] V_p[b, d - e] with V_p[b, s] the
        sum of R times prod_{j != p} C(c_j, b_j) over the tensor cells whose
        b_p is b and whose columns after p add up to s.  One sweep from the
        last column down folds each column into s with its binomials (a
        shifted add), and V_p is that fold contracted with the binomials of
        the columns before p; the classes of column p are then scored in
        chunks of ascending u (d_p truncated to the chunk's largest u) as one
        batched matmul and d convolution each, over only the box of b and s
        where V_p is nonzero.  So R is contracted J times, not once per class.
        Binomial rows and profiles are scaled by their maxima as in
        ``alpha_table``, and chunks keep within ``_CHUNK_BYTES``.  The chunks'
        log numerators are held with their first d and tilted together, by
        one ``_tilted_alphas`` call per sweep; the held ones are tilted early
        only when they and the new chunk's, padded to the widest range of d,
        would outgrow half of ``_CHUNK_BYTES`` with their log-sum-exp
        temporaries.
        """
        m = self.margins
        check_gammas(gammas)
        g = np.asarray(gammas, dtype=float)
        out = np.zeros((m.N + 1, len(g)))
        logC = _log_block_normalizer(m.rows, self.block_total, tuple(g.tolist()))
        # (rows of ``out``, (log S, its first d)) of each column's chunks,
        # held until they are tilted together
        held: list[tuple[np.ndarray, tuple[np.ndarray, int]]] = []

        def tilt() -> None:
            rows = np.concatenate([r for r, _ in held])
            out[rows] = self._tilted_alphas([part for _, part in held], g, logC[rows])
            held.clear()

        logb = [_log_binom(self._logfact, cj, np.arange(cj + 1)) for cj in m.cols]
        tops = [float(lb.max()) for lb in logb]
        binoms = [np.exp(lb - top) for lb, top in zip(logb, tops)]
        prefix = [np.ones(1)]  # prefix[p]: prod_{j < p} C(c_j, b_j), flattened
        for w in binoms[:-1]:
            prefix.append(np.multiply.outer(prefix[-1], w).ravel())
        # A[q, b_p, s]: R with the columns after p folded into s, times
        # ``sw[s]`` (a fold into a single s is only a reweighting, kept pending)
        A = self._R.reshape(-1, m.cols[-1] + 1, 1)
        sw = np.ones(1)
        for p in range(m.J - 1, -1, -1):
            cp, ns = m.cols[p], A.shape[2]
            V = (prefix[p] @ A.reshape(len(prefix[p]), -1)).reshape(cp + 1, ns) * sw
            b_nz, s_nz = np.flatnonzero(V.any(axis=1)), np.flatnonzero(V.any(axis=0))
            logscale = self._offset + math.fsum(tops) - tops[p]
            base = ns - 1  # the ones in the full columns after p
            u = np.arange(0 if p == m.J - 1 else 1, cp + 1)
            if len(b_nz) and len(u):  # else every alpha of the column is 0
                b_range = range(int(b_nz[0]), int(b_nz[-1]) + 1)
                s0 = int(s_nz[0])
                V = V[b_range.start : b_range.stop, s0 : int(s_nz[-1]) + 1].copy()
                # floats per class of largest u, sized from the margins as in
                # ``alpha_table`` (untrimmed b and s): its profile, its padded
                # convolution and its tail.  u ascends, so a chunk's largest u
                # is its last, and each chunk takes as many classes as fit there.
                per_class = np.maximum((u + 1) * (cp + ns + u + 2), len(g) * (base + u + 1))
                start = 0
                while start < len(u):
                    fits = np.arange(1, len(u) - start + 1) * per_class[start:]
                    stop = start + max(1, int(np.sum(8 * fits <= _CHUNK_BYTES)))
                    uc = u[start:stop]
                    chiT, top = _scaled_column_profile(self._logfact, cp, uc, b_range)
                    logS = _log_scaled(_matmul_convolve(chiT, V), logscale + top[:, None])
                    del chiT  # so that it is freed before the next chunk's is made
                    # the padded numerators and their log-sum-exp temporaries
                    # (about 3 G + 2 floats a term) keep to half the budget,
                    # the other half being the sweep's arrays beside them
                    K = len(uc) + sum(len(r) for r, _ in held)
                    D = max([logS.shape[1], *(S.shape[1] for _, (S, _) in held)])
                    if held and 8 * K * D * (3 * len(g) + 2) > _CHUNK_BYTES // 2:
                        tilt()
                    held.append((base + uc, (logS, s0)))
                    start = stop
            if p == 0:
                break
            if ns == 1:
                A, sw = A[:, :, 0], binoms[p] * sw[0]
            else:
                folded = np.zeros((len(A), ns + cp))
                for b in range(cp + 1):
                    folded[:, b : b + ns] += A[:, b, :] * (binoms[p][b] * sw)
                A, sw = folded, np.ones(ns + cp)
            A = A.reshape(-1, m.cols[p - 1] + 1, A.shape[1])
        if held:
            tilt()
        return out


# --------------------------------------------------------------------------
# brute-force permutation oracle
# --------------------------------------------------------------------------


def _check_subject_data(
    m: Margins, u: RawConfounder, outcome_vector: Sequence[int], model: SensitivityModel
) -> np.ndarray:
    """Outcome codes of subject-level data, checked against the table and the model.

    The outcome vector and u must have length N, the outcome codes must be
    integers that reproduce the column margins, and the bias must have one
    entry per treatment level.
    """
    if len(outcome_vector) != m.N or len(u.u) != m.N:
        raise ValueError("outcome vector and confounder must have length N")
    outcomes = _integers(outcome_vector, "outcome vector")
    # codes outside 0..J-1 are left uncounted, so the counts cannot sum to N
    if tuple(outcomes.count(j) for j in range(m.J)) != m.cols:
        raise ValueError("outcome vector does not match the table's column margins")
    model.validate_for(m)
    return np.asarray(outcomes, dtype=np.intp)


def _assignment_scores(
    labels: np.ndarray, outcomes: np.ndarray, u: Sequence[float], bias: Sequence[float], m: Margins
) -> tuple[np.ndarray, np.ndarray]:
    """(A, I, J) tables and (A,) tilts bias[labels] @ u of (A, N) treatment labels."""
    A, IJ = len(labels), m.I * m.J
    cells = labels * m.J + outcomes + (np.arange(A) * IJ)[:, None]
    tables = np.bincount(cells.ravel(), minlength=A * IJ).reshape(A, m.I, m.J)
    return tables, np.asarray(bias, dtype=float)[labels] @ np.asarray(u, dtype=float)


def brute_force_alpha(
    test: TestStatistic,
    t_obs: ContingencyTable,
    u: RawConfounder,
    outcome_vector: Sequence[int],
    model: SensitivityModel,
    critical: float | None = None,
    allow_large: bool = False,
) -> float:
    """Direct enumeration of every treatment assignment (the oracle).

    Accepts any real-valued confounder vector and either bias form.  Refuses
    N above ORACLE_CAP unless ``allow_large=True`` (factorial cost).  Level
    i < I - 1 picks N_i. of the n_i subjects the earlier levels left; the last
    level takes the rest.  Blocks of consecutive mixed-radix assignment numbers
    are labelled innermost level first from per-level complement tables, and
    weighted relative to the largest tilt, so no weight overflows.
    """
    m = t_obs.margins()
    N = m.N
    outcomes = _check_subject_data(m, u, outcome_vector, model)
    if N > ORACLE_CAP and not allow_large:
        raise ValueError(
            f"N = {N} exceeds the oracle cap {ORACLE_CAP}; pass allow_large=True "
            "to run anyway"
        )
    critical = _resolve_critical(test, t_obs, critical)
    tol = statistic_tolerance(critical)
    # the largest u on the largest bias (rearrangement inequality)
    top = np.sort(np.repeat(model.bias, m.rows)) @ np.sort(u.u)

    # the n_{i+1} subjects left by level i's k-th pick (lexicographic) of
    # N_i. among n_i are the (C(n_i, N_i.) - 1 - k)-th n_{i+1}-combination
    n = [N - sum(m.rows[:i]) for i in range(m.I)]
    left = [np.array(list(itertools.combinations(range(a), b)), dtype=np.intp)[::-1]
            for a, b in zip(n, n[1:])]
    total = math.prod(map(len, left))
    block = max(1, _CHUNK_BYTES // (8 * (4 * N + m.I * m.J)))
    num, den = [], []
    for start in range(0, total, block):
        digits = np.arange(start, min(start + block, total))
        labels = np.full((len(digits), n[-1]), m.I - 1, dtype=np.intp)
        for i in reversed(range(m.I - 1)):
            digits, k = np.divmod(digits, len(left[i]))
            inner, labels = labels, np.full((len(k), n[i]), i, dtype=np.intp)
            np.put_along_axis(labels, left[i][k], inner, 1)
        tables, tilt = _assignment_scores(labels, outcomes, u.u, model.bias, m)
        w = np.exp(model.gamma * (tilt - top))
        ok = test.evaluate_batch(tables) >= critical - tol
        num.append(fsum(w[ok].tolist()))
        den.append(fsum(w.tolist()))
    return fsum(num) / fsum(den)


# --------------------------------------------------------------------------
# multivariate extended hypergeometric distribution
# --------------------------------------------------------------------------


def _mvehg_law(
    m_rows: Sequence[int], n: int, weights: Sequence[float] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(support as an (S, I) array, probabilities) of the multivariate extended hypergeometric law.

    P(t) is proportional to prod_i C(m_i, t_i) e^{w_i t_i} on the simplex slice
    sum t_i = n.  One (I,) weight vector gives (S,) probabilities, a (G, I)
    stack (G, S), one law per row over the one support.  A non-integer row
    count or n, or a non-finite weight, raises ``ValueError``.  The one-key
    case of ``_mvehg_laws``.
    """
    support, _, probs = _mvehg_laws([_integers(m_rows, "m_rows")], _integers([n], "n"), weights)
    return support, probs


def _mvehg_laws(
    m_rows: Sequence[Sequence[int]] | np.ndarray,
    totals: Sequence[int] | np.ndarray,
    weights: Sequence[float] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(support, starts, probabilities) of K laws, one per key (``m_rows[k]``, ``totals[k]``).

    The keys' supports lie one after another in the (S, I) ``support``, key k
    in rows ``starts[k]:starts[k + 1]`` (lexicographic, from one
    ``_bounded_compositions_many`` call), and ``probs`` is (S,) for one (I,)
    weight vector, shared by the keys, or (G, S) for a (G, I) stack.  Each
    key is normalized on its own rows by the same operations as a one-key
    call (``math.log(comb(m, x))``, ``support @ w``, its own max, exp and
    sum), so its probabilities equal that call's bit for bit.  Rows and
    totals are integers (``_mvehg_law`` checks them); a key whose total its
    rows cannot reach raises ``ValueError``.
    """
    rows = np.asarray(m_rows, dtype=np.int64).reshape(len(totals), -1)
    n = np.asarray(totals, dtype=np.int64)
    w = np.asarray(weights, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1] != rows.shape[1]:
        raise ValueError("weights must match m_rows length")
    if not np.isfinite(w).all():
        raise ValueError(f"weights must be finite, not {w.tolist()}")
    support, owner = _bounded_compositions_many(n, rows)
    starts = np.searchsorted(owner, np.arange(len(n) + 1))
    if (np.diff(starts) == 0).any():
        raise ValueError("empty support")
    # one table of log C(m, x) per distinct row count, up to the largest x read
    ms, at = np.unique(rows, return_inverse=True)
    top = int(n.max())
    logcomb = np.zeros((len(ms), min(int(ms[-1]), top) + 1))
    for r, m in enumerate(ms.tolist()):
        logcomb[r, : min(m, top) + 1] = [math.log(comb(m, x)) for x in range(min(m, top) + 1)]
    at = at.reshape(rows.shape)[owner]
    logc = np.zeros(len(support))
    for i in range(rows.shape[1]):
        logc += logcomb[at[:, i], support[:, i]]
    w2 = w.reshape(-1, rows.shape[1])
    probs = np.empty((len(w2), len(support)))
    for a, b in zip(starts[:-1].tolist(), starts[1:].tolist()):
        for wg, out in zip(w2, probs[:, a:b]):
            out[:] = support[a:b] @ wg
    probs += logc
    probs -= np.maximum.reduceat(probs, starts[:-1], axis=1)[:, owner]
    np.exp(probs, out=probs)
    sums = [probs[:, a:b].sum(axis=1) for a, b in zip(starts[:-1], starts[1:])]
    probs /= np.stack(sums, axis=1)[:, owner]
    return support, starts, probs.reshape(w.shape[:-1] + (len(support),))


def tail_mass(
    values: np.ndarray, probs: np.ndarray, critical: float | np.ndarray
) -> float | np.ndarray:
    """P(T >= critical) over atoms ``probs`` at ``values``, ties by ``statistic_tolerance``.

    ``probs`` is one law (S,) or a (G, S) stack over the same support, and
    ``critical`` a scalar or an array; the result has shape
    ``probs.shape[:-1] + np.shape(critical)`` (a float when both are single).
    The support is sorted once and each tail read off its suffix sums.  A
    non-finite critical value is refused, as in ``_resolve_critical``.
    """
    critical = np.asarray(critical, dtype=float)
    if not np.isfinite(critical).all():
        raise ValueError("critical value must be finite")
    order = np.argsort(values)
    suffix = np.cumsum(probs[..., order[::-1]], axis=-1)[..., ::-1]
    suffix = np.concatenate([suffix, np.zeros(probs.shape[:-1] + (1,))], axis=-1)
    out = suffix[..., np.searchsorted(values[order], critical - statistic_tolerance(critical))]
    return float(out) if out.ndim == 0 else out


def mvehg_pmf(
    counts: Sequence[int], m_rows: Sequence[int], n: int, weights: Sequence[float]
) -> float:
    """P(T = counts) for the multivariate extended hypergeometric law.

    Density proportional to prod_i C(m_i, t_i) e^{w_i t_i} on the simplex
    slice sum t_i = n; returns 0 off support, and refuses non-integers.
    """
    counts = _integers(counts, "counts")
    m_rows = _integers(m_rows, "m_rows")
    (n,) = _integers([n], "n")
    if len(counts) != len(m_rows) or len(weights) != len(m_rows):
        raise ValueError("counts, m_rows, weights must share a length")
    if sum(counts) != n or any(t < 0 or t > mi for t, mi in zip(counts, m_rows)):
        return 0.0
    support, probs = _mvehg_law(m_rows, n, weights)
    return float(probs[(support == counts).all(axis=1)][0])


def _sequential_weighted_draw(
    U: np.ndarray,
    logweights: list[np.ndarray],
    total: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Draw (x_1, ..., x_J) with sum = total and P proportional to
    prod_j w_j[x_j], sequentially with exact suffix normalizers.

    ``logweights[j]`` gives log w_j over x_j = 0..len-1 (-inf = infeasible).
    Level j consumes uniform column j of U; the last level is forced.
    Returns (draws (size, J), exact log-probabilities, next uniform
    column).
    """
    size = U.shape[0]
    J = len(logweights)
    # suffix[j][r] = log sum over allocations of r to columns j..J-1;
    # terms[j][r, x] = log of the allocations that give x to column j
    suffix = [np.full(total + 1, -np.inf) for _ in range(J + 1)]
    suffix[J][0] = 0.0
    terms: list[np.ndarray] = [np.empty(0)] * J
    rr = np.arange(total + 1)
    for j in range(J - 1, -1, -1):
        wj = logweights[j]
        diff = rr[:, None] - np.arange(len(wj))[None, :]
        terms[j] = np.where(
            diff >= 0, wj[None, :] + np.take(suffix[j + 1], np.maximum(diff, 0)), -np.inf
        )
        suffix[j] = logsumexp(terms[j], axis=1)
    out = np.zeros((size, J), dtype=np.int64)
    log_p = np.zeros(size)
    rem = np.full(size, total, dtype=np.int64)
    for j in range(J - 1):
        logp = terms[j]
        # rows for unreachable remainders normalize to nan and are never picked
        with np.errstate(invalid="ignore"):
            logp_n = logp - suffix[j][:, None]
            cdf = np.cumsum(np.exp(logp_n), axis=1)
            cdf /= cdf[:, -1:]
        rows_cdf = cdf[rem]
        pick = (U[:, j, None] > rows_cdf).sum(axis=1)
        pick = np.minimum(pick, logp.shape[1] - 1)
        out[:, j] = pick
        log_p += logp[rem, pick] - suffix[j][rem]
        rem = rem - out[:, j]
    out[:, J - 1] = rem
    return out, log_p, J - 1


def signscore_tail(
    alpha_scores: Sequence[float],
    m_rows: Sequence[int],
    n: int,
    weights: Sequence[float],
    critical: float,
) -> float:
    """P(sum_i alpha_i M_i >= critical) with M multivariate extended hypergeometric."""
    support, probs = _mvehg_law(m_rows, n, weights)
    return tail_mass(support @ np.asarray(alpha_scores, dtype=float), probs, critical)
