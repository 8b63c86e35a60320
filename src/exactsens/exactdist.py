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
that carry only a few scalars each.  A candidate
scan over a Gamma grid is then one batched log-domain pass
(``RejectionAggregate.alpha_table``): R is contracted column by column
against the per-column binomial profiles, batched over the classes, while
the d buckets are convolved, and one log-sum-exp over d yields every
(class, gamma) pair.  No exact integer becomes a float, so large column
margins cannot overflow it, and classes go through in chunks of bounded
memory.

Two references check it; only the oracle battery and the tests call them.
``kernel_alpha`` sums the exact integer kernels per q over the rejected
tables.  ``brute_force_alpha`` visits every treatment assignment, level by
level, and also supports real-valued u and dose models.

Each closed-form law the package shares is implemented once, here:

* ``_bounded_compositions``: the bounded-composition supports behind
  ``omega_q``, ``mvehg_support`` and the per-column allocations;
* ``_mvehg_law``: the multivariate extended (Fisher noncentral)
  hypergeometric law that the I x 2 column counts follow at the sign-score
  worst case: its gamma-free support and binomial log-terms (``_mvehg_base``,
  built per call, never cached) renormalized per weights (``_mvehg_probs``).
  ``mvehg_pmf``, ``signscore_tail``, the sign-score worst case
  (``worstcase``, one base per Gamma grid), the stratified bounds, the size
  study and the Q law (``moments.dist_q``) take their probabilities from it,
  and ``tail_mass`` is their one P(T >= c) tie rule;
* ``_sequential_weighted_draw``: the suffix-normalizer sampler behind
  ``mvehg_sample_many`` / ``mvehg_sample`` and the tilted SIS proposal
  (``montecarlo``);
* ``_block_sum_normalizer``: the binary-delta normalizer C(u) in closed block
  form, shared by ``RejectionAggregate`` and the SIS estimator;
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
from functools import lru_cache
from math import comb, fsum, lgamma
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from exactsens.sensmodel import (
    ConfounderClass, RawConfounder, SensitivityError, SensitivityModel, check_gammas,
)
from exactsens.stats import TestStatistic
from exactsens.tables import ContingencyTable, Margins, enumerate_fixed_margin_array

__all__ = [
    "kernel_q",
    "kernel_t_q",
    "omega_q",
    "exact_alpha",
    "exact_alpha_grid",
    "kernel_alpha",
    "brute_force_alpha",
    "RejectionAggregate",
    "mvehg_support",
    "mvehg_pmf",
    "mvehg_sample",
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


def _bounded_compositions(total: int, bounds: Sequence[int]) -> np.ndarray:
    """Non-negative integer vectors with given sum and per-entry caps.

    Returns them as the rows of an (S, n) int64 array in lexicographic order;
    no rows when ``total`` lies outside ``[0, sum(bounds)]``.  The one-owner
    case of ``_bounded_compositions_many``, behind ``omega_q``,
    ``mvehg_support`` and the per-column splits of ``_table_q_weights``.
    """
    bounds = np.asarray(bounds, dtype=np.int64).reshape(1, -1)
    if not 0 <= total <= int(bounds.sum()):
        return np.zeros((0, bounds.shape[1]), dtype=np.int64)
    return _bounded_compositions_many(np.array([total]), bounds)[0]


def _bounded_compositions_many(
    totals: np.ndarray, bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bounded compositions for K (total, caps) owners at once.

    Returns (vectors, owner): the rows of ``vectors`` are every non-negative
    integer vector with sum ``totals[k]`` and entries at most ``bounds[k]``,
    grouped by ``owner`` k ascending and lexicographic within a group.
    Prefixes grow one entry at a time: each prefix is repeated once per
    feasible value of the next entry (those that leave a remainder the later
    caps can absorb), in ascending order, so only feasible prefixes are ever
    made, and the last entry takes the remainder.  An owner whose total its
    caps cannot meet gets no rows.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    rem = np.asarray(totals, dtype=np.int64)
    tails = np.cumsum(bounds[:, ::-1], axis=1)[:, ::-1] - bounds  # caps after entry i
    n = bounds.shape[1]
    owner = np.flatnonzero((rem >= 0) & (rem <= (tails[:, 0] + bounds[:, 0] if n else 0)))
    rem = rem[owner]
    cols: list[np.ndarray] = []
    for i in range(n - 1):
        lo = np.maximum(0, rem - tails[owner, i])
        count = np.minimum(bounds[owner, i], rem) - lo + 1
        parent = np.repeat(np.arange(len(rem)), count)
        v = np.repeat(lo - (np.cumsum(count) - count), count) + np.arange(len(parent))
        cols = [c[parent] for c in cols] + [v]
        rem = rem[parent] - v
        owner = owner[parent]
    if n:
        cols.append(rem)
    return np.stack(cols, axis=1) if n else np.zeros((len(owner), 0), dtype=np.int64), owner


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
            "exact alphas require a binary delta model; dose models are supported "
            "only by the sign-score closed form and the brute-force oracle"
        )
    m = t_obs.margins()
    c.validate_for(m)
    if len(model.delta) != m.I:  # type: ignore[arg-type]
        raise ValueError("delta length must match the number of treatment levels")
    if critical is None:
        critical = test(t_obs)
    if not math.isfinite(critical):
        raise ValueError("critical value must be finite")
    return float(critical)


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


# Bytes of intermediates the batched candidate scan holds at once: classes are
# contracted in chunks no larger than this allows (one class at a time when a
# single class needs more).  Unchunked, a 61-class scan raised a power study's
# peak resident memory by about a quarter.
_SCAN_CHUNK_BYTES = 2 << 20

# Bytes the streamed aggregate build lets one prefix expansion make: prefix
# batches are split so that their expanded rows, at about _BUILD_ROW_BYTES
# each (the carried per-row scalars and the expansion's temporaries), fit.
# Depth first, the build holds at most one such expansion per column.
_BUILD_CHUNK_BYTES = 2 << 20
_BUILD_ROW_BYTES = 96


@lru_cache(maxsize=1024)
def _block_sum_normalizer(
    rows: tuple[int, ...], block_total: int, ubar: int
) -> tuple[np.ndarray, float]:
    """Closed form of C(u) = sum_q e^{gamma delta'q} kernel_q(q) for binary delta.

    Grouping q by d = delta'q gives C(u) = sum_d K_d e^{gamma d} with
    K_d = C(ubar, d) C(N - ubar, B - d) B! (N - B)! / prod_i N_i.! and B the
    delta-block treatment total.  Returns (log C(ubar, d) C(N - ubar, B - d)
    for d = 0..ubar, -inf where it vanishes; the shared log scale), so
    log K_d = logk[d] + scale.  Exact integers up to the final log; cached
    per (rows, B, ubar) as a read-only array, since a candidate scan and a
    power study meet the same totals again and again.
    """
    N = sum(rows)
    scale = lgamma(block_total + 1) + lgamma(N - block_total + 1) - fsum(
        lgamma(r + 1) for r in rows
    )
    logk = np.full(ubar + 1, -np.inf)
    for d in range(ubar + 1):
        k = _c(ubar, d) * _c(N - ubar, block_total - d)
        if k:
            logk[d] = math.log2(k) * math.log(2.0)
    logk.flags.writeable = False
    return logk, scale


def _log_binom(logfact: np.ndarray, n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """log C(n, k) from a log-factorial table, -inf outside 0 <= k <= n (broadcasts)."""
    ok = (k >= 0) & (k <= n)
    kk = np.where(ok, k, 0)
    return np.where(ok, logfact[n] - logfact[kk] - logfact[np.where(ok, n - kk, 0)], -np.inf)


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


def _log_column_profile(logfact: np.ndarray, cj: int, u: np.ndarray) -> np.ndarray:
    """log chi[b, d] = log C(u, d) C(cj - u, b - d) for the (K,) ubar_j values u.

    Returns (K, cj + 1, max(u) + 1), indexed by (class, b, d), -inf where
    chi vanishes.
    """
    u = np.asarray(u, dtype=np.int64)[:, None, None]
    d = np.arange(int(u.max()) + 1)
    bd = np.arange(cj + 1)[:, None] - d  # b - d
    return _log_binom(logfact, u, d) + _log_binom(logfact, cj - u, bd)


class _ColumnLevel(NamedTuple):
    """Edges of the column network from the states before column j.

    Edge e leaves state s (edges are grouped by state; s owns
    ``ptr[s]:ptr[s + 1]``) and reaches state ``child[e]`` of the next level
    (None on the last level).  The edge fills column j, and on the last level
    also the forced last column; ``logw``, ``ridx`` and ``tterm`` sum those
    vectors' log w factors, flat offsets into R and statistic terms.  For an
    opaque statistic ``vids`` holds, per filled column, the ids of the
    vectors in that column's list, from which tables are rebuilt (empty
    otherwise).
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
    m: Margins, one_rows: Sequence[int], test: TestStatistic
) -> tuple[list[_ColumnLevel], list[np.ndarray]] | None:
    """The fixed-margin tables as paths through a column-by-column network.

    Column j's feasible vectors (``_column_vectors``) are scored once: the
    log w factor, the flat offset b_j stride_j into R and the statistic term
    (zero for an opaque statistic).  The states before column j are the
    distinct vectors of row sums still to fill, level 0 being the row
    margins, under which every column-0 vector fits.  A later state's edges
    are the column vectors that fit under it, made from per-cell bounds, so
    every edge lies on a complete table and each table is one path.  The last
    column is forced by its state and is folded into the edges that reach it,
    so the network has max(J - 1, 1) levels.  States and vectors are matched
    by their mixed-radix keys, under which a child state's key is its
    parent's minus the edge vector's.  Returns (levels, the per-column vector
    lists), or None when the key range overflows int64.
    """
    if math.prod(r + 1 for r in m.rows) >= 2**63:
        return None
    rows = np.asarray(m.rows, dtype=np.int64)
    radix = _place_values(rows + 1)
    strides = _place_values(np.asarray(m.cols, dtype=np.int64) + 1)  # of R
    vectors, keys, scores = [], [], []
    for j, cj in enumerate(m.cols):
        vec, key, logw, b = _column_vectors(cj, m.rows, tuple(one_rows))
        tterm = (np.zeros(len(vec)) if test.column_terms is None
                 else np.asarray(test.column_terms(vec, j, m), dtype=float))
        vectors.append(vec)
        keys.append(key)
        scores.append((logw, b * strides[j], tterm))

    state = rows[None, :]
    state_key = state @ radix
    levels = []
    for j in range(max(m.J - 1, 1)):
        if j == 0:
            vec, owner = vectors[0], np.zeros(len(vectors[0]), dtype=np.int64)
        else:
            vec, owner = _bounded_compositions_many(np.full(len(state), m.cols[j]), state)
        vkey = vec @ radix
        child_key = state_key[owner] - vkey
        ptr = np.searchsorted(owner, np.arange(len(state) + 1))
        vids = {j: np.searchsorted(keys[j], vkey)}  # column -> vector ids
        child = None
        if j + 2 < m.J:
            state_key, first, child = np.unique(child_key, return_index=True, return_inverse=True)
            state = state[owner[first]] - vec[first]
        elif m.J > 1:  # the child state is the forced last column
            vids[m.J - 1] = np.searchsorted(keys[-1], child_key)
        logw, ridx, tterm = (sum(scores[k][q][v] for k, v in vids.items()) for q in range(3))
        opaque_ids = tuple(vids.values()) if test.column_terms is None else ()
        levels.append(_ColumnLevel(ptr, child, opaque_ids, logw, ridx, tterm))
    return levels, vectors


class RejectionAggregate:
    """Gamma-free summary of a rejection region for one (margins, test, critical, delta).

    R accumulates, for every vector b of per-column delta-block sums, the
    total R[b] of the table weights w(t) (``_log_table_weight``) over the
    rejected tables (log-offset floats; all terms positive).  The numerator
    of alpha at a confounder class ubar is S_d = sum_b R[b] sum_{d_1 + ... +
    d_J = d} prod_j chi_j[b_j, d_j] with the column profiles of
    ``_log_column_profile``.  The denominator has the closed form
    C(ubar, d) C(N - ubar, B - d) B! (N - B)! / prod N_i.! with B the
    delta-block treatment total.

    R is built from a stream over the reference set that never holds the
    tables.  log w, b and the built-in statistics are sums of per-column
    terms (``TestStatistic.column_terms``), so a table is a path of column
    ids through ``_column_network`` and each prefix carries only its state,
    partial log w, partial statistic and partial flat index of R.  Prefixes
    are expanded column by column in batches whose expansion stays within
    ``_BUILD_CHUNK_BYTES`` (one prefix at least), depth first, and every
    completed chunk is added to R under a running log offset that only grows,
    so no weight overflows at large margins.  An opaque statistic gets each
    chunk's tables rebuilt from their column-vector ids.  Precomputed
    ``tables`` (and ``tvals``) feed the same accumulator as one chunk.

    ``alpha_table`` evaluates a whole candidate scan in one batched pass.
    Each (class, column) chi profile is scaled by its maximum, so no exact integer is ever converted to
    float and large column margins cannot overflow.  R is contracted column
    by column as a matmul batched over the classes, convolving d as it goes,
    and one log-sum-exp over d gives every (class, gamma) pair.  Classes are
    processed in chunks whose intermediates fit in ``_SCAN_CHUNK_BYTES``.
    ``alpha_grid`` is its one-class call.
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
        self._R = np.zeros(self._shape)
        self._offset = -math.inf
        network = None
        if tables is None and tvals is None:
            network = _column_network(m, one_rows, test)
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
        """Count a chunk of ``ntables`` tables and add its rejected ones to R."""
        self.ntables += ntables
        self.nrejected += len(logw)
        if not len(logw):
            return
        top = float(logw.max())
        if top > self._offset:
            self._R *= math.exp(self._offset - top)
            self._offset = top
        np.add.at(self._R.reshape(-1), ridx, np.exp(logw - self._offset))

    def _stream(
        self, test: TestStatistic, levels: list[_ColumnLevel], vectors: list[np.ndarray]
    ) -> None:
        """Accumulate R over the paths of the column network, chunk by chunk."""
        m = self.margins
        opaque = test.column_terms is None
        # an opaque statistic's rows also carry J ids and a rebuilt table
        row_bytes = _BUILD_ROW_BYTES + (8 * (m.J + 3 * m.I * m.J) if opaque else 0)
        budget = max(1, _BUILD_CHUNK_BYTES // row_bytes)
        root = np.zeros(1, dtype=np.int64)
        prefixes = (root, np.zeros(1), np.zeros(1), root, [] if opaque else None)
        self._descend(test, levels, vectors, budget, 0, *prefixes)

    def _descend(self, test, levels, vectors, budget, j, state, logw, tterm, ridx, ids) -> None:
        """Expand the prefixes at network level j in batches, depth first.

        Prefix p sits at ``state[p]`` with partial sums ``logw[p]``,
        ``tterm[p]`` and ``ridx[p]``; for an opaque statistic ``ids`` holds
        its column-vector ids so far, one array per column (else None).
        """
        lev = levels[j]
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
                self._descend(test, levels, vectors, budget, j + 1, lev.child[edge],
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

    def _class_array(self, classes: Sequence[ConfounderClass]) -> np.ndarray:
        for c in classes:
            c.validate_for(self.margins)
        return np.array([c.ubar for c in classes], dtype=np.int64).reshape(-1, self.margins.J)

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
            logchi = _log_column_profile(self._logfact, cj, U[:, j])
            n = logchi.shape[2]
            top = logchi.max(axis=(1, 2))
            logscale += top
            chiT = np.exp(logchi - top[:, None, None]).transpose(0, 2, 1)
            D, P = M.shape[1], M.shape[3]
            # sum over b_j into the first n of n + D columns: (K, D, n, rest);
            # the d convolution then skews row i of each (D, n) block right by
            # i and sums the rows, and re-reading the zero-padded buffer with
            # rows of n + D - 1 does the skew without a copy
            pad = np.zeros((K, D, n + D, P))
            np.matmul(chiT[:, None], M, out=pad[:, :, :n])
            E = n + D - 1
            M = pad.reshape(K, -1)[:, : D * E * P].reshape(K, D, E, P).sum(axis=1)
            if j + 1 < len(self._shape):
                M = M.reshape(K, E, self._shape[j + 1], -1)
        S = M[:, :, 0]
        logS = np.full(S.shape, -np.inf)
        nz = S > 0
        logS[nz] = np.log(S[nz])
        return logS + logscale[:, None]

    def alpha(self, c: ConfounderClass, gamma: float) -> float:
        return self.alpha_grid(c, [gamma])[0]

    def alpha_grid(self, c: ConfounderClass, gammas: Sequence[float]) -> list[float]:
        return self.alpha_table([c], gammas)[0].tolist()

    def alpha_table(
        self, classes: Sequence[ConfounderClass], gammas: Sequence[float]
    ) -> np.ndarray:
        """(K, G) array: exact alpha of class k (row) at gamma g (column)."""
        U = self._class_array(classes)
        g = np.asarray(gammas, dtype=float)
        out = np.zeros((len(U), len(g)))
        per_class = max(self._floats_per_class(), len(g) * (self.margins.N + 1))
        chunk = max(1, _SCAN_CHUNK_BYTES // (8 * per_class))
        for start in range(0, len(U), chunk):
            Uc = U[start : start + chunk]
            logS = self._log_numerators(Uc)
            logK = np.full(logS.shape, -np.inf)
            totals = Uc.sum(axis=1)
            for total in sorted(set(totals.tolist())):
                logk, scale = _block_sum_normalizer(self.margins.rows, self.block_total, total)
                logK[totals == total, : total + 1] = logk + scale
            tilt = g[:, None] * np.arange(logS.shape[1])
            num = logsumexp(logS[:, None, :] + tilt, axis=-1)
            den = logsumexp(logK[:, None, :] + tilt, axis=-1)
            out[start : start + chunk] = np.exp(num - den)
        return out


# --------------------------------------------------------------------------
# brute-force permutation oracle
# --------------------------------------------------------------------------


def _check_subject_data(
    m: Margins, u: RawConfounder, outcome_vector: Sequence[int], model: SensitivityModel
) -> np.ndarray:
    """Outcome codes of subject-level data, checked against the table and the model.

    The outcome vector and u must have length N, the outcome codes must
    reproduce the column margins, and the bias must have one entry per
    treatment level.
    """
    if len(outcome_vector) != m.N or len(u.u) != m.N:
        raise ValueError("outcome vector and confounder must have length N")
    outcomes = [int(r) for r in outcome_vector]
    # codes outside 0..J-1 are left uncounted, so the counts cannot sum to N
    if tuple(outcomes.count(j) for j in range(m.J)) != m.cols:
        raise ValueError("outcome vector does not match the table's column margins")
    if model.I != m.I:
        raise ValueError("bias length must match the number of treatment levels")
    return np.asarray(outcomes, dtype=np.intp)


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
    N above ORACLE_CAP unless ``allow_large=True`` (factorial cost).  Each
    treatment level i < I - 1 picks its N_i. subjects among those still
    unassigned, and the last level takes the rest; the innermost picking
    level runs as one vectorized block per choice of the levels above it.
    """
    m = t_obs.margins()
    N = m.N
    outcomes = _check_subject_data(m, u, outcome_vector, model)
    if N > ORACLE_CAP and not allow_large:
        raise ValueError(
            f"N = {N} exceeds the oracle cap {ORACLE_CAP}; pass allow_large=True "
            "to run anyway"
        )
    if critical is None:
        critical = test(t_obs)
    tol = statistic_tolerance(critical)
    bias = np.asarray(model.bias, dtype=float)
    uvec = np.asarray(u.u, dtype=float)
    onehot = np.eye(m.J, dtype=np.int64)[outcomes]

    # per picking level: (C, N_i.) combinations of positions among the n
    # subjects still unassigned, and the (C, n - N_i.) complements
    picks = []
    n = N
    for r in m.rows[:-1]:
        chosen = np.array(list(itertools.combinations(range(n), r)), dtype=np.intp)
        free = np.ones((len(chosen), n), dtype=bool)
        free[np.arange(len(chosen))[:, None], chosen] = False
        picks.append((chosen, np.nonzero(free)[1].reshape(len(chosen), n - r)))
        n -= r

    num_blocks: list[float] = []
    den_blocks: list[float] = []

    def walk(levels: list[np.ndarray], unassigned: np.ndarray) -> None:
        chosen, rest = picks[len(levels)]
        if len(levels) + 1 < len(picks):
            for pick, left in zip(unassigned[chosen], unassigned[rest]):
                walk(levels + [pick], left)
            return
        # the innermost picking level, over all its choices at once, and the
        # last level, which takes the rest
        levels = levels + [unassigned[chosen], unassigned[rest]]
        rows = np.broadcast_arrays(*(onehot[s].sum(axis=-2) for s in levels))
        tilt = sum(b * uvec[s].sum(axis=-1) for b, s in zip(bias, levels))
        w = np.exp(model.gamma * tilt)
        ok = test.evaluate_batch(np.stack(rows, axis=-2)) >= critical - tol
        num_blocks.append(fsum(w[ok].tolist()))
        den_blocks.append(fsum(w.tolist()))

    walk([], np.arange(N))
    return fsum(num_blocks) / fsum(den_blocks)


# --------------------------------------------------------------------------
# multivariate extended hypergeometric distribution
# --------------------------------------------------------------------------


def mvehg_support(m_rows: Sequence[int], n: int) -> list[tuple[int, ...]]:
    """All count vectors t with sum t_i = n, 0 <= t_i <= m_i."""
    return list(map(tuple, _bounded_compositions(n, m_rows).tolist()))


def _log_binomials(m_rows: Sequence[int], n: int) -> list[np.ndarray]:
    """Per level i, log C(m_i, x) for x = 0..min(m_i, n) (gamma-free)."""
    return [np.array([math.log(comb(mi, x)) for x in range(min(mi, n) + 1)]) for mi in m_rows]


def _mvehg_base(m_rows: Sequence[int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(support as an (S, I) array, sum_i log C(m_i, t_i) over it); gamma-free."""
    support = _bounded_compositions(n, m_rows)
    if not len(support):
        raise ValueError("empty support")
    logc = np.zeros(len(support))
    for i, tab in enumerate(_log_binomials(m_rows, n)):
        logc += tab[support[:, i]]
    return support, logc


def _mvehg_probs(support: np.ndarray, logc: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """The law's probabilities at ``weights`` over a ``_mvehg_base`` support."""
    logterms = logc + support @ np.asarray(weights, dtype=float)
    probs = np.exp(logterms - logterms.max())
    probs /= probs.sum()
    return probs


def _mvehg_law(
    m_rows: Sequence[int], n: int, weights: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """(support, probabilities) of the multivariate extended hypergeometric law.

    P(t) is proportional to prod_i C(m_i, t_i) e^{w_i t_i} on the simplex slice
    sum t_i = n: ``_mvehg_probs`` over ``_mvehg_base``.  A caller that needs
    the law at several weights builds the base once and composes the two.
    """
    m_rows = tuple(int(v) for v in m_rows)
    if len(weights) != len(m_rows):
        raise ValueError("weights must match m_rows length")
    support, logc = _mvehg_base(m_rows, int(n))
    return support, _mvehg_probs(support, logc, weights)


def tail_mass(values: np.ndarray, probs: np.ndarray, critical: float) -> float:
    """P(T >= critical) over atoms ``probs`` at ``values``, ties by ``statistic_tolerance``."""
    return float(probs[values >= critical - statistic_tolerance(critical)].sum())


def mvehg_pmf(
    counts: Sequence[int], m_rows: Sequence[int], n: int, weights: Sequence[float]
) -> float:
    """P(T = counts) for the multivariate extended hypergeometric law.

    Density proportional to prod_i C(m_i, t_i) e^{w_i t_i} on the simplex
    slice sum t_i = n; returns 0 off support.
    """
    counts = tuple(int(v) for v in counts)
    m_rows = tuple(int(v) for v in m_rows)
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


def mvehg_sample_many(
    rng: np.random.Generator,
    m_rows: Sequence[int],
    n: int,
    weights: Sequence[float],
    size: int,
) -> np.ndarray:
    """(size, I) exact draws; sequential conditionals shared across the batch.

    Level i takes its exact conditional given the remaining total from the
    suffix-normalizer sampler with log-weights log C(m_i, x) + w_i x, using
    the i-th block of ``size`` uniforms; the last level is forced.
    """
    m_rows = tuple(int(v) for v in m_rows)
    I = len(m_rows)
    if len(weights) != I:
        raise ValueError("weights must match m_rows length")
    if not 0 <= n <= sum(m_rows):
        raise ValueError("infeasible total n")
    logweights = [
        tab + float(w) * np.arange(len(tab))
        for tab, w in zip(_log_binomials(m_rows, int(n)), weights)
    ]
    U = rng.random((I - 1, size)).T
    draws, _, _ = _sequential_weighted_draw(U, logweights, n)
    return draws


def mvehg_sample(
    rng: np.random.Generator,
    m_rows: Sequence[int],
    n: int,
    weights: Sequence[float],
) -> np.ndarray:
    """One exact draw via sequential conditional sampling of each level."""
    return mvehg_sample_many(rng, m_rows, n, weights, 1)[0]


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
