"""Worst-case confounder search over finite candidate sets.

The worst-case p-value maximizes the exact significance level over all
admissible confounders.  The search space collapses by test family:

* permutation-invariant tests: it suffices to scan every distinct vector of
  per-outcome u=1 counts, at most prod_j (N_.j + 1) classes;
* ordinal tests (monotone scores, monotone delta): the maximizer is a
  suffix of ones over subjects sorted by outcome, N + 1 classes;
* sign-score tests (J = 2, monotone bias): the maximizer is pinned at
  ubar = (0, N_.2), a single class, where the column-2 counts follow a
  multivariate extended hypergeometric law.

``worst_case_grid`` picks the cheapest valid strategy (a requested one is
checked against the same conditions and refused if they fail), records it
in ``WorstCaseResult.strategy_used``, and reduces it to two arrays: the
(K, J) candidate classes in lexicographic order and their (K, G) alpha
table from one gamma-free build for the whole grid.  For a corner scan that
is a table aggregation, ``RejectionAggregate.suffix_alpha_table`` for the
ordinal suffix classes and ``alpha_table`` for the full per-outcome grid;
for the sign score, ``_signscore_pvalues``: one ``_mvehg_laws`` call for
the whole grid, the statistic evaluated once on its support and one
``tail_mass`` over any number of critical values.  The power study hands
it every distinct (rows, column-2 total) key of a variant's draws at once:
the keys' laws come from one law pass (in chunks of bounded memory) and
each draw's tail is read off its own key's law, never a sum across keys.
``_worst_case_grids`` does the same for many tables that share I and J
(a study's strata, a power study's draws): their aggregates come from one
stacked build (``RejectionAggregate._stack``, one network per run of tables
that fits a fixed byte budget), each swept as soon as it is streamed, and
every result equals the table's own ``worst_case_grid``.
One tie rule then scans each gamma's column in candidate order, keeping the
first maximizer up to ``_TIE_REL`` so ties break toward the
lexicographically smallest class, and builds a ``ConfounderClass`` for the
winner only.
Dose (phi) models are refused outside the sign-score family: interior
confounders can beat every corner there, so a corner scan would be wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from exactsens.exactdist import (
    _CHUNK_BYTES, RejectionAggregate, _mvehg_laws, _resolve_critical, tail_mass,
)
from exactsens.sensmodel import ConfounderClass, SensitivityError, SensitivityModel, check_gammas
from exactsens.stats import TestFamily, TestStatistic
from exactsens.tables import ContingencyTable, Margins

__all__ = [
    "WorstCaseResult",
    "MultiDeltaResult",
    "candidates_pi",
    "candidates_ordinal",
    "signscore_u_plus",
    "worst_case_pvalue",
    "worst_case_grid",
    "worst_case_multi_delta",
]

# classes whose p-values agree within this relative slack count as tied, so
# the reported argmax is stable against contraction-order float jitter
_TIE_REL = 1e-12


@dataclass(frozen=True)
class WorstCaseResult:
    pvalue: float
    argmax_class: ConfounderClass
    candidates_scanned: int
    family_used: TestFamily
    strategy_used: str  # the resolved strategy: "signscore", "ordinal" or "pi"


@dataclass(frozen=True)
class MultiDeltaResult:
    pvalue: float
    delta: tuple[int, ...]
    per_delta: tuple[WorstCaseResult, ...]


def _pi_classes(m: Margins) -> np.ndarray:
    """(prod_j (N_.j + 1), J) array of every class 0 <= ubar_j <= N_.j, lexicographic."""
    return np.indices([c + 1 for c in m.cols]).reshape(m.J, -1).T


def _ordinal_classes(m: Margins) -> np.ndarray:
    """(N + 1, J) array of the suffix classes: row k has k ones filling levels from J down.

    With outcomes sorted ascending, the ordinal maximizer has u
    non-decreasing, so the k subjects with u = 1 occupy the top outcome
    levels; level j takes what the levels after it leave of k, up to N_.j.
    """
    cols = np.asarray(m.cols)
    after = np.cumsum(cols[::-1])[::-1] - cols
    return np.clip(np.arange(m.N + 1)[:, None] - after, 0, cols)


def candidates_pi(m: Margins) -> Iterator[ConfounderClass]:
    """Every per-outcome count vector 0 <= ubar_j <= N_.j, each exactly once."""
    return map(ConfounderClass, _pi_classes(m).tolist())


def candidates_ordinal(m: Margins) -> Iterator[ConfounderClass]:
    """The N + 1 suffix classes: k ones filling outcome levels from J down."""
    return map(ConfounderClass, _ordinal_classes(m).tolist())


def signscore_u_plus(m: Margins) -> ConfounderClass:
    """The closed-form sign-score maximizer: ones exactly on outcome level 2."""
    if m.J != 2:
        raise ValueError("the sign-score worst case requires a binary outcome")
    return ConfounderClass((0, m.cols[1]))


# what each strategy's candidate set needs to contain the worst case,
# cheapest strategy first; ``auto`` takes the first that holds
_STRATEGY_NEEDS = {
    "signscore": "a sign-score statistic, a binary outcome and monotone bias",
    "ordinal": "an ordinal or sign-score statistic, monotone bias and a binary delta",
    "pi": "a binary delta",
}


def _resolve_strategy(
    test: TestStatistic, model: SensitivityModel, m: Margins, strategy: str
) -> str:
    """The requested strategy once vetted, or the cheapest valid one for ``auto``.

    A strategy whose candidate set can miss the worst case for this test,
    model and table shape raises ``SensitivityError``.
    """
    monotone = model.monotone_bias()
    holds = {
        "signscore": test.family is TestFamily.SIGN_SCORE and m.J == 2 and monotone,
        "ordinal": model.is_binary and monotone
        and test.family in (TestFamily.ORDINAL, TestFamily.SIGN_SCORE),
        "pi": model.is_binary,
    }
    if strategy == "auto":
        for name, ok in holds.items():
            if ok:
                return name
        raise SensitivityError(
            "dose (phi) models admit interior worst cases outside the sign-score "
            "family; refusing a corner scan"
        )
    if strategy not in holds:
        raise ValueError(f"unknown strategy {strategy!r}")
    if not holds[strategy]:
        raise SensitivityError(f"the {strategy} strategy needs {_STRATEGY_NEEDS[strategy]}")
    return strategy


def _signscore_pvalues(
    test: TestStatistic,
    rows: Sequence[int] | np.ndarray,
    n: int | np.ndarray,
    bias: Sequence[float],
    gammas: Sequence[float],
    criticals: Sequence[float],
    key: np.ndarray | None = None,
) -> np.ndarray:
    """(G, M) sign-score worst-case alphas P(T >= c) at u+ = (0, n), per gamma and critical.

    One key is (I,) ``rows`` and an int ``n``; K keys are (K, I) ``rows``
    and (K,) ``n``, and ``key[m]`` is the key of ``criticals[m]``.  When
    J = 2, T is a function of the column-2 count vector, so the keys' laws
    come from ``_mvehg_laws`` at the whole grid, the statistic is evaluated
    once on the reconstructed tables over their supports, and one
    ``tail_mass`` per key reads off its critical values, on that key's
    support alone.  Keys go in chunks whose supports fit ``_CHUNK_BYTES``.
    Column m of the result equals a one-key, one-critical call with
    ``criticals[m]`` bit for bit.
    """
    weights = [[g * b for b in bias] for g in gammas]
    criticals = np.asarray(criticals, dtype=float)
    n = np.asarray(n, dtype=np.int64).reshape(-1)
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    key = np.zeros(len(criticals), dtype=np.int64) if key is None else np.asarray(key)
    order = np.argsort(key, kind="stable")
    draws = np.split(order, np.searchsorted(key[order], np.arange(1, len(n))))
    # a key's support has at most prod_{i < I - 1} (min(m_i, n) + 1) rows,
    # each held as its counts, its table, its statistic and its G probabilities
    size = np.prod(np.minimum(rows[:, :-1], n[:, None]) + 1.0, axis=1)
    fits = np.cumsum(size * 8 * (3 * rows.shape[1] + 2 * len(weights) + 4))
    out = np.empty((len(weights), len(criticals)))
    lo = 0
    while lo < len(n):
        hi = lo + max(1, int(np.sum(fits[lo:] - (fits[lo - 1] if lo else 0) <= _CHUNK_BYTES)))
        support, starts, probs = _mvehg_laws(rows[lo:hi], n[lo:hi], weights)
        owner = np.repeat(np.arange(lo, hi), np.diff(starts))
        tvals = test.evaluate_batch(np.stack([rows[owner] - support, support], axis=2))
        for k, a, b in zip(range(lo, hi), starts[:-1].tolist(), starts[1:].tolist()):
            out[:, draws[k]] = tail_mass(tvals[a:b], probs[:, a:b], criticals[draws[k]])
        lo = hi
    return out


def worst_case_pvalue(
    test: TestStatistic,
    t_obs: ContingencyTable,
    model: SensitivityModel,
    critical: float | None = None,
    strategy: str = "auto",
) -> WorstCaseResult:
    """Maximize the exact significance level over the candidate classes."""
    return worst_case_grid(test, t_obs, model, [model.gamma], critical, strategy)[0]


def worst_case_grid(
    test: TestStatistic,
    t_obs: ContingencyTable,
    model: SensitivityModel,
    gammas: Sequence[float],
    critical: float | None = None,
    strategy: str = "auto",
) -> list[WorstCaseResult]:
    """Worst case at each gamma from one gamma-free build (aggregate or MVEHG support).

    The one-table call of ``_worst_case_grids``.
    """
    criticals = None if critical is None else [critical]
    return _worst_case_grids(test, [t_obs], model, gammas, criticals, strategy)[0]


def _worst_case_grids(
    test: TestStatistic,
    tables: Sequence[ContingencyTable],
    model: SensitivityModel,
    gammas: Sequence[float],
    criticals: Sequence[float] | None = None,
    strategy: str = "auto",
) -> list[list[WorstCaseResult]]:
    """``worst_case_grid`` of each table, for tables that share I and J, from one stacked build.

    The observed statistics (when ``criticals`` is None) are evaluated in
    one batch.  A corner scan's aggregates come from one stack
    (``RejectionAggregate._stack``), and each is swept as soon as it is
    streamed, so one R is held at a time; the sign-score worst cases come
    from one ``_signscore_pvalues`` call over the tables' keys.  Every
    result equals the table's own ``worst_case_grid`` bit for bit.
    """
    check_gammas(gammas)
    if not tables:
        return []
    ms = [t.margins() for t in tables]
    for m in ms:
        model.validate_for(m)
    if criticals is None:
        criticals = test.evaluate_batch(np.stack([t.as_array() for t in tables])).tolist()
    criticals = [_resolve_critical(test, t, c) for t, c in zip(tables, criticals)]
    strategy = _resolve_strategy(test, model, ms[0], strategy)
    if strategy == "signscore":
        p = _signscore_pvalues(test, [m.rows for m in ms], [m.cols[1] for m in ms], model.bias,
                               gammas, criticals, np.arange(len(ms)))
        return [_scan_results(np.array([signscore_u_plus(m).ubar]), p[:, k : k + 1].T, test,
                              strategy) for k, m in enumerate(ms)]
    out = []
    aggs = RejectionAggregate._stack(ms, test, criticals, model.delta)  # type: ignore[arg-type]
    for m, agg in zip(ms, aggs):
        if strategy == "ordinal":
            U, table = _ordinal_classes(m), agg.suffix_alpha_table(gammas)
        else:
            U = _pi_classes(m)
            table = agg.alpha_table(U, gammas)
        del agg  # so that it is freed before the next table's is built
        out.append(_scan_results(U, table, test, strategy))
    return out


def _scan_results(
    U: np.ndarray, table: np.ndarray, test: TestStatistic, strategy: str
) -> list[WorstCaseResult]:
    """Per gamma, the first maximizer of the (K, G) alpha ``table`` over the classes U."""
    # candidate rows are lexicographically ascending, so keeping the first
    # maximizer (up to _TIE_REL jitter) realizes the lex-smallest tie-break
    # while the reported p stays equal to alpha at the reported class
    results = []
    for col in table.T.tolist():
        best, top = 0, col[0]
        for k, v in enumerate(col):
            if v > top * (1.0 + _TIE_REL):
                best, top = k, v
        results.append(WorstCaseResult(
            pvalue=min(top, 1.0),
            argmax_class=ConfounderClass(U[best].tolist()),
            candidates_scanned=len(U),
            family_used=test.family,
            strategy_used=strategy,
        ))
    return results


def worst_case_multi_delta(
    test: TestStatistic,
    t_obs: ContingencyTable,
    gamma: float,
    deltas: Sequence[Sequence[int]],
    critical: float | None = None,
    strategy: str = "auto",
) -> MultiDeltaResult:
    """Max worst-case p over several candidate bias vectors; per-delta maxima combine."""
    if not deltas:
        raise ValueError("at least one delta is required")
    results = []
    for d in deltas:
        model = SensitivityModel(gamma=gamma, delta=tuple(d))
        results.append((model.delta, worst_case_pvalue(test, t_obs, model, critical, strategy)))
    best_delta, best = max(results, key=lambda dr: (dr[1].pvalue, tuple(-v for v in dr[0])))
    return MultiDeltaResult(
        pvalue=best.pvalue,
        delta=best_delta,
        per_delta=tuple(r for _, r in results),
    )
