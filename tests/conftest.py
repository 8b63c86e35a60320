"""Shared helpers: independent oracles used across test modules.

The table-law oracle computes the exact joint distribution of the table under
the sensitivity model at a confounder class by integer assignment counting
(per-column multinomial sweeps), independently of the production aggregation
order.  Moment and pmf checks compare against direct summation over this law.
``multiset_permutations`` walks treatment assignments one at a time for the
tests that group them by hand.  ``block_sum_normalizer`` is the exact-integer
form of the binary-delta normalizer C(u), the reference for the closed form
the package takes from the hypergeometric law of d.
"""

import math
from typing import Iterator, Sequence

import numpy as np
import pytest

from exactsens.exactdist import _c, _table_q_weights
from exactsens.sensmodel import ConfounderClass, SensitivityModel
from exactsens.tables import Margins, enumerate_fixed_margin_array


def table_law(m: Margins, cclass: ConfounderClass, model: SensitivityModel):
    """(tables array, probability vector) of the exact table distribution."""
    tables = enumerate_fixed_margin_array(m)
    delta = model.delta
    logw = np.full(len(tables), -np.inf)
    for idx, tab in enumerate(tables):
        terms = []
        for q, w in _table_q_weights(tab.astype(np.int64), cclass.ubar, m.cols).items():
            if w:
                d = sum(dd * qq for dd, qq in zip(delta, q))
                terms.append(math.log2(w) * math.log(2.0) + model.gamma * d)
        if terms:
            logw[idx] = np.logaddexp.reduce(np.array(terms))
    logw -= logw.max()
    p = np.exp(logw)
    p /= p.sum()
    return tables, p


def block_sum_normalizer(rows: Sequence[int], block_total: int, ubar: int):
    """C(u) = sum_q e^{gamma delta'q} kernel_q(q) for binary delta, from exact integers.

    Grouping q by d = delta'q gives C(u) = sum_d K_d e^{gamma d} with
    K_d = C(ubar, d) C(N - ubar, B - d) B! (N - B)! / prod_i N_i.! and B the
    delta-block treatment total.  Returns (log C(ubar, d) C(N - ubar, B - d)
    for d = 0..ubar, -inf where it vanishes; the shared log scale), so
    log K_d = logk[d] + scale.  Exact integers up to the final log.
    """
    N = sum(rows)
    scale = math.lgamma(block_total + 1) + math.lgamma(N - block_total + 1) - math.fsum(
        math.lgamma(r + 1) for r in rows
    )
    logk = np.full(ubar + 1, -np.inf)
    for d in range(ubar + 1):
        k = _c(ubar, d) * _c(N - ubar, block_total - d)
        if k:
            logk[d] = math.log2(k) * math.log(2.0)
    return logk, scale


def multiset_permutations(base: Sequence[int]) -> Iterator[list[int]]:
    """All distinct permutations of ``base`` in lexicographic order."""
    a = sorted(int(v) for v in base)
    n = len(a)
    while True:
        yield list(a)
        i = n - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
