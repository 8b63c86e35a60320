"""Stratified (I x J x K) inference: per-stratum worst cases and combining.

Treatment assignments are independent across strata, so each stratum gets its
own exact worst-case p-value and evidence is pooled afterwards.  The combiner
is the truncated product W = prod_l p_l^{1{p_l <= tau}} of L p-values (the K
strata, or a subset of them in closed testing).  Its null law is taken with
the p-values replaced by independent uniforms, which is valid (conservative)
because each worst-case p-value is stochastically no smaller than uniform
under the joint sharp null.  For 0 < w < 1 that law has a closed form
(Zaykin et al., Genet. Epidemiol. 22:170-185, 2002):

    P(W <= w) = sum_{k=1..L} C(L, k) (1 - tau)^(L-k) F_k(w),
    F_k(w) = w sum_{s<k} (k ln tau - ln w)^s / s!   if w <= tau^k, else tau^k,

where F_k(w) is the probability that k given uniforms all fall at or below
tau with product at most w.  Every term is positive, so the sum is formed in
the log domain, where neither C(L, k) at large L nor the series at a
subnormal w overflows.  The combined p-value is exact: no simulation and no
random numbers.

Closed testing turns the combiner into per-stratum familywise-error
decisions: a stratum is rejected only if every subset containing it rejects,
singletons using the raw p-value and larger subsets the subset-restricted
truncated product.  That local test is symmetric and non-decreasing in each
p-value, so of the size-L subsets containing k the hardest to reject is k
with the L - 1 largest other p-values: one nested chain per stratum, at most
K (K - 1) local tests for any K instead of 2^K - 1 (Dobriban, "Fast closed
testing for exchangeable local tests", Biometrika 107:761-768, 2020).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from exactsens.exactdist import _log_binom, log_factorials
from exactsens.sensmodel import SensitivityModel, check_level
from exactsens.stats import TestStatistic, ordinal_statistic
from exactsens.tables import ContingencyTable, _read_counts, read_numbers
from exactsens.worstcase import worst_case_grid

__all__ = [
    "StratifiedStudy",
    "CombinedResult",
    "analyze_study",
    "analyze_study_grid",
    "stratified_worst_case",
    "stratified_worst_case_grid",
    "truncated_product",
    "combined_pvalue",
    "closed_testing",
]

DEFAULT_TAU = 0.2


@dataclass(frozen=True)
class StratifiedStudy:
    """K independent tables sharing I and J, with per-stratum ordinal scores."""

    strata: tuple[ContingencyTable, ...]
    alphas: tuple[tuple[float, ...], ...]
    betas: tuple[tuple[float, ...], ...]
    model: SensitivityModel

    def __post_init__(self) -> None:
        if not self.strata:
            raise ValueError("at least one stratum is required")
        I, J = self.strata[0].I, self.strata[0].J
        if any(t.I != I or t.J != J for t in self.strata):
            raise ValueError("all strata must share I and J")
        if len(self.alphas) != len(self.strata) or len(self.betas) != len(self.strata):
            raise ValueError("per-stratum scores must match the number of strata")

    @property
    def K(self) -> int:
        return len(self.strata)

    def statistic(self, k: int) -> TestStatistic:
        return ordinal_statistic(self.alphas[k], self.betas[k])

    @classmethod
    def from_json(cls, text: str) -> tuple["StratifiedStudy", float]:
        """Parse the stratified input document; returns (study, tau)."""
        try:
            data = json.loads(text)
            strata = list(enumerate(data["strata"], 1))
            tables = tuple(_read_counts(s["counts"], f"stratum {k} counts") for k, s in strata)
            alphas = tuple(read_numbers(s["alpha"], f"stratum {k} alpha") for k, s in strata)
            betas = tuple(read_numbers(s["beta"], f"stratum {k} beta") for k, s in strata)
            model = SensitivityModel.from_json(text)  # reads gamma and delta or phi only
            tau = read_numbers([data.get("tau", DEFAULT_TAU)], "tau")[0]
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ValueError(f"malformed stratified input: {exc}") from exc
        return cls(tables, alphas, betas, model), tau


@dataclass(frozen=True)
class CombinedResult:
    per_stratum_p: tuple[float, ...]
    W: float
    combined_p: float
    tau: float
    closed_testing_rejections: tuple[bool, ...]


def analyze_study(
    study: StratifiedStudy, tau: float = DEFAULT_TAU, alpha_level: float = 0.05
) -> CombinedResult:
    """Per-stratum worst cases, truncated-product combination, closed testing."""
    return analyze_study_grid(study, [study.model.gamma], tau, alpha_level)[0]


def analyze_study_grid(
    study: StratifiedStudy,
    gammas: Sequence[float],
    tau: float = DEFAULT_TAU,
    alpha_level: float = 0.05,
) -> list[CombinedResult]:
    """``analyze_study`` at each gamma of ``gammas`` (``study.model.gamma`` is ignored).

    Closed testing's chains share subsets (the largest p-values enter every
    chain), so each gamma's local test combines every distinct subset once,
    remembered by the subset's p-values in stratum order.  A level that is
    not in (0, 1] raises ``ValueError`` before any scan.
    """
    check_level(alpha_level)
    out = []
    for pvals in stratified_worst_case_grid(study, gammas):
        combined: dict[tuple[float, ...], float] = {}

        def subset_comb(ps: Sequence[float]) -> float:
            key = tuple(ps)
            if key not in combined:
                combined[key] = combined_pvalue(truncated_product(ps, tau), len(ps), tau)
            return combined[key]

        W = truncated_product(pvals, tau)
        out.append(CombinedResult(
            per_stratum_p=tuple(float(p) for p in pvals),
            W=float(W),
            combined_p=float(combined_pvalue(W, study.K, tau)),
            tau=float(tau),
            closed_testing_rejections=closed_testing(list(pvals), subset_comb, alpha_level),
        ))
    return out


def stratified_worst_case(study: StratifiedStudy) -> np.ndarray:
    """Independent per-stratum worst-case p-values."""
    return stratified_worst_case_grid(study, [study.model.gamma])[0]


def stratified_worst_case_grid(study: StratifiedStudy, gammas: Sequence[float]) -> np.ndarray:
    """(G, K) per-stratum worst-case p-values at each gamma of ``gammas``.

    One ``worst_case_grid`` per stratum: its gamma-free aggregate serves the
    whole grid.
    """
    return np.asarray([
        [res.pvalue for res in
         worst_case_grid(study.statistic(k), study.strata[k], study.model, gammas)]
        for k in range(study.K)
    ]).T


def truncated_product(pvals: Sequence[float], tau: float) -> float:
    """W = prod of the p-values at or below tau; empty product is 1."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    out = 1.0
    for p in pvals:
        if not 0.0 <= p <= 1.0:
            raise ValueError("p-values must lie in [0, 1]")
        if p <= tau:
            out *= p
    return out


def combined_pvalue(
    W_obs: float, K: int, tau: float, rng: object = None, M: object = None
) -> float:
    """Exact P(W' <= W_obs) with W' the truncated product of K iid uniforms.

    The law is the closed form in the module docstring.  ``rng`` and ``M``
    are ignored; they remain so that callers written for the former Monte
    Carlo signature ``(W_obs, K, tau, rng, M)`` keep working.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    if K < 1:
        raise ValueError("K must be at least 1")
    if math.isnan(W_obs):
        raise ValueError("W_obs must not be nan")
    if W_obs >= 1.0:
        return 1.0
    if W_obs <= 0.0:
        return 0.0
    log_tau, log_w = math.log(tau), math.log(W_obs)
    logfact = log_factorials(K)
    k = np.arange(1, K + 1)
    log_F = k * log_tau  # F_k = tau^k where W_obs > tau^k
    x = k * log_tau - log_w  # decreasing in k; W_obs <= tau^k iff x >= 0
    n = int(np.count_nonzero(x >= 0.0))
    # np.logaddexp.reduce, not exactdist.logsumexp: same 12 digits, a third of the time per call
    if n:
        s = np.arange(n)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_xs = np.where(s == 0, 0.0, s * np.log(x[:n]))  # log x^s, 0^0 = 1
        terms = np.where(s < k[:n], log_xs - logfact[s], -np.inf)
        log_F[:n] = log_w + np.logaddexp.reduce(terms, axis=0)
    log_binom = _log_binom(logfact, K, k)
    total = np.logaddexp.reduce(log_binom + (K - k) * math.log1p(-tau) + log_F)
    return min(1.0, math.exp(total))


def closed_testing(
    per_stratum_p: Sequence[float],
    combined_p_fn: Callable[[Sequence[float]], float],
    alpha_level: float,
) -> tuple[bool, ...]:
    """Familywise decisions: reject k iff every subset containing k rejects.

    ``combined_p_fn`` maps a subset's p-values (size >= 2, ascending stratum
    order) to its combined p-value, and must be symmetric in them and
    non-decreasing in each; singletons are judged by their raw p-value.
    Stratum k is rejected iff p_k and, for L = 2..K, k with the L - 1 largest
    other p-values reject; the chain stops at its first non-rejecting subset.
    """
    pvals = list(per_stratum_p)
    by_p = sorted(range(len(pvals)), key=lambda i: -pvals[i])  # largest first, stable
    out = []
    for k, p in enumerate(pvals):
        others = [i for i in by_p if i != k]
        out.append(bool(p <= alpha_level) and all(
            combined_p_fn([pvals[i] for i in sorted([k, *others[:n]])]) <= alpha_level
            for n in range(1, len(pvals))))
    return tuple(out)
