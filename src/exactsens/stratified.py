"""Stratified (I x J x K) inference: per-stratum worst cases and combining.

Treatment assignments are independent across strata, so each stratum gets its
own exact worst-case p-value and evidence is pooled afterwards.  The default
combiner is the truncated product W = prod_k p_k^{1{p_k <= tau}}; its null
distribution is simulated by replacing the p-vector with independent
uniforms, which is valid (conservative) because each worst-case p-value is
stochastically no smaller than uniform under the joint sharp null.  Closed
testing turns the combiner into per-stratum familywise-error decisions: a
stratum is rejected only if every subset containing it rejects, singletons
using the raw p-value and larger subsets the subset-restricted truncated
product.

For binary outcomes, each stratum's sign-score statistic is stochastically
bounded by its worst-case multivariate extended hypergeometric transform;
``signscore_bound_distribution`` exposes those exact per-stratum laws so any
monotone combination of the K statistics can be bounded by Monte Carlo.  The
laws come from ``exactdist._mvehg_law``, the same code that gives the
single-table sign-score worst case.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from exactsens.exactdist import _mvehg_law, statistic_tolerance
from exactsens.sensmodel import SensitivityModel
from exactsens.stats import TestStatistic, ordinal_statistic
from exactsens.tables import ContingencyTable
from exactsens.worstcase import worst_case_pvalue

__all__ = [
    "StratifiedStudy",
    "CombinedResult",
    "analyze_study",
    "stratified_worst_case",
    "truncated_product",
    "combined_pvalue",
    "closed_testing",
    "SignScoreBound",
    "signscore_bound_distribution",
]

DEFAULT_TAU = 0.2
DEFAULT_COMBINE_ITERATIONS = 200_000


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
        data = json.loads(text)
        try:
            strata = [ContingencyTable.from_array(s["counts"]) for s in data["strata"]]
            alphas = tuple(tuple(float(v) for v in s["alpha"]) for s in data["strata"])
            betas = tuple(tuple(float(v) for v in s["beta"]) for s in data["strata"])
            model = SensitivityModel(
                gamma=float(data["gamma"]),
                delta=tuple(data["delta"]) if "delta" in data else None,
                phi=tuple(data["phi"]) if "phi" in data else None,
            )
            tau = float(data.get("tau", DEFAULT_TAU))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed stratified input: {exc}") from exc
        return cls(tuple(strata), alphas, betas, model), tau


@dataclass(frozen=True)
class CombinedResult:
    per_stratum_p: tuple[float, ...]
    W: float
    combined_p: float
    tau: float
    mc_iterations: int
    closed_testing_rejections: tuple[bool, ...]


def analyze_study(
    study: StratifiedStudy,
    tau: float = DEFAULT_TAU,
    rng: np.random.Generator | None = None,
    mc_iterations: int = DEFAULT_COMBINE_ITERATIONS,
    alpha_level: float = 0.05,
) -> CombinedResult:
    """Per-stratum worst cases, truncated-product combination, closed testing."""
    if rng is None:
        rng = np.random.default_rng(0)
    pvals = stratified_worst_case(study)
    W = truncated_product(pvals, tau)
    combined = combined_pvalue(W, study.K, tau, rng, mc_iterations)

    def subset_comb(ps: Sequence[float]) -> float:
        return combined_pvalue(truncated_product(ps, tau), len(ps), tau, rng,
                               mc_iterations)

    flags = closed_testing(list(pvals), subset_comb, alpha_level)
    return CombinedResult(
        per_stratum_p=tuple(float(p) for p in pvals),
        W=float(W),
        combined_p=float(combined),
        tau=float(tau),
        mc_iterations=int(mc_iterations),
        closed_testing_rejections=flags,
    )


def stratified_worst_case(
    study: StratifiedStudy, critical_per_stratum: Sequence[float] | None = None
) -> np.ndarray:
    """Independent per-stratum worst-case p-values."""
    out = []
    for k in range(study.K):
        crit = None if critical_per_stratum is None else critical_per_stratum[k]
        res = worst_case_pvalue(study.statistic(k), study.strata[k], study.model, crit)
        out.append(res.pvalue)
    return np.asarray(out)


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
    W_obs: float,
    K: int,
    tau: float,
    rng: np.random.Generator,
    M: int = DEFAULT_COMBINE_ITERATIONS,
) -> float:
    """Monte Carlo P(W' <= W_obs) with W' built from K iid uniforms."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    if K < 1:
        raise ValueError("K must be at least 1")
    if M < 1:
        raise ValueError("the number of Monte Carlo draws must be at least 1")
    if W_obs >= 1.0:
        return 1.0
    if W_obs <= 0.0:
        return 0.0
    U = rng.random((M, K))
    logW = np.where(U <= tau, np.log(U), 0.0).sum(axis=1)
    return float(np.mean(logW <= math.log(W_obs) + 1e-12))


def closed_testing(
    per_stratum_p: Sequence[float],
    combined_p_fn: Callable[[Sequence[float]], float],
    alpha_level: float,
) -> tuple[bool, ...]:
    """Familywise decisions: reject k iff every subset containing k rejects.

    ``combined_p_fn`` maps the p-values of a subset of size >= 2 to the
    subset's combined p-value; singleton hypotheses are judged by their raw
    p-value.
    """
    K = len(per_stratum_p)
    if K > 10:
        raise ValueError("closed testing enumerates 2^K - 1 subsets; K > 10 refused")
    pvals = list(per_stratum_p)
    subset_reject: dict[frozenset[int], bool] = {}
    for mask in range(1, 2**K):
        subset = frozenset(i for i in range(K) if mask & (1 << i))
        if len(subset) == 1:
            (k,) = subset
            subset_reject[subset] = pvals[k] <= alpha_level
        else:
            sub_p = combined_p_fn([pvals[k] for k in sorted(subset)])
            subset_reject[subset] = sub_p <= alpha_level
    out = []
    for k in range(K):
        out.append(all(rej for s, rej in subset_reject.items() if k in s))
    return tuple(out)


@dataclass(frozen=True)
class SignScoreBound:
    """Exact law of the worst-case-transformed sign-score statistic of one stratum."""

    values: np.ndarray  # statistic values on the support
    probs: np.ndarray

    def tail(self, critical: float) -> float:
        keep = self.values >= critical - statistic_tolerance(critical)
        return float(self.probs[keep].sum())

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.choice(self.values, p=self.probs, size=size)


def signscore_bound_distribution(study: StratifiedStudy) -> list[SignScoreBound]:
    """Per-stratum stochastic bounds for I x 2 x K studies.

    Stratum k's bound is alpha_(k)' M with M multivariate extended
    hypergeometric at margins (N_(k)I., N_(k).2) and weights gamma * bias;
    any monotone increasing combination of the bounded statistics yields a
    valid joint tail by Monte Carlo over these exact laws.
    """
    if study.strata[0].J != 2:
        raise ValueError("the sign-score bound requires binary outcomes")
    if not study.model.monotone_bias():
        raise ValueError("the sign-score bound requires monotone bias")
    out = []
    weights = [study.model.gamma * b for b in study.model.bias]
    for k in range(study.K):
        t = study.strata[k]
        support, probs = _mvehg_law(t.row_margins(), t.col_margins()[1], weights)
        values = support @ np.asarray(study.alphas[k], dtype=float)
        out.append(SignScoreBound(values=values, probs=probs))
    return out
