"""Power and size studies for sensitivity analyses of contingency tables.

Power: tables are generated from a linear-by-linear association model,
log mu_ij = lambda + lambda_i^Z + lambda_j^r + w alpha*_i beta*_j, holding
treatment margins fixed (each row is a multinomial draw over its conditional
outcome distribution).  For each simulated table and each Gamma on a grid,
the worst-case p-value of a chosen test variant is compared to the nominal
level; the rejection fraction over iterations is the power of the
sensitivity analysis.  Variants cover the full I x J ordinal test and the
collapsed / cross-cut alternatives, each carrying its own bias vector.

Size: with a binary outcome, data are generated *adversarially* from the
worst-case assignment law itself (the multivariate extended hypergeometric
at the sign-score maximizer).  That law's support is small and enumerated
exactly, so the rejection rate at nominal level g is the sum of P(t) over
the support points t whose p-value is at most g, for the exact tail p-value
and for the normal approximation; no tables are drawn.  The exact method
stays below the diagonal; the normal approximation can cross it.

Every power iteration uses the RNG stream (seed, iteration), so all Gamma
grid points share simulated tables.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.random  # noqa: F401  (loaded at import, not lazily at the first draw)

from exactsens.exactdist import _mvehg_law, statistic_tolerance
from exactsens.moments import normal_tail, test_moments
from exactsens.sensmodel import SensitivityError, SensitivityModel
from exactsens.stats import TestStatistic, ordinal_statistic
from exactsens.tables import ContingencyTable, Margins, collapse, crosscut
from exactsens.worstcase import signscore_u_plus, worst_case_grid

__all__ = [
    "LogLinearDGP",
    "RejectionCurve",
    "PowerTestSpec",
    "conditional_outcome_probs",
    "sample_table_fixed_treatment",
    "standard_test_suite",
    "power_curve",
    "size_curve",
]


@dataclass(frozen=True)
class LogLinearDGP:
    """Linear-by-linear association model with fixed treatment margins."""

    lambda0: float
    lambda_z: tuple[float, ...]
    lambda_r: tuple[float, ...]
    w: float
    alpha_star: tuple[float, ...]
    beta_star: tuple[float, ...]
    treatment_margins: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lambda_z) != len(self.alpha_star):
            raise ValueError("lambda_z and alpha_star must share a length")
        if len(self.lambda_r) != len(self.beta_star):
            raise ValueError("lambda_r and beta_star must share a length")
        if len(self.treatment_margins) != len(self.alpha_star):
            raise ValueError("treatment margins must have one entry per row")
        if not self.monotone_association():
            warnings.warn(
                "alpha*/beta* increments have mixed signs; the association is "
                "not monotone",
                stacklevel=2,
            )

    def monotone_association(self) -> bool:
        da = np.diff(self.alpha_star)
        db = np.diff(self.beta_star)
        return bool((da[:, None] * db[None, :] >= 0).all())

    @property
    def I(self) -> int:
        return len(self.alpha_star)

    @property
    def J(self) -> int:
        return len(self.beta_star)


def conditional_outcome_probs(dgp: LogLinearDGP) -> np.ndarray:
    """Row-conditional outcome distribution; rows sum to one."""
    a = np.asarray(dgp.alpha_star)
    b = np.asarray(dgp.beta_star)
    logmu = (
        dgp.lambda0
        + np.asarray(dgp.lambda_z)[:, None]
        + np.asarray(dgp.lambda_r)[None, :]
        + dgp.w * a[:, None] * b[None, :]
    )
    logmu -= logmu.max(axis=1, keepdims=True)  # overflow guard
    p = np.exp(logmu)
    return p / p.sum(axis=1, keepdims=True)


def sample_table_fixed_treatment(rng: np.random.Generator, dgp: LogLinearDGP) -> ContingencyTable:
    """Row i is a multinomial draw of size N_i. from its conditional law."""
    margins = dgp.treatment_margins
    if any(v < 1 for v in margins):
        raise ValueError("treatment margins must be positive")
    probs = conditional_outcome_probs(dgp)
    counts = np.stack([rng.multinomial(n, probs[i]) for i, n in enumerate(margins)])
    # keep every outcome level present in the type, even if unobserved
    return ContingencyTable.from_array(counts)


@dataclass(frozen=True)
class PowerTestSpec:
    """One test variant in a power study: an optional transform plus scores.

    ``col_groups``/``row_groups`` collapse levels; ``keep_rows``/``keep_cols``
    cross-cut; a spec sets one kind or neither.  ``delta`` is the bias vector
    used for this variant's sensitivity analysis (dimension = rows after
    transform).
    """

    name: str
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    delta: tuple[int, ...]
    row_groups: tuple[tuple[int, ...], ...] | None = None
    col_groups: tuple[tuple[int, ...], ...] | None = None
    keep_rows: tuple[int, ...] | None = None
    keep_cols: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if (self.keep_rows is not None or self.keep_cols is not None) and (
            self.row_groups is not None or self.col_groups is not None
        ):
            raise ValueError(f"test {self.name!r}: set level groups or a cross-cut, not both")

    def transform(self, t: ContingencyTable) -> ContingencyTable:
        if self.keep_rows is not None or self.keep_cols is not None:
            return crosscut(t, self.keep_rows, self.keep_cols)
        if self.row_groups is not None or self.col_groups is not None:
            rg = self.row_groups or tuple((i,) for i in range(t.I))
            cg = self.col_groups or tuple((j,) for j in range(t.J))
            return collapse(t, rg, cg)
        return t

    def statistic(self) -> TestStatistic:
        return ordinal_statistic(self.alpha, self.beta)


def standard_test_suite(
    alpha_star: Sequence[float],
    beta_star: Sequence[float],
    delta3: Sequence[int] = (0, 1, 1),
) -> list[PowerTestSpec]:
    """The six 3 x 3 comparison tests: full ordinal, collapsed, cross-cut.

    V1 merges the two low outcome levels, V2 the two high ones; the 2 x 2
    Fisher tests additionally binarize treatment as {1} vs {2, 3}; the
    cross-cut keeps the extreme row and column pair and uses the high-high
    corner count.  Three-row variants share the study delta; two-row
    variants use (0, 1).
    """
    a = tuple(float(v) for v in alpha_star)
    b = tuple(float(v) for v in beta_star)
    d3 = tuple(int(v) for v in delta3)
    return [
        PowerTestSpec("3x3-opt", a, b, d3),
        PowerTestSpec(
            "3x2-v1", a, (0.0, 1.0), d3, col_groups=((0, 1), (2,))
        ),
        PowerTestSpec(
            "3x2-v2", a, (0.0, 1.0), d3, col_groups=((0,), (1, 2))
        ),
        PowerTestSpec(
            "2x2-v1", (0.0, 1.0), (0.0, 1.0), (0, 1),
            row_groups=((0,), (1, 2)), col_groups=((0, 1), (2,)),
        ),
        PowerTestSpec(
            "2x2-v2", (0.0, 1.0), (0.0, 1.0), (0, 1),
            row_groups=((0,), (1, 2)), col_groups=((0,), (1, 2)),
        ),
        PowerTestSpec(
            "crosscut", (0.0, 1.0), (0.0, 1.0), (0, 1),
            keep_rows=(0, 2), keep_cols=(0, 2),
        ),
    ]


@dataclass(frozen=True)
class RejectionCurve:
    grid: tuple[float, ...]  # gamma values
    rates: tuple[float, ...]
    iterations: int
    seed: int
    alpha_level: float
    mc_sigma: tuple[float, ...]


def _power_one_iteration(
    dgp: LogLinearDGP,
    spec_list: Sequence[PowerTestSpec],
    gammas: list[float],
    alpha_level: float,
    seed: int,
    it: int,
) -> list[list[bool]]:
    rng = np.random.default_rng([seed, it])
    t = sample_table_fixed_treatment(rng, dgp)
    out: list[list[bool]] = []
    for spec in spec_list:
        try:
            tt = spec.transform(t)
            tt.margins()
        except ValueError:
            # a draw can leave a transformed table degenerate (e.g. an empty
            # cross-cut row); no retained data means no rejection
            out.append([False] * len(gammas))
            continue
        if len(spec.delta) != tt.I:
            raise SensitivityError(
                f"test variant {spec.name!r}: delta has {len(spec.delta)} entries "
                f"but the transformed table has {tt.I} rows"
            )
        model = SensitivityModel(gamma=gammas[0], delta=spec.delta)
        results = worst_case_grid(spec.statistic(), tt, model, gammas)
        out.append([res.pvalue <= alpha_level for res in results])
    return out


def power_curve(
    seed: int,
    dgp: LogLinearDGP,
    test_spec: PowerTestSpec | Sequence[PowerTestSpec],
    gamma_grid: Sequence[float],
    iterations: int,
    alpha_level: float = 0.05,
    return_matrix: bool = False,
):
    """Rejection rate of the worst-case test per gamma, per test variant.

    All gamma grid points reuse each iteration's table and its gamma-free
    aggregation, so a grid sweep costs one enumeration per variant; variants
    share each iteration's table (common random numbers), which makes paired
    comparisons between tests meaningful.  With ``return_matrix`` the raw
    (iterations, variant, gamma) rejection indicators are returned alongside
    the curves.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    specs = [test_spec] if isinstance(test_spec, PowerTestSpec) else list(test_spec)
    gammas = [float(g) for g in gamma_grid]
    if not gammas:
        raise ValueError("gamma grid must be non-empty")
    rejections = [
        _power_one_iteration(dgp, specs, gammas, alpha_level, seed, it)
        for it in range(iterations)
    ]
    out: dict[str, RejectionCurve] = {}
    arr = np.asarray(rejections, dtype=float)  # (iters, spec, gamma)
    for si, spec in enumerate(specs):
        rates = arr[:, si, :].mean(axis=0)
        out[spec.name] = RejectionCurve(
            grid=tuple(gammas),
            rates=tuple(float(r) for r in rates),
            iterations=iterations,
            seed=seed,
            alpha_level=alpha_level,
            mc_sigma=tuple(float(v) for v in np.sqrt(rates * (1 - rates) / iterations)),
        )
    if return_matrix:
        return out, arr
    return out


def size_curve(
    margins: Margins,
    model: SensitivityModel,
    alpha_scores: Sequence[float],
    nominal_grid: Sequence[float],
    method: str = "exact",
) -> list[float]:
    """Exact P(p <= g) at each nominal level g under the adversarial binary-outcome null.

    The null law is the multivariate extended hypergeometric at the
    sign-score worst case; the rate at g sums its probabilities over the
    support points whose p-value is at most g.  ``method`` selects the exact
    tail p-value or the moment-based normal approximation.
    """
    if margins.J != 2:
        raise ValueError("the size study needs a binary outcome")
    if method not in ("exact", "normal"):
        raise ValueError("method must be 'exact' or 'normal'")
    stat = ordinal_statistic(alpha_scores, (0.0, 1.0))
    weights = [model.gamma * b for b in model.bias]
    support, probs = _mvehg_law(margins.rows, margins.cols[1], weights)
    tvals = support @ np.asarray(stat.alpha)
    if method == "exact":
        # upper tail P(T >= t) of every support point by suffix sums
        order = np.argsort(tvals)
        suffix = np.cumsum(probs[order][::-1])[::-1]
        k = np.searchsorted(tvals[order], tvals - statistic_tolerance(tvals), side="left")
        pvals = suffix[k]
    else:
        pvals = normal_tail(tvals, *test_moments(stat, signscore_u_plus(margins), margins, model))
    return [float(probs[pvals <= g].sum()) for g in nominal_grid]
