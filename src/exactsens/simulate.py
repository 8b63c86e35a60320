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
at the sign-score maximizer).  ``size_curve`` enumerates that law once, and
for both curves the rejection rate at nominal level g is the sum of P(t) over
the support points t whose p-value is at most g, for the exact tail p-value
and for the normal approximation; no tables are drawn.  The exact method
stays below the diagonal; the normal approximation can cross it.

Every power iteration uses the RNG stream (seed, iteration), so all Gamma
grid points share simulated tables.  ``power_curve`` draws them all into one
(iterations, I, J) count stack and makes one pass per variant: one
transform of the stack, one rule for degenerate draws (a transformed row
total of 0) and one ``evaluate_batch`` for every critical value.  An ordinal
or pi variant then scans its draws with one ``_worst_case_grids`` call,
whose aggregates are built as one stack.  A sign-score
variant's worst-case null law depends on the draw's rows and column-2 total
alone, and the treatment margins are fixed by design, so one
``_signscore_pvalues`` call builds the MVEHG law of every distinct pair in
one law pass and reads each draw's tail off its own pair's law.  Each curve
reports its strategy, how many aggregates or laws it built and how many
degenerate draws it counted as no rejection.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.random  # noqa: F401  (loaded at import, not lazily at the first draw)

from exactsens.exactdist import _mvehg_law, tail_mass
from exactsens.moments import normal_tail
from exactsens.sensmodel import SensitivityError, SensitivityModel, check_gammas, check_level
from exactsens.stats import TestStatistic, ordinal_statistic
from exactsens.tables import ContingencyTable, Margins, _integers, collapse, crosscut
from exactsens.worstcase import _resolve_strategy, _signscore_pvalues, _worst_case_grids

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
        for name in ("lambda0", "lambda_z", "lambda_r", "w", "alpha_star", "beta_star"):
            value = getattr(self, name)
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, not {value}")
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


def _multinomial_rows(
    rng: np.random.Generator, dgp: LogLinearDGP, probs: np.ndarray
) -> np.ndarray:
    """(I, J) counts: row i is a multinomial draw of size N_i. from ``probs[i]``."""
    margins = dgp.treatment_margins
    if any(v < 1 for v in margins):
        raise ValueError("treatment margins must be positive")
    return np.stack([rng.multinomial(n, probs[i]) for i, n in enumerate(margins)])


def sample_table_fixed_treatment(rng: np.random.Generator, dgp: LogLinearDGP) -> ContingencyTable:
    """Row i is a multinomial draw of size N_i. from its conditional law."""
    # keep every outcome level present in the type, even if unobserved
    return ContingencyTable.from_array(_multinomial_rows(rng, dgp, conditional_outcome_probs(dgp)))


@dataclass(frozen=True)
class PowerTestSpec:
    """One test variant in a power study: an optional transform plus scores.

    ``col_groups``/``row_groups`` collapse levels (an unset one keeps its
    axis); ``keep_rows``/``keep_cols`` cross-cut (an unset one keeps every
    level of its axis); a spec sets one kind or neither.  ``delta`` is the
    bias vector used for this variant's sensitivity analysis (dimension =
    rows after transform).
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

    def transform(self, t: ContingencyTable | np.ndarray) -> ContingencyTable | np.ndarray:
        """The variant's table of ``t``, or of each table of an (M, I, J) count stack."""
        if self.keep_rows is not None or self.keep_cols is not None:
            return crosscut(t, self.keep_rows, self.keep_cols)
        if self.row_groups is not None or self.col_groups is not None:
            I, J = (t.I, t.J) if isinstance(t, ContingencyTable) else np.shape(t)[-2:]
            rg = self.row_groups or tuple((i,) for i in range(I))
            cg = self.col_groups or tuple((j,) for j in range(J))
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
    d3 = _integers(delta3, "delta")
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
    strategy: str  # the resolved worst-case strategy: "signscore", "ordinal" or "pi"
    builds: int  # aggregates (ordinal, pi) or MVEHG laws (signscore) built
    skipped: int  # draws whose transform left no table, counted as no rejection


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

    All gamma grid points reuse each iteration's table, and variants share
    it (common random numbers), which makes paired comparisons between
    tests meaningful.  An ordinal or pi variant costs one gamma-free
    aggregate per draw, a variant's draws built as one stack, whose
    networks are made for runs of draws that fit a fixed byte budget, so
    memory does not grow with ``iterations``; a sign-score
    variant costs one MVEHG law per distinct (rows, column-2 total) of its
    transformed draws, all built in one law pass, since the worst-case null
    law depends on the margins alone and each draw only moves the critical
    value.  With ``return_matrix`` the raw (iterations, variant, gamma)
    rejection indicators are returned alongside the curves.
    A level outside (0, 1] raises ``ValueError``.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    specs = [test_spec] if isinstance(test_spec, PowerTestSpec) else list(test_spec)
    gammas = [float(g) for g in gamma_grid]
    check_gammas(gammas)
    check_level(alpha_level)
    full = ContingencyTable.from_array(np.ones((dgp.I, dgp.J), dtype=np.int64))
    stats, models, strategies = [], [], []
    for spec in specs:
        # a transform's validity, its row count and the variant's worst-case
        # strategy depend on the table's shape alone, so a failure on a table
        # with every cell filled is a misconfigured variant
        try:
            m = spec.transform(full).margins()
        except ValueError as exc:
            raise ValueError(f"test variant {spec.name!r}: {exc}") from exc
        if len(spec.delta) != m.I:
            raise SensitivityError(
                f"test variant {spec.name!r}: delta has {len(spec.delta)} entries "
                f"but the transformed table has {m.I} rows"
            )
        stats.append(spec.statistic())
        models.append(SensitivityModel(gamma=gammas[0], delta=spec.delta))
        strategies.append(_resolve_strategy(stats[-1], models[-1], m, "auto"))
    arr = np.zeros((iterations, len(specs), len(gammas)))  # (iters, spec, gamma)
    probs = conditional_outcome_probs(dgp)
    counts = np.stack([_multinomial_rows(np.random.default_rng([seed, it]), dgp, probs)
                       for it in range(iterations)])
    out: dict[str, RejectionCurve] = {}
    for si, spec in enumerate(specs):
        tabs = spec.transform(counts)
        # a draw can leave a transformed row empty (e.g. a cross-cut row with
        # no retained subjects); no retained data means no rejection
        live = np.flatnonzero(tabs.sum(axis=2).min(axis=1) > 0)
        tabs = tabs[live]
        crits = stats[si].evaluate_batch(tabs)
        if strategies[si] == "signscore":
            keys, key = np.unique(np.column_stack([tabs.sum(axis=2), tabs[:, :, 1].sum(axis=1)]),
                                  axis=0, return_inverse=True)
            p = _signscore_pvalues(stats[si], keys[:, :-1], keys[:, -1], models[si].bias,
                                   gammas, crits, key.reshape(-1))  # (G, live draws)
            arr[live, si] = (np.minimum(p, 1.0) <= alpha_level).T
            builds = len(keys)
        else:
            grids = _worst_case_grids(stats[si], list(map(ContingencyTable.from_array, tabs)),
                                      models[si], gammas, crits.tolist(), strategies[si])
            for it, results in zip(live.tolist(), grids):
                arr[it, si] = [res.pvalue <= alpha_level for res in results]
            builds = len(live)
        rates = arr[:, si, :].mean(axis=0)
        out[spec.name] = RejectionCurve(
            grid=tuple(gammas),
            rates=tuple(float(r) for r in rates),
            iterations=iterations,
            seed=seed,
            alpha_level=alpha_level,
            mc_sigma=tuple(float(v) for v in np.sqrt(rates * (1 - rates) / iterations)),
            strategy=strategies[si],
            builds=builds,
            skipped=iterations - len(live),
        )
    if return_matrix:
        return out, arr
    return out


def size_curve(
    margins: Margins,
    model: SensitivityModel,
    alpha_scores: Sequence[float],
    nominal_grid: Sequence[float],
) -> dict[str, list[float]]:
    """Exact P(p <= g) at each nominal level g under the adversarial binary-outcome null.

    The null law is the MVEHG law of Q at the sign-score worst case u+, where
    T = alpha'Q and each pool is a fixed table given Q.  Returns
    ``{"exact": rates, "normal": rates}`` from one build of the law: at each g,
    its mass where the tail p-value, or the normal one at the law's own mean
    and variance of T (``test_moments`` at u+), is at most g: both fall as T
    grows, so that mass is read off one cumulative sum over descending T.
    """
    if margins.J != 2:
        raise ValueError("the size study needs a binary outcome")
    model.validate_for(margins)
    stat = ordinal_statistic(alpha_scores, (0.0, 1.0))
    weights = [model.gamma * b for b in model.bias]
    support, probs = _mvehg_law(margins.rows, margins.cols[1], weights)
    tvals = support @ np.asarray(stat.alpha)
    mean = tvals @ probs
    pvals = {"exact": tail_mass(tvals, probs, tvals),  # P(T >= t) of every support point
             "normal": normal_tail(tvals, mean, probs @ (tvals - mean) ** 2)}
    order = np.argsort(-tvals, kind="stable")
    mass = np.append(0.0, np.cumsum(probs[order]))
    return {method: mass[np.searchsorted(p[order], nominal_grid, side="right")].tolist()
            for method, p in pvals.items()}
