"""Kernel vs permutation equivalence battery.

Every instance builds the same question three ways: the kernel expression
(``kernel_alpha``), the brute-force permutation sum over every treatment
assignment, and the production path (``exact_alpha``).  The first two are
algebraically identical and must agree to the tolerance (1e-12 relative by
default), the production path to 100 times it; any violation is reported as
a counterexample with the full instance for replay.

Instances are seeded draws over N <= max_n, I, J <= 3: random margins, a
random ordinal statistic, a critical value picked from the statistic's
support, confounder classes spanning corners and random grid points, every
valid delta pattern, and gamma in {0, 0.5, 1, 2}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from exactsens.exactdist import ORACLE_CAP, brute_force_alpha, exact_alpha, kernel_alpha
from exactsens.sensmodel import ConfounderClass, SensitivityModel
from exactsens.stats import ordinal_statistic
from exactsens.tables import ContingencyTable, Margins, enumerate_fixed_margin_array

__all__ = ["OracleReport", "run_battery", "valid_deltas", "random_instance"]

_GAMMAS = (0.0, 0.5, 1.0, 2.0)  # every instance is checked at each of these


@dataclass
class OracleReport:
    lines: list[str]
    checked: int
    max_rel: float
    counterexample: dict | None


def valid_deltas(I: int) -> list[tuple[int, ...]]:
    """All binary bias vectors except the two constant ones."""
    return [d for d in itertools.product((0, 1), repeat=I) if 0 < sum(d) < I]


def _random_margins(rng: np.random.Generator, N: int, I: int, J: int) -> Margins:
    # rows: positive composition of N; cols: non-negative with at least one
    # level holding 2+ so the reference set has more than one table
    while True:
        cuts = np.sort(rng.choice(np.arange(1, N), size=I - 1, replace=False))
        rows = np.diff(np.concatenate([[0], cuts, [N]]))
        if (rows >= 1).all():
            break
    cols = rng.multinomial(N, np.ones(J) / J)
    return Margins(tuple(int(v) for v in rows), tuple(int(v) for v in cols))


def random_instance(rng: np.random.Generator, max_n: int) -> dict:
    N = int(rng.integers(4, max_n + 1))
    I = int(rng.integers(2, 4))
    J = int(rng.integers(2, 4))
    if I >= N:
        I = 2
    m = _random_margins(rng, N, I, J)
    alpha = tuple(np.sort(rng.uniform(0, 3, size=I)).tolist())
    beta = tuple(np.sort(rng.uniform(0, 3, size=J)).tolist())
    stat = ordinal_statistic(alpha, beta)
    tables = enumerate_fixed_margin_array(m)
    tvals = np.unique(stat.evaluate_batch(tables))
    critical = float(rng.choice(tvals))
    ubars = [tuple(0 for _ in m.cols), tuple(m.cols)]
    for _ in range(2):
        ubars.append(tuple(int(rng.integers(0, c + 1)) for c in m.cols))
    return {
        "margins": m,
        "alpha": alpha,
        "beta": beta,
        "critical": critical,
        "ubars": ubars,
        "table": tables[rng.integers(0, len(tables))],
    }


def run_battery(
    seed: int = 20240901,
    max_n: int = 12,
    cases: int = 60,
    tolerance: float = 1e-12,
) -> OracleReport:
    if cases < 1:
        raise ValueError("the battery needs at least one case")
    if not 4 <= max_n <= ORACLE_CAP:
        raise ValueError(f"the battery's largest N must lie in 4..{ORACLE_CAP}")
    if not tolerance >= 0:
        raise ValueError("the tolerance must be non-negative")
    rng = np.random.default_rng(seed)
    lines: list[str] = []
    checked = 0
    max_rel = 0.0
    for case_idx in range(cases):
        inst = random_instance(rng, max_n)
        m: Margins = inst["margins"]
        stat = ordinal_statistic(inst["alpha"], inst["beta"])
        t_obs = ContingencyTable.from_array(inst["table"])
        for ubar in inst["ubars"]:
            cclass = ConfounderClass(tuple(ubar))
            outcomes, raw = cclass.subjects(m)
            for delta in valid_deltas(m.I):
                for gamma in _GAMMAS:
                    model = SensitivityModel(gamma=gamma, delta=delta)
                    a_kernel = kernel_alpha(stat, t_obs, cclass, model, inst["critical"])
                    a_brute = brute_force_alpha(
                        stat, t_obs, raw, outcomes, model, inst["critical"]
                    )
                    rel = abs(a_kernel - a_brute) / max(a_kernel, a_brute, 1e-300)
                    max_rel = max(max_rel, rel)
                    checked += 1
                    bad = rel > tolerance
                    a_exact = None
                    if not bad:
                        a_exact = exact_alpha(stat, t_obs, cclass, model, inst["critical"])
                        rel_exact = abs(a_exact - a_kernel) / max(a_kernel, a_exact, 1e-300)
                        bad = rel_exact > 100 * tolerance
                        max_rel = max(max_rel, rel_exact)
                    if bad:
                        return OracleReport(
                            lines=lines,
                            checked=checked,
                            max_rel=max_rel,
                            counterexample={
                                "case": case_idx,
                                "rows": list(m.rows),
                                "cols": list(m.cols),
                                "alpha": list(inst["alpha"]),
                                "beta": list(inst["beta"]),
                                "critical": inst["critical"],
                                "ubar": list(ubar),
                                "delta": list(delta),
                                "gamma": gamma,
                                "kernel": a_kernel,
                                "brute": a_brute,
                                "exact": a_exact,
                            },
                        )
        if (case_idx + 1) % 20 == 0:
            lines.append(f"checked {case_idx + 1}/{cases} instances "
                         f"({checked} comparisons, max rel {max_rel:.2e})")
    return OracleReport(lines=lines, checked=checked, max_rel=max_rel, counterexample=None)
