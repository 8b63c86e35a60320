"""Exact moments of cell counts and ordinal tests; normal-approximation p-value.

Conditioning on Q_i (the number of u = 1 subjects receiving treatment i)
makes each cell count a two-stratum sample-sum: Q_i outcome indicators drawn
from the u = 1 pool plus N_i. - Q_i from the u = 0 pool.  The law of Q is a
kernel-weighted tilt on a small support (``exactdist._mvehg_law`` at weights
gamma * delta), so its moments are exact finite sums, and the cell means,
variances, and covariances follow in closed form.
The covariance formulas branch on ubar: the within-pool pair terms need at
least two subjects in a pool, so the cases ubar in {0, N}, ubar = 1,
ubar = N - 1, and the interior all differ and are dispatched explicitly.

Pool summaries (with the stated zero conventions for empty/degenerate pools):

    rho_{j,1} = ubar_j / ubar            rho_{j,0} = (N_.j - ubar_j) / (N - ubar)
    w_{j,1}   = pool-1 indicator variance (denominator ubar - 1)
    w_{j,0}   = pool-0 indicator variance (denominator N - ubar - 1)

An ordinal statistic is a linear functional of the vectorized table, so its
mean and variance are A'mu and A'Sigma A with the row-major index map
l <-> (i, j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import erfc

import numpy as np

from exactsens.exactdist import _mvehg_law
from exactsens.sensmodel import ConfounderClass, SensitivityError, SensitivityModel
from exactsens.stats import TestFamily, TestStatistic
from exactsens.tables import ContingencyTable, Margins

__all__ = [
    "QDistribution",
    "CellMoments",
    "dist_q",
    "cell_moments",
    "test_moments",
    "normal_approx_pvalue",
]


@dataclass(frozen=True)
class QDistribution:
    """Exact law of (Q_1, ..., Q_I) on its support."""

    support: tuple[tuple[int, ...], ...]
    probs: np.ndarray

    def mean(self) -> np.ndarray:
        return np.asarray(self.support, dtype=float).T @ self.probs

    def second_moments(self) -> np.ndarray:
        """Matrix of E[Q_i Q_i'] (diagonal E[Q_i^2])."""
        arr = np.asarray(self.support, dtype=float)
        return (arr[:, :, None] * arr[:, None, :] * self.probs[:, None, None]).sum(axis=0)

    def cov(self) -> np.ndarray:
        mu = self.mean()
        return self.second_moments() - np.outer(mu, mu)


@dataclass(frozen=True)
class CellMoments:
    mean: np.ndarray  # (I, J)
    cov: np.ndarray  # (I*J, I*J), row-major cell order


def dist_q(c: ConfounderClass, m: Margins, model: SensitivityModel) -> QDistribution:
    """Probabilities proportional to e^{gamma delta'q} kernel_q(q) over the support.

    kernel_q(q) is prod_i C(N_i., q_i) up to a constant: the MVEHG law.
    """
    if not model.is_binary:
        raise SensitivityError("the Q distribution is derived for binary delta models")
    if len(model.delta) != m.I:  # type: ignore[arg-type]
        raise ValueError("delta length must match the number of treatment levels")
    c.validate_for(m)
    weights = [model.gamma * dv for dv in model.delta]  # type: ignore[union-attr]
    support, probs = _mvehg_law(m.rows, c.total, weights)
    return QDistribution(support=tuple(map(tuple, support.tolist())), probs=probs)


def _pool_summaries(c: ConfounderClass, m: Margins) -> tuple[np.ndarray, ...]:
    """(rho1, rho0, w1, w0) per outcome level with the degenerate-pool conventions."""
    N = m.N
    ubar = c.total
    cols = np.asarray(m.cols, dtype=float)
    uj = np.asarray(c.ubar, dtype=float)
    if ubar > 0:
        rho1 = uj / ubar
    else:
        rho1 = np.zeros_like(uj)
    if ubar < N:
        rho0 = (cols - uj) / (N - ubar)
    else:
        rho0 = np.zeros_like(uj)
    if ubar > 1:
        w1 = (uj * (1 - rho1) ** 2 + (ubar - uj) * rho1**2) / (ubar - 1)
    else:
        w1 = np.zeros_like(uj)
    if ubar < N - 1:
        w0 = ((cols - uj) * (1 - rho0) ** 2 + (N - ubar - cols + uj) * rho0**2) / (
            N - ubar - 1
        )
    else:
        w0 = np.zeros_like(uj)
    return rho1, rho0, w1, w0


def cell_moments(
    c: ConfounderClass, m: Margins, model: SensitivityModel
) -> CellMoments:
    """Exact mean matrix and (IJ x IJ) covariance of the cell counts.

    All Q moments come from exact summation over the Q support; nothing is
    approximated.  Covariance branches are keyed strictly on ubar.
    """
    c.validate_for(m)
    N = m.N
    I, J = m.I, m.J
    ubar = c.total
    rows = np.asarray(m.rows, dtype=float)
    cols = np.asarray(m.cols, dtype=float)
    uj = np.asarray(c.ubar, dtype=float)
    rho1, rho0, w1, w0 = _pool_summaries(c, m)

    qd = dist_q(c, m, model)
    EQ = qd.mean()
    EQQ = qd.second_moments()
    CQ = qd.cov()
    VarQ = np.diag(CQ)
    EQ2 = np.diag(EQQ)

    mean = rho1[None, :] * EQ[:, None] + rho0[None, :] * (rows - EQ)[:, None]

    # per-cell variance (law of total variance; w terms vanish per conventions)
    var = np.zeros((I, J))
    for i in range(I):
        for j in range(J):
            t1 = (w1[j] - w0[j]) * EQ[i]
            frac = (w1[j] / ubar if ubar > 0 else 0.0) + (
                w0[j] / (N - ubar) if ubar < N else 0.0
            )
            t2 = frac * (EQ[i] ** 2 + VarQ[i])
            t3 = (
                rows[i] * (N - ubar - rows[i] + 2 * EQ[i]) * w0[j] / (N - ubar)
                if ubar < N
                else 0.0
            )
            t4 = VarQ[i] * (rho1[j] - rho0[j]) ** 2
            var[i, j] = t1 - t2 + t3 + t4

    cov = np.zeros((I * J, I * J))

    def idx(i: int, j: int) -> int:
        return i * J + j

    hyper = ubar in (0, N)

    for i in range(I):
        for j in range(J):
            cov[idx(i, j), idx(i, j)] = var[i, j]

    # same treatment, different outcomes
    for i in range(I):
        for j in range(J):
            for jp in range(j + 1, J):
                if hyper:
                    v = -cols[j] * cols[jp] * rows[i] * (N - rows[i]) / (
                        N**2 * (N - 1)
                    )
                else:
                    cross = (
                        rho1[j] * rho1[jp]
                        + rho0[j] * rho0[jp]
                        - rho1[j] * rho0[jp]
                        - rho1[jp] * rho0[j]
                    ) * VarQ[i]
                    v = cross
                    if ubar > 1:
                        v += rho1[j] * rho1[jp] / (ubar - 1) * (EQ2[i] - ubar * EQ[i])
                    if ubar < N - 1:
                        v += (
                            rho0[j]
                            * rho0[jp]
                            / (N - ubar - 1)
                            * (
                                rows[i] * (rows[i] - N + ubar)
                                + EQ2[i]
                                - (2 * rows[i] - N + ubar) * EQ[i]
                            )
                        )
                cov[idx(i, j), idx(i, jp)] = cov[idx(i, jp), idx(i, j)] = v

    # same outcome, different treatments
    for j in range(J):
        for i in range(I):
            for ip in range(i + 1, I):
                if hyper:
                    v = -cols[j] * (N - cols[j]) * rows[i] * rows[ip] / (
                        N**2 * (N - 1)
                    )
                else:
                    v = (rho1[j] ** 2 + rho0[j] ** 2 - 2 * rho1[j] * rho0[j]) * CQ[i, ip]
                    if ubar > 1:
                        v += (
                            -uj[j]
                            * (ubar - uj[j])
                            / (ubar**2 * (ubar - 1))
                            * EQQ[i, ip]
                        )
                    if ubar < N - 1:
                        f = (
                            (cols[j] - uj[j])
                            * (cols[j] - uj[j] - N + ubar)
                            / ((N - ubar) ** 2 * (N - ubar - 1))
                        )
                        v += f * (
                            EQQ[i, ip]
                            + rows[i] * rows[ip]
                            - rows[i] * EQ[ip]
                            - rows[ip] * EQ[i]
                        )
                cov[idx(i, j), idx(ip, j)] = cov[idx(ip, j), idx(i, j)] = v

    # different treatment and outcome
    for i in range(I):
        for ip in range(I):
            if ip == i:
                continue
            for j in range(J):
                for jp in range(J):
                    if jp == j:
                        continue
                    if hyper:
                        v = cols[j] * cols[jp] * rows[i] * rows[ip] / (N**2 * (N - 1))
                    else:
                        v = (
                            rho1[j] * rho1[jp]
                            + rho0[j] * rho0[jp]
                            - rho1[j] * rho0[jp]
                            - rho1[jp] * rho0[j]
                        ) * CQ[i, ip]
                        if ubar > 1:
                            v += rho1[j] * rho1[jp] / (ubar - 1) * EQQ[i, ip]
                        if ubar < N - 1:
                            v += (
                                rho0[j]
                                * rho0[jp]
                                / (N - ubar - 1)
                                * (
                                    EQQ[i, ip]
                                    + rows[i] * rows[ip]
                                    - rows[i] * EQ[ip]
                                    - rows[ip] * EQ[i]
                                )
                            )
                    cov[idx(i, j), idx(ip, jp)] = v

    return CellMoments(mean=mean, cov=cov)


def test_moments(
    test: TestStatistic,
    c: ConfounderClass,
    m: Margins,
    model: SensitivityModel,
) -> tuple[float, float]:
    """(mean, variance) of an ordinal statistic via A'mu and A'Sigma A."""
    if test.family not in (TestFamily.ORDINAL, TestFamily.SIGN_SCORE):
        raise ValueError("moments are derived for ordinal statistics")
    if test.alpha is None or test.beta is None:
        raise ValueError("ordinal statistic must carry scores")
    if len(test.alpha) != m.I or len(test.beta) != m.J:
        raise ValueError("score lengths must match the margins")
    cm = cell_moments(c, m, model)
    A = np.outer(np.asarray(test.alpha), np.asarray(test.beta)).ravel()
    mean = float(A @ cm.mean.ravel())
    var = float(A @ cm.cov @ A)
    if var < -1e-9 * max(1.0, abs(mean)):
        raise ArithmeticError(
            f"negative test variance {var}; covariance branch inconsistency"
        )
    return mean, max(var, 0.0)


def normal_approx_pvalue(
    test: TestStatistic,
    t_obs: ContingencyTable,
    c: ConfounderClass,
    model: SensitivityModel,
) -> float:
    """1 - Phi((T_obs - mean) / sd); degenerate sd gives the point-mass answer."""
    m = t_obs.margins()
    mean, var = test_moments(test, c, m, model)
    t = test(t_obs)
    if var <= 0.0:
        return 1.0 if t <= mean else 0.0
    z = (t - mean) / math.sqrt(var)
    return 0.5 * erfc(z / math.sqrt(2.0))
