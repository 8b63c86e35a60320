"""Exact moments of cell counts and ordinal tests; normal-approximation p-value.

Q_i is the number of u = 1 subjects receiving treatment i.  Its law is a
kernel-weighted tilt on a small support (``exactdist._mvehg_law`` at weights
gamma * bias, for a binary delta or a dose phi alike), so its moments are
exact finite sums: matrix products over the (S, I) support array and its
probabilities.  Given Q, the u = 1 and u = 0 subjects form two
independent uniformly permuted fixed-margin tables, whose means and
covariances are the classical hypergeometric ones.  The law of total
covariance over Q then gives the cell means and the full cell covariance in
one closed form (``cell_moments``).

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
from exactsens.sensmodel import ConfounderClass, SensitivityModel
from exactsens.stats import TestFamily, TestStatistic
from exactsens.tables import ContingencyTable, Margins

__all__ = [
    "QDistribution",
    "CellMoments",
    "dist_q",
    "cell_moments",
    "test_moments",
    "normal_approx_pvalue",
    "normal_tail",
]


@dataclass(frozen=True)
class QDistribution:
    """Exact law of (Q_1, ..., Q_I): its (S, I) int64 support in ``omega_q`` order, and probs."""

    support: np.ndarray
    probs: np.ndarray

    def mean(self) -> np.ndarray:
        return self.support.T @ self.probs

    def second_moments(self) -> np.ndarray:
        """Matrix of E[Q_i Q_i'] (diagonal E[Q_i^2])."""
        return (self.support.T * self.probs) @ self.support


@dataclass(frozen=True)
class CellMoments:
    mean: np.ndarray  # (I, J)
    cov: np.ndarray  # (I*J, I*J), row-major cell order


def dist_q(c: ConfounderClass, m: Margins, model: SensitivityModel) -> QDistribution:
    """Probabilities proportional to e^{gamma bias'q} kernel_q(q) over the support.

    kernel_q(q) is prod_i C(N_i., q_i) up to a constant: the MVEHG law at
    weights gamma * bias, for a binary delta and a dose phi alike.
    """
    model.validate_for(m)
    c.validate_for(m)
    support, probs = _mvehg_law(m.rows, c.total, [model.gamma * b for b in model.bias])
    return QDistribution(support=support, probs=probs)


def cell_moments(
    c: ConfounderClass, m: Margins, model: SensitivityModel
) -> CellMoments:
    """Exact mean matrix and (IJ x IJ) covariance of the cell counts.

    Law of total covariance over Q.  Given Q, the u = 1 pool (rows Q,
    columns ubar_j, n1 = ubar subjects) and the u = 0 pool (rows N_i. - Q,
    columns N_.j - ubar_j, n0 = N - ubar) are independent uniformly permuted
    fixed-margin tables, so with rho = columns / n per pool:

        mean = E[Q] rho1' + (N_i. - E[Q]) rho0'
        cov  = kron(Cov Q, drho drho') + sum over pools with n >= 2 of
               kron(n diag(E r) - E[r r'], n diag(c) - c c') / (n^2 (n - 1))

    with drho = rho1 - rho0.  A pool of 0 or 1 subjects is a fixed table
    given Q and adds nothing; an empty pool takes rho = 0.  Every Q moment
    is an exact sum over the Q support.
    """
    qd = dist_q(c, m, model)
    EQ = qd.mean()
    EQQ = qd.second_moments()
    CQ = EQQ - np.outer(EQ, EQ)
    n1 = c.total
    n0 = m.N - n1
    c1 = np.asarray(c.ubar, dtype=float)
    c0 = np.asarray(m.cols, dtype=float) - c1
    r0 = np.asarray(m.rows, dtype=float) - EQ  # E of the u = 0 pool's rows
    rho1 = c1 / n1 if n1 > 0 else np.zeros_like(c1)
    rho0 = c0 / n0 if n0 > 0 else np.zeros_like(c0)
    drho = rho1 - rho0
    mean = np.outer(EQ, rho1) + np.outer(r0, rho0)
    cov = np.kron(CQ, np.outer(drho, drho))
    # (n, E r, E[r r'], columns) per pool; E[r r'] of N_i. - Q is Cov Q + r0 r0'
    for n, Er, Err, cj in ((n1, EQ, EQQ, c1), (n0, r0, CQ + np.outer(r0, r0), c0)):
        if n >= 2:
            cov += np.kron(n * np.diag(Er) - Err, n * np.diag(cj) - np.outer(cj, cj)) / (
                n * n * (n - 1)
            )
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
    mean, var = test_moments(test, c, t_obs.margins(), model)
    return float(normal_tail(test(t_obs), mean, var))


def normal_tail(values: float | np.ndarray, mean: float, var: float) -> np.ndarray:
    """1 - Phi((values - mean) / sd) elementwise; a zero variance gives the point mass."""
    values = np.asarray(values, dtype=float)
    if var <= 0.0:
        return np.where(values <= mean, 1.0, 0.0)
    # erfc once per distinct value: a statistic takes few on a support
    distinct, where = np.unique(values, return_inverse=True)
    z = (distinct - mean) / math.sqrt(var)
    tail = 0.5 * np.array([erfc(v) for v in (z / math.sqrt(2.0)).tolist()])
    return tail[where].reshape(values.shape)
