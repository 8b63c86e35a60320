"""Generic-bias sensitivity model for treatment assignment.

Assignment follows a multinomial logit: subject s receives level i with
probability proportional to ``exp(xi_i(x_s) + gamma * bias_i * u_s)`` where
``u_s`` is an unmeasured confounder in [0, 1], ``gamma >= 0`` bounds the
induced odds-ratio distortion at ``Gamma = exp(gamma)``, and ``bias`` is
either a binary vector ``delta`` marking which treatment levels the
confounder pushes toward (generic bias) or a monotone real dose vector
``phi``.  The nuisance functions ``xi_i`` cancel once the treatment margins
are fixed, so conditional computations depend on the model only through
``gamma`` and ``bias``; ``assignment_probability`` accepts xi values purely
so the odds-ratio characterization of the model can be property-tested.

After conditioning, the exact assignment distribution depends on ``u`` only
through the per-outcome counts of subjects with ``u_s = 1``; that summary is
``ConfounderClass``.  ``RawConfounder`` carries a full real-valued vector and
exists for the brute-force oracle and for evaluating dose models at interior
points.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from exactsens.tables import Margins, _integers, read_numbers

__all__ = [
    "SensitivityModel",
    "check_gammas",
    "check_level",
    "ConfounderClass",
    "RawConfounder",
    "assignment_probability",
    "odds_ratio_constraint_holds",
    "conditional_weight",
    "collapsed_odds_bound_holds",
]


class SensitivityError(ValueError):
    """Raised when a model is used outside its validity domain."""


def check_gammas(gammas: Sequence[float]) -> None:
    """Raise ``ValueError`` unless the grid is non-empty and every gamma is finite and >= 0."""
    if len(gammas) == 0:
        raise ValueError("gamma grid must be non-empty")
    if not all(0.0 <= g < math.inf for g in gammas):
        raise ValueError("gamma must be finite and >= 0")


def check_level(alpha_level: float) -> None:
    """Raise ``ValueError`` unless the test level lies in (0, 1].

    A nan or non-positive level would reject nothing and pass for "no rejection".
    """
    if not 0.0 < alpha_level <= 1.0:
        raise ValueError(f"level must lie in (0, 1], not {alpha_level}")


@dataclass(frozen=True)
class SensitivityModel:
    """(gamma, bias) pair; bias is a binary ``delta`` or a monotone dose ``phi``."""

    gamma: float
    delta: tuple[int, ...] | None = None
    phi: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        check_gammas([self.gamma])
        if (self.delta is None) == (self.phi is None):
            raise ValueError("exactly one of delta and phi must be given")
        if self.delta is not None:
            delta = _integers(self.delta, "delta")
            object.__setattr__(self, "delta", delta)
            if any(v not in (0, 1) for v in delta):
                raise ValueError("delta entries must be 0 or 1")
            if len(set(delta)) < 2:
                raise ValueError("constant delta vectors are excluded (no identifiable bias)")
        else:
            phi = tuple(float(v) for v in self.phi)  # type: ignore[union-attr]
            object.__setattr__(self, "phi", phi)
            if any(not math.isfinite(v) for v in phi):
                raise ValueError("phi entries must be finite")
            if any(a > b for a, b in zip(phi, phi[1:])):
                raise ValueError("phi must be non-decreasing in treatment level")

    @property
    def is_binary(self) -> bool:
        return self.delta is not None

    @property
    def bias(self) -> tuple[float, ...]:
        if self.delta is not None:
            return tuple(float(v) for v in self.delta)
        return self.phi  # type: ignore[return-value]

    @property
    def I(self) -> int:
        return len(self.bias)

    @property
    def Gamma(self) -> float:
        return math.exp(self.gamma)

    def monotone_bias(self) -> bool:
        b = self.bias
        return all(x <= y for x, y in zip(b, b[1:]))

    def validate_for(self, m: Margins) -> None:
        """The one check of the bias vector against a table: one entry per treatment level."""
        if self.I != m.I:
            raise ValueError("bias length must match the number of treatment levels")

    def with_gamma(self, gamma: float) -> "SensitivityModel":
        return SensitivityModel(gamma=gamma, delta=self.delta, phi=self.phi)

    def to_json(self) -> str:
        if self.delta is not None:
            return json.dumps({"gamma": self.gamma, "delta": list(self.delta)})
        return json.dumps({"gamma": self.gamma, "phi": list(self.phi)})  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, text: str) -> "SensitivityModel":
        data = json.loads(text)
        return cls(
            gamma=read_numbers([data["gamma"]], "gamma")[0],
            delta=read_numbers(data["delta"], "delta", int) if "delta" in data else None,
            phi=read_numbers(data["phi"], "phi") if "phi" in data else None,
        )


@dataclass(frozen=True)
class ConfounderClass:
    """Per-outcome counts of subjects with u_s = 1 (a sufficient summary of u)."""

    ubar: tuple[int, ...]

    def __post_init__(self) -> None:
        ubar = _integers(self.ubar, "ubar")
        object.__setattr__(self, "ubar", ubar)
        if any(v < 0 for v in ubar):
            raise ValueError("ubar counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(self.ubar)

    @property
    def J(self) -> int:
        return len(self.ubar)

    def validate_for(self, m: Margins) -> None:
        if self.J != m.J:
            raise ValueError(f"ubar has {self.J} outcome levels, margins have {m.J}")
        for j, (u, c) in enumerate(zip(self.ubar, m.cols)):
            if u > c:
                raise ValueError(f"ubar[{j}] = {u} exceeds column margin {c}")

    def subjects(self, m: Margins) -> tuple[list[int], RawConfounder]:
        """Subject-level outcomes and a binary u with this class on margins m.

        Subjects are sorted by outcome level, u = 0 before u = 1 within a
        level; the inverse of ``RawConfounder.to_class``.
        """
        self.validate_for(m)
        outcomes: list[int] = []
        u: list[float] = []
        for j, (cnt, ones) in enumerate(zip(m.cols, self.ubar)):
            outcomes.extend([j] * cnt)
            u.extend([0.0] * (cnt - ones) + [1.0] * ones)
        return outcomes, RawConfounder(tuple(u))


@dataclass(frozen=True)
class RawConfounder:
    """Full confounder vector u in [0,1]^N; oracle-only representation."""

    u: tuple[float, ...]

    def __post_init__(self) -> None:
        u = tuple(float(v) for v in self.u)
        object.__setattr__(self, "u", u)
        if any(not (0.0 <= v <= 1.0) for v in u):
            raise ValueError("confounder values must lie in [0, 1]")

    @property
    def N(self) -> int:
        return len(self.u)

    def is_binary(self) -> bool:
        return all(v in (0.0, 1.0) for v in self.u)

    def to_class(self, outcomes: Sequence[int], J: int) -> ConfounderClass:
        """Per-outcome u=1 counts; only defined for binary u.

        ``outcomes`` holds one outcome code in 0..J-1 per subject, read as
        ``tables._integers`` reads counts; a fractional or out-of-range code,
        or a length other than N, raises ``ValueError``.
        """
        if not self.is_binary():
            raise ValueError("only binary confounders map to a ConfounderClass")
        codes = _integers(outcomes, "outcome codes")
        if len(codes) != self.N:
            raise ValueError(f"{len(codes)} outcome codes for {self.N} subjects")
        if any(not 0 <= r < J for r in codes):
            raise ValueError(f"outcome codes must lie in 0..{J - 1}, not {codes}")
        ubar = [0] * J
        for r, v in zip(codes, self.u):
            if v == 1.0:
                ubar[r] += 1
        return ConfounderClass(tuple(ubar))


def assignment_probability(
    model: SensitivityModel, xi: Sequence[float], u_s: float
) -> np.ndarray:
    """Probability vector over the I treatment levels for one subject."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (model.I,):
        raise ValueError(f"xi must have length {model.I}")
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi values must be finite")
    if not 0.0 <= u_s <= 1.0:
        raise ValueError("u_s must lie in [0, 1]")
    logits = xi + model.gamma * np.asarray(model.bias) * u_s
    logits -= logits.max()
    p = np.exp(logits)
    return p / p.sum()


def odds_ratio_constraint_holds(
    model: SensitivityModel,
    u_a: float,
    u_b: float,
    i: int,
    i2: int,
    tol: float = 1e-10,
    xi: Sequence[float] | None = None,
) -> bool:
    """Check the pairwise odds-ratio characterization of the model.

    For two subjects with confounders ``u_a`` and ``u_b`` (same observed
    covariates), the odds ratio of level ``i2`` versus ``i`` across the pair
    must lie in ``[1/Gamma, Gamma]`` when ``|delta_i2 - delta_i| = 1`` and
    equal 1 when ``delta_i2 = delta_i``.
    """
    if not model.is_binary:
        raise SensitivityError("odds-ratio constraints are stated for binary delta")
    I = model.I
    if not (0 <= i < I and 0 <= i2 < I):
        raise ValueError("treatment level out of range")
    if xi is None:
        xi = np.zeros(I)
    pa = assignment_probability(model, xi, u_a)
    pb = assignment_probability(model, xi, u_b)
    ratio = (pa[i2] * pb[i]) / (pa[i] * pb[i2])
    d = abs(model.delta[i2] - model.delta[i])  # type: ignore[index]
    if d == 0:
        return abs(ratio - 1.0) <= tol
    G = model.Gamma
    return (1.0 / G) - tol <= ratio <= G + tol


def conditional_weight(model: SensitivityModel, q: Sequence[int]) -> float:
    """Log tilt ``gamma * sum_i bias_i q_i`` of an assignment with u-counts q.

    q is read as ``tables._integers`` reads counts: 2.0 is 2, and 0.5 raises
    ``ValueError``.
    """
    q = _integers(q, "q")
    if len(q) != model.I:
        raise ValueError(f"q must have length {model.I}")
    return model.gamma * float(sum(b * v for b, v in zip(model.bias, q)))


def collapsed_odds_bound_holds(
    b1: int,
    b0: int,
    c1: int,
    c0: int,
    gamma: float,
    u_a: float,
    u_b: float,
    tol: float = 1e-10,
) -> bool:
    """Binarized-treatment odds ratio stays within exp(+-gamma |u_a - u_b|).

    ``b1``/``b0`` count delta=1 / delta=0 levels pooled into the binarized
    "treated" group, ``c1``/``c0`` likewise for the "control" group (with all
    xi equal).  Even a wrong pooling keeps a dichotomized sensitivity analysis
    at the same gamma valid.
    """
    if b1 < 0 or b0 < 0 or c1 < 0 or c0 < 0:
        raise ValueError("group compositions must be non-negative")
    if b1 + b0 < 1 or c1 + c0 < 1:
        raise ValueError("both binarized groups must contain a treatment level")
    num = (b1 * math.exp(gamma * u_a) + b0) * (c1 * math.exp(gamma * u_b) + c0)
    den = (b1 * math.exp(gamma * u_b) + b0) * (c1 * math.exp(gamma * u_a) + c0)
    ratio = num / den
    bound = math.exp(gamma * abs(u_a - u_b))
    return (1.0 / bound) * (1 - tol) <= ratio <= bound * (1 + tol)
