"""Sensitivity model: assignment probabilities, odds constraints, class structure."""

import math

import numpy as np
import pytest

from exactsens.sensmodel import (
    ConfounderClass,
    RawConfounder,
    SensitivityModel,
    assignment_probability,
    collapsed_odds_bound_holds,
    conditional_weight,
    odds_ratio_constraint_holds,
)
from exactsens.tables import ContingencyTable, Margins


def test_no_tilt_is_uniform():
    model = SensitivityModel(gamma=0.0, delta=(0, 1, 1))
    p = assignment_probability(model, (0.0, 0.0, 0.0), 0.7)
    np.testing.assert_allclose(p, [1 / 3] * 3, rtol=1e-14)
    assert abs(p.sum() - 1.0) < 1e-14


def test_logit_arithmetic():
    model = SensitivityModel(gamma=math.log(2), delta=(0, 1))
    p = assignment_probability(model, (0.0, 0.0), 1.0)
    np.testing.assert_allclose(p, [1 / 3, 2 / 3], rtol=1e-14)


def test_direct_evaluation_three_levels():
    model = SensitivityModel(gamma=1.0, delta=(0, 1, 1))
    p = assignment_probability(model, (0.0, 0.0, 0.0), 1.0)
    e = math.e
    np.testing.assert_allclose(p, [1 / (1 + 2 * e), e / (1 + 2 * e), e / (1 + 2 * e)],
                               rtol=1e-14)


def test_assignment_probability_rejects_bad_input():
    model = SensitivityModel(gamma=1.0, delta=(0, 1))
    with pytest.raises(ValueError):
        assignment_probability(model, (float("inf"), 0.0), 0.5)
    with pytest.raises(ValueError):
        assignment_probability(model, (0.0, 0.0), 1.5)


def test_odds_ratio_constraints(rng):
    for _ in range(200):
        gamma = rng.uniform(0, 3)
        model = SensitivityModel(gamma=gamma, delta=(0, 1, 1))
        xi = rng.normal(size=3)
        u_a, u_b = rng.uniform(size=2)
        for i in range(3):
            for i2 in range(3):
                if i != i2:
                    assert odds_ratio_constraint_holds(model, u_a, u_b, i, i2, xi=xi)


def test_odds_ratio_boundary():
    model = SensitivityModel(gamma=1.0, delta=(0, 1))
    pa = assignment_probability(model, (0.0, 0.0), 1.0)
    pb = assignment_probability(model, (0.0, 0.0), 0.0)
    ratio = (pa[1] * pb[0]) / (pa[0] * pb[1])
    assert abs(ratio - math.e) < 1e-12  # boundary attained at |u_a - u_b| = 1


def test_same_delta_levels_have_unit_odds():
    model = SensitivityModel(gamma=2.0, delta=(0, 1, 1))
    assert odds_ratio_constraint_holds(model, 0.9, 0.1, 1, 2)
    model0 = SensitivityModel(gamma=0.0, delta=(0, 1, 1))
    for i in range(3):
        for i2 in range(3):
            if i != i2:
                assert odds_ratio_constraint_holds(model0, 0.8, 0.3, i, i2)


def test_monotone_in_us():
    model = SensitivityModel(gamma=1.5, delta=(0, 1))
    grid = np.linspace(0, 1, 21)
    probs = [assignment_probability(model, (0.2, -0.3), u)[1] for u in grid]
    assert all(a <= b + 1e-15 for a, b in zip(probs, probs[1:]))


def test_conditional_weight():
    assert conditional_weight(SensitivityModel(gamma=0.0, delta=(0, 1)), (3, 4)) == 0.0
    assert conditional_weight(
        SensitivityModel(gamma=1.0, delta=(0, 1, 1)), (0, 2, 3)
    ) == pytest.approx(5.0)
    assert conditional_weight(
        SensitivityModel(gamma=1.0, phi=(1.0, 2.0, 3.0)), (1, 1, 1)
    ) == pytest.approx(6.0)


def test_collapsed_odds_bound():
    assert collapsed_odds_bound_holds(2, 1, 1, 3, 1.7, 0.4, 0.4)
    # correct pooling attains the boundary exactly
    g, ua, ub = 1.3, 0.9, 0.2
    num = 2 * math.exp(g * ua) * 3
    den = 2 * math.exp(g * ub) * 3
    assert abs(num / den - math.exp(g * (ua - ub))) < 1e-12
    assert collapsed_odds_bound_holds(2, 0, 0, 3, g, ua, ub)
    with pytest.raises(ValueError):
        collapsed_odds_bound_holds(0, 0, 1, 1, 1.0, 0.2, 0.3)


def test_collapsed_odds_bound_randomized(rng):
    for _ in range(10_000):
        b1, b0, c1, c0 = rng.integers(0, 11, size=4)
        if b1 + b0 == 0 or c1 + c0 == 0:
            continue
        gamma = rng.uniform(0, 5)
        u_a, u_b = rng.uniform(size=2)
        assert collapsed_odds_bound_holds(int(b1), int(b0), int(c1), int(c0),
                                          gamma, u_a, u_b)


def test_model_validation():
    with pytest.raises(ValueError):
        SensitivityModel(gamma=-0.5, delta=(0, 1))
    with pytest.raises(ValueError):
        SensitivityModel(gamma=1.0, delta=(1, 1))
    with pytest.raises(ValueError):
        SensitivityModel(gamma=1.0, delta=(0, 0))
    with pytest.raises(ValueError):
        SensitivityModel(gamma=1.0, phi=(2.0, 1.0))
    with pytest.raises(ValueError):
        SensitivityModel(gamma=1.0)
    with pytest.raises(ValueError):
        SensitivityModel(gamma=1.0, delta=(0, 1), phi=(0.0, 1.0))


def test_model_json_roundtrip():
    m1 = SensitivityModel(gamma=0.7, delta=(0, 1, 1))
    assert SensitivityModel.from_json(m1.to_json()) == m1
    m2 = SensitivityModel(gamma=0.7, phi=(1.0, 2.0, 3.0))
    assert SensitivityModel.from_json(m2.to_json()) == m2


def test_confounder_class_validation():
    m = Margins((2, 2), (1, 3))
    ConfounderClass((1, 2)).validate_for(m)
    with pytest.raises(ValueError):
        ConfounderClass((2, 0)).validate_for(m)
    with pytest.raises(ValueError):
        ConfounderClass((-1, 0))


@pytest.mark.parametrize("make, field", [
    (lambda: SensitivityModel(gamma=0.0, delta=(0, 1.7, 1)), "delta"),
    (lambda: ContingencyTable.from_array([[3.9, 1], [2, 4]]), "counts row 1"),
    (lambda: Margins((3.9, 2), (2, 3.9)), "rows"),
    (lambda: ConfounderClass((1.5, 2)), "ubar"),
    (lambda: ConfounderClass((math.nan, 2)), "ubar"),
    (lambda: Margins((2, 2), (math.inf, 2)), "cols"),
], ids=["delta-1.7", "cell-3.9", "margin-3.9", "ubar-1.5", "ubar-nan", "margin-inf"])
def test_value_types_refuse_what_int_would_truncate(make, field):
    # int(v) truncated: delta (0, 1.7, 1) was (0, 1, 1) and a 3.9 count held a 3
    with pytest.raises(ValueError, match=f"^{field} must hold integers"):
        make()


def test_value_types_take_integral_numbers_of_any_type():
    assert SensitivityModel(gamma=0.0, delta=np.array([0, 1])).delta == (0, 1)
    assert ContingencyTable.from_array(np.ones((2, 2))).counts == ((1, 1), (1, 1))
    assert Margins(np.ones(2), (2.0, 0)).cols == (2, 0)
    assert ConfounderClass(np.array([1, 2])).ubar == (1, 2)


def test_raw_confounder():
    raw = RawConfounder((0.0, 1.0, 1.0, 0.5))
    assert not raw.is_binary()
    with pytest.raises(ValueError):
        raw.to_class((0, 0, 1, 1), 2)
    binary = RawConfounder((0.0, 1.0, 1.0, 0.0))
    assert binary.to_class((0, 0, 1, 1), 2) == ConfounderClass((1, 1))
    with pytest.raises(ValueError):
        RawConfounder((0.0, 1.2))


@pytest.mark.parametrize("codes, message", [
    ((0, 1.7, 1, 0), "integers"),  # counted as level 1 before
    ((0, -1, 1, 0), "lie in 0..1"),  # counted as level J - 1 before
    ((0, 5, 1, 0), "lie in 0..1"),  # a bare IndexError before
    ((0, 1), "2 outcome codes for 4 subjects"),  # the last two subjects dropped before
])
def test_to_class_refuses_bad_outcome_codes(codes, message):
    raw = RawConfounder((1.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError, match=message):
        raw.to_class(codes, 2)
    assert raw.to_class((0, 1.0, np.int64(1), 0), 2) == ConfounderClass((2, 1))


def test_conditional_weight_reads_q_as_integers():
    model = SensitivityModel(gamma=1.0, delta=(0, 1))
    with pytest.raises(ValueError, match="q must hold integers"):
        conditional_weight(model, (0.5, 1.9))  # 1.0, as if q were (0, 1), before
    assert conditional_weight(model, (0.0, 2.0)) == conditional_weight(model, (0, 2)) == 2.0


@pytest.mark.parametrize("m, ubar", [
    (Margins((2, 2), (1, 3)), (1, 2)),
    (Margins((3, 2, 2), (3, 0, 4)), (1, 0, 4)),  # an empty outcome level
    (Margins((2, 3), (1, 2, 2, 0)), (0, 2, 0, 0)),  # an empty top level
])
def test_subjects_round_trip(m, ubar):
    c = ConfounderClass(ubar)
    outcomes, raw = c.subjects(m)
    assert len(outcomes) == raw.N == m.N
    assert tuple(outcomes.count(j) for j in range(m.J)) == m.cols
    assert raw.to_class(outcomes, m.J) == c


def test_subjects_validates_the_class():
    with pytest.raises(ValueError):
        ConfounderClass((2, 0)).subjects(Margins((2, 2), (1, 3)))
