"""Stratified inference: combining and closed testing."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from exactsens import cli, stratified, worstcase
from exactsens.exactdist import RejectionAggregate
from exactsens.sensmodel import SensitivityModel
from exactsens.tables import ContingencyTable
from exactsens.stratified import (
    StratifiedStudy,
    analyze_study,
    analyze_study_grid,
    closed_testing,
    combined_pvalue,
    stratified_worst_case,
    stratified_worst_case_grid,
    truncated_product,
)

GIRLS = [[12, 3, 0], [18, 12, 3], [17, 25, 4]]
BOYS = [[10, 8, 1], [29, 11, 3], [20, 24, 6]]
PRIOR_A = (0.0, 0.25, 1.5)
PRIOR_B = (0.0, 1.0, 1.5)


def study_at(gamma):
    return StratifiedStudy(
        strata=(ContingencyTable.from_array(GIRLS), ContingencyTable.from_array(BOYS)),
        alphas=(PRIOR_A, PRIOR_A),
        betas=(PRIOR_B, PRIOR_B),
        model=SensitivityModel(gamma=gamma, delta=(0, 1, 1)),
    )


def test_truncated_product():
    assert truncated_product((0.05, 0.5), 0.2) == pytest.approx(0.05)
    assert truncated_product((0.5, 0.9), 0.2) == 1.0
    assert truncated_product((0.006, 0.013), 0.2) == pytest.approx(7.8e-5)
    with pytest.raises(ValueError):
        truncated_product((0.5, 1.2), 0.2)
    with pytest.raises(ValueError):
        truncated_product((0.5,), 1.5)


def test_truncated_product_monotone():
    base = truncated_product((0.05, 0.10), 0.2)
    assert truncated_product((0.04, 0.10), 0.2) < base


def monte_carlo_combined_pvalue(w, L, tau, rng, M):
    """P(W' <= w) estimated from M draws of L iid uniforms."""
    U = rng.random((M, L))
    logW = np.where(U <= tau, np.log(U), 0.0).sum(axis=1)
    return float(np.mean(logW <= math.log(w)))


def test_combined_pvalue_k1_analytic():
    # K = 1: P(W' <= w) = w for w <= tau
    for w in (0.05, 0.2, 1e-300):
        assert combined_pvalue(w, 1, 0.2) == pytest.approx(w, rel=1e-12)
    assert combined_pvalue(1.0, 2, 0.2) == 1.0
    assert combined_pvalue(0.0, 2, 0.2) == 0.0


def test_combined_pvalue_reads_k_as_an_integer():
    # an integral float is its integer; a fractional or text K is refused by name
    for w in (0.01, 0.3):
        assert combined_pvalue(w, 2.0, 0.2) == combined_pvalue(w, 2, 0.2)
        assert combined_pvalue(w, np.int64(3), 0.2) == combined_pvalue(w, 3, 0.2)
    for K in (2.5, "3", float("nan")):
        with pytest.raises(ValueError, match="K"):
            combined_pvalue(0.01, K, 0.2)


def test_combined_pvalue_refuses_nan():
    # nan fails every comparison, so it would fall through to a p-value
    with pytest.raises(ValueError, match="nan"):
        combined_pvalue(float("nan"), 3, 0.2)


def test_combined_pvalue_k2_closed_form():
    # for w <= tau^2: P = 2(1-tau) w + w (1 + log(tau^2 / w))
    tau = 0.2
    for w in (7.8e-5, 0.04, 1e-300):
        want = 2 * (1 - tau) * w + w * (1 + math.log(tau**2 / w))
        assert combined_pvalue(w, 2, tau) == pytest.approx(want, rel=1e-12)


def test_combined_pvalue_above_tau_is_any_p_below_tau():
    # for tau <= w < 1, W' <= w unless every uniform exceeds tau; at L = 1500
    # C(L, k) overflows a float, so only a log-domain sum gets this right
    for L in (1, 2, 6, 1500):
        for tau in (0.05, 0.2, 0.5):
            for w in (tau, 0.5 * (1 + tau), 0.999):
                want = -math.expm1(L * math.log1p(-tau))
                assert combined_pvalue(w, L, tau) == pytest.approx(want, rel=1e-10)


def test_combined_pvalue_matches_monte_carlo(rng):
    M = 200_000
    for L in (2, 3, 6):
        for tau in (0.05, 0.2, 0.5):
            for w in (1e-4, 1e-3, 1e-2, 0.05, 0.3):
                want = combined_pvalue(w, L, tau)
                got = monte_carlo_combined_pvalue(w, L, tau, rng, M)
                assert abs(got - want) <= 4 * math.sqrt(want * (1 - want) / M)


def test_stratified_worst_case_study_rows():
    ps = stratified_worst_case(study_at(0.0))
    assert round(ps[0], 3) == 0.006
    assert round(ps[1], 3) == 0.013
    ps3 = stratified_worst_case(study_at(math.log(3)))
    assert round(ps3[0], 3) == 0.054
    assert round(ps3[1], 3) == 0.106


def test_analyze_study_grid_builds_one_aggregate_per_stratum(monkeypatch):
    builds = []

    class CountingAggregate(RejectionAggregate):
        def __init__(self, *args, **kwargs):
            builds.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(worstcase, "RejectionAggregate", CountingAggregate)
    gammas = [0.0, math.log(2), math.log(3)]
    grid = analyze_study_grid(study_at(0.0), gammas, 0.2, 0.05)
    assert len(builds) == 2  # one per stratum, not one per (stratum, gamma)
    builds.clear()
    # the same results, bit for bit, as one analysis per gamma
    assert grid == [analyze_study(study_at(g), 0.2, 0.05) for g in gammas]
    assert len(builds) == 2 * len(gammas)


def test_stratified_k1_degenerates():
    study = StratifiedStudy(
        strata=(ContingencyTable.from_array(GIRLS),),
        alphas=(PRIOR_A,),
        betas=(PRIOR_B,),
        model=SensitivityModel(gamma=0.0, delta=(0, 1, 1)),
    )
    ps = stratified_worst_case(study)
    assert len(ps) == 1 and round(ps[0], 3) == 0.006


def test_closed_testing_patterns():
    def comb(ps):
        return combined_pvalue(truncated_product(ps, 0.2), len(ps), 0.2)

    # both singletons and the joint reject
    assert closed_testing([0.004, 0.046], comb, 0.05) == (True, True)
    # second singleton fails on its own
    assert closed_testing([0.028, 0.056], comb, 0.05) == (True, False)
    # nothing rejects when every p is 1
    assert closed_testing([1.0, 1.0], comb, 0.05) == (False, False)


def test_closed_testing_never_rejects_high_raw_p():
    def comb(ps):
        return 0.0  # maximally favorable joint evidence

    flags = closed_testing([0.2, 0.01], comb, 0.05)
    assert flags == (False, True)


def closed_testing_by_subsets(pvals, combined_p_fn, alpha_level):
    """Reference: judge all 2^K - 1 subsets, reject k iff each one holding k rejects."""
    K = len(pvals)
    rejects = {}
    for mask in range(1, 2**K):
        sub = [i for i in range(K) if mask >> i & 1]
        p = pvals[sub[0]] if len(sub) == 1 else combined_p_fn([pvals[i] for i in sub])
        rejects[mask] = p <= alpha_level
    return tuple(all(rej for mask, rej in rejects.items() if mask >> k & 1) for k in range(K))


def truncated_product_test(tau):
    def comb(ps):
        return combined_pvalue(truncated_product(ps, tau), len(ps), tau)
    return comb


def test_closed_testing_chain_matches_the_subset_enumeration():
    # rounding to a few digits makes ties, the case where the chain's choice
    # of "the largest other p-values" is not unique
    rng = np.random.default_rng(21)
    disagree = []
    for _ in range(60):
        K = int(rng.integers(1, 8))
        ps = np.round(rng.random(K) ** rng.choice([1, 3]), int(rng.integers(2, 4))).tolist()
        for tau in (0.05, 0.2, 0.5):
            comb = truncated_product_test(tau)
            for alpha in (0.05, 0.1):
                got = closed_testing(ps, comb, alpha)
                if got != closed_testing_by_subsets(ps, comb, alpha):
                    disagree.append((ps, tau, alpha, got))
    assert disagree == []


def test_closed_testing_calls_the_local_test_at_most_k_k_minus_1_times():
    K = 8
    comb = truncated_product_test(0.2)
    rng = np.random.default_rng(8)
    for ps in [rng.random(K).tolist(), (rng.random(K) * 0.05).tolist()]:
        seen = []

        def counting(sub):
            seen.append([ps.index(v) for v in sub])  # the p-values are distinct
            return comb(sub)

        assert closed_testing(ps, counting, 0.05) == closed_testing_by_subsets(ps, comb, 0.05)
        assert len(seen) <= K * (K - 1)
        assert all(idx == sorted(idx) for idx in seen)  # ascending stratum order
    # when every subset rejects, every chain runs to the full set
    seen = []
    assert closed_testing([1e-4] * K, lambda sub: seen.append(sub) or 0.0, 0.05) == (True,) * K
    assert len(seen) == K * (K - 1)


def test_study_grid_combines_each_chain_subset_once(monkeypatch):
    # strata-closed seed 1: the chains of six strata share subsets, and each
    # gamma combines every distinct one once besides the study's own W
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked out
    import workloads

    _, inputs = workloads.make_inputs(workloads.WORKLOADS["strata-closed"], 1)
    study, tau = StratifiedStudy.from_json(inputs.files["study.json"])
    gammas = [0.0, math.log(2.0)]
    comb = truncated_product_test(tau)
    subsets = 0
    for ps in stratified_worst_case_grid(study, gammas).tolist():
        seen = set()
        closed_testing(ps, lambda sub: seen.add(tuple(sub)) or comb(sub), 0.05)
        subsets += len(seen)
    calls = []
    monkeypatch.setattr(stratified, "combined_pvalue",
                        lambda *a: calls.append(a) or combined_pvalue(*a))
    results = analyze_study_grid(study, gammas, tau)
    assert len(calls) == subsets + len(gammas) == 29
    for res in results:
        assert res.closed_testing_rejections == closed_testing_by_subsets(
            list(res.per_stratum_p), comb, 0.05)
        assert res.combined_p == combined_pvalue(res.W, study.K, tau)


def test_stratified_cli_runs_twelve_strata(tmp_path):
    # 4,095 subsets per gamma, beyond the former K <= 10 limit of the subset table
    tables = [[[n - s, s], [s, n - s]] for n in (10, 12) for s in range(0, 12, 2)]
    doc = {"strata": [{"counts": t, "alpha": [0, 1], "beta": [0, 1]} for t in tables],
           "gamma": 0.0, "delta": [0, 1], "tau": 0.2}
    inp, out = tmp_path / "study.json", tmp_path / "out.csv"
    inp.write_text(json.dumps(doc))
    assert cli.main(["stratified", str(inp), "--Gamma-grid", "1,2", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    study, _ = StratifiedStudy.from_json(inp.read_text())
    grid = stratified_worst_case_grid(study, [0.0, math.log(2)])
    for row, ps in zip(rows, grid):
        want = closed_testing_by_subsets(ps.tolist(), truncated_product_test(0.2), 0.05)
        assert tuple(f == "1" for f in row[-12:]) == want
    assert [f for row in rows for f in row[-12:]].count("1") > 0


def test_from_json():
    doc = {
        "strata": [
            {"counts": GIRLS, "alpha": list(PRIOR_A), "beta": list(PRIOR_B)},
            {"counts": BOYS, "alpha": list(PRIOR_A), "beta": list(PRIOR_B)},
        ],
        "gamma": 0.5,
        "delta": [0, 1, 1],
        "tau": 0.3,
    }
    study, tau = StratifiedStudy.from_json(json.dumps(doc))
    assert study.K == 2 and tau == 0.3 and study.model.gamma == 0.5
    with pytest.raises(ValueError):
        StratifiedStudy.from_json(json.dumps({"strata": [{}]}))


def test_from_json_names_the_study_when_the_text_is_not_json():
    # the decoder's bare "Expecting value: ..." did not say which input was bad
    with pytest.raises(ValueError, match="^malformed stratified input: Expecting value"):
        StratifiedStudy.from_json("strata: none")

def test_tau_near_one_is_plain_product():
    ps = (0.3, 0.08, 0.61)
    assert truncated_product(ps, 0.99) == pytest.approx(0.3 * 0.08 * 0.61, rel=1e-12)


@pytest.mark.parametrize("level", [float("nan"), math.inf, 0.0, -1.0, 1.5])
def test_study_grid_refuses_a_level_outside_the_unit_interval(level):
    # a nan level gave closed-testing flags (False, False) where 0.05 rejects both
    with pytest.raises(ValueError, match="level must lie in"):
        analyze_study_grid(study_at(0.0), [0.0], 0.2, level)
    with pytest.raises(ValueError, match="level must lie in"):
        analyze_study(study_at(0.0), 0.2, level)


def test_study_grid_accepts_level_one():
    (res,) = analyze_study_grid(study_at(0.0), [0.0], 0.2, 1.0)
    assert res.closed_testing_rejections == (True, True)
