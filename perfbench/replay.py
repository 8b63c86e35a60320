"""Traced replay: one workload's CLI pipeline re-driven through the public layer functions.

    python3 replay.py <expected exactsens dir> <spec.json> <out.csv> <spans.json>

The layers are called in the CLI's order, each inside a span:

* ``tables``     ``enumerate_fixed_margin_array``
* ``stats``      ``TestStatistic.evaluate_batch`` (and the observed statistic)
* ``aggregate``  ``RejectionAggregate(..., tables, tvals)``
* ``scan``       ``candidates_ordinal`` / ``candidates_pi`` with ``alpha_grid``,
                 keeping the lexicographically smallest maximizer
* ``signscore``  ``worst_case_grid`` on the sign-score path
* ``combine``    ``truncated_product`` and ``combined_pvalue``
* ``closed``     ``closed_testing`` (its subset combinations are ``combine``)
* ``simulate.sample`` / ``simulate.transform``
                 ``sample_table_fixed_treatment`` / ``PowerTestSpec.transform``
* ``cli``        reading the input and writing the CSV

Spans (name, start, end, parent) stay in memory and are written to
spans.json at the end, with the work counts.  The CSV is formatted as the CLI
formats it, so the caller can compare the two byte for byte.  Prints one JSON
line: traced wall seconds, self seconds per span name, and the work counts.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from exactsens.exactdist import RejectionAggregate
from exactsens.sensmodel import SensitivityModel
from exactsens.simulate import LogLinearDGP, sample_table_fixed_treatment, standard_test_suite
from exactsens.stats import TestFamily, ordinal_statistic
from exactsens.stratified import StratifiedStudy, closed_testing, combined_pvalue, truncated_product
from exactsens.tables import ContingencyTable, enumerate_fixed_margin_array
# _TIE_REL is the scan's tie slack: the replay must keep the same maximizer
from exactsens.worstcase import _TIE_REL, candidates_ordinal, candidates_pi, worst_case_grid


def fmt(x: float) -> str:
    return format(float(x), ".12g")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.open: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name: str) -> "Span":
        return Span(self, name)

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, covered):
            out[name] += end - start - c
        return dict(out)


class Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self) -> None:
        tr = self.tracer
        self.idx = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, tr.open[-1] if tr.open else None])
        tr.open.append(self.idx)

    def __exit__(self, *exc) -> bool:
        self.tracer.open.pop()
        self.tracer.spans[self.idx][2] = time.perf_counter()
        return False


def support_size(rows, n: int) -> int:
    """Number of count vectors with sum n and 0 <= t_i <= rows_i."""
    ways = [1] + [0] * n
    for r in rows:
        prefix = [0]
        for w in ways:
            prefix.append(prefix[-1] + w)
        ways = [prefix[s + 1] - prefix[max(0, s - r)] for s in range(n + 1)]
    return ways[n]


def pick_strategy(stat, model, m) -> str:
    """worst_case_grid's automatic choice for a binary delta model."""
    monotone = model.monotone_bias()
    if stat.family is TestFamily.SIGN_SCORE and m.J == 2 and monotone:
        return "signscore"
    if stat.family in (TestFamily.ORDINAL, TestFamily.SIGN_SCORE) and monotone:
        return "ordinal"
    return "pi"


def worst_case(tr: Tracer, stat, table, model, gammas, strategy="auto"):
    """[(p, argmax ubar, candidates scanned)] per gamma, as worst_case_grid gives them."""
    m = table.margins()
    with tr.span("stats"):
        critical = stat(table)
    if strategy == "auto":
        strategy = pick_strategy(stat, model, m)
    if strategy == "signscore":
        with tr.span("signscore"):
            res = worst_case_grid(stat, table, model, gammas, critical, "signscore")
        tr.counts["signscore.calls"] += len(gammas)
        tr.counts["signscore.support"] += len(gammas) * support_size(m.rows, m.cols[1])
        return [(r.pvalue, r.argmax_class.ubar, r.candidates_scanned) for r in res]

    with tr.span("tables"):
        tables = enumerate_fixed_margin_array(m)
    with tr.span("stats"):
        tvals = stat.evaluate_batch(tables)
    with tr.span("aggregate"):
        agg = RejectionAggregate(m, stat, critical, model.delta, tables, tvals)
    tr.counts["tables.count"] += len(tables)
    tr.counts["tables.bytes"] = max(tr.counts["tables.bytes"], tables.nbytes)
    tr.counts["aggregate.builds"] += 1
    tr.counts["aggregate.rejected"] += agg.nrejected
    tr.counts["aggregate.enumerated"] += agg.ntables
    tr.counts["aggregate.cells"] += math.prod(c + 1 for c in m.cols)
    del tables, tvals

    with tr.span("scan"):
        cands = list(candidates_ordinal(m) if strategy == "ordinal" else candidates_pi(m))
        best_p = [-1.0] * len(gammas)
        best_c = [None] * len(gammas)
        values = []
        for cand in cands:
            vals = agg.alpha_grid(cand, gammas)
            values.append(vals)
            for k, v in enumerate(vals):
                if v > best_p[k] * (1.0 + _TIE_REL):
                    best_p[k] = v
                    best_c[k] = cand
    tr.counts["scan.candidates"] += len(cands)
    tr.counts["scan.evals"] += len(cands) * len(gammas)
    tr.counts["scan.ties"] += sum(
        sum(1 for vals in values if vals[k] * (1.0 + _TIE_REL) >= best_p[k]) - 1
        for k in range(len(gammas))
    )
    return [(min(p, 1.0), c.ubar, len(cands)) for p, c in zip(best_p, best_c)]


# ------------------------------------------------------------------ commands


def replay_analyze(tr: Tracer, spec: dict, rundir: Path) -> list[str]:
    with tr.span("cli"):
        table = ContingencyTable.from_csv((rundir / spec["table"]).read_text())
        stat = ordinal_statistic([float(v) for v in spec["alpha"]],
                                 [float(v) for v in spec["beta"]])
        grid = [math.log(float(G)) for G in spec["Gamma"]]
        model = SensitivityModel(gamma=grid[0], delta=tuple(spec["delta"]))
    results = worst_case(tr, stat, table, model, grid, spec["strategy"])
    lines = ["gamma,Gamma,worst_case_p,argmax_ubar,candidates_scanned"]
    for g, (p, ubar, n) in zip(grid, results):
        ub = ";".join(str(v) for v in ubar)
        lines.append(f"{fmt(g)},{fmt(math.exp(g))},{fmt(p)},{ub},{n}")
    return lines


def replay_stratified(tr: Tracer, spec: dict, rundir: Path) -> list[str]:
    with tr.span("cli"):
        study, tau = StratifiedStudy.from_json((rundir / spec["input"]).read_text())
        grid = [math.log(float(G)) for G in spec["Gamma"]]
    rng = np.random.default_rng(spec["seed"])
    M, level, K = spec["iterations"], spec["level"], study.K
    lines = ["gamma,Gamma," + ",".join(f"p_{k+1}" for k in range(K))
             + ",W,combined_p," + ",".join(f"reject_{k+1}" for k in range(K))]

    def combine(ps):
        W = truncated_product(ps, tau)
        tr.counts["combine.calls"] += 1
        if 0.0 < W < 1.0:  # combined_pvalue draws only between its early returns
            tr.counts["combine.draws"] += M * len(ps)
        return W, combined_pvalue(W, len(ps), tau, rng, M)

    def subset_p(ps):
        with tr.span("combine"):
            return combine(ps)[1]

    for g in grid:
        model = study.model.with_gamma(g)
        pvals = [worst_case(tr, study.statistic(k), study.strata[k], model, [g])[0][0]
                 for k in range(K)]
        with tr.span("combine"):
            W, combined = combine(pvals)
        with tr.span("closed"):
            flags = closed_testing(list(pvals), subset_p, level)
        tr.counts["closed.subsets"] += 2**K - 1
        lines.append(f"{fmt(g)},{fmt(math.exp(g))}," + ",".join(fmt(p) for p in pvals)
                     + f",{fmt(W)},{fmt(combined)}," + ",".join(str(int(f)) for f in flags))
    return lines


def replay_power(tr: Tracer, spec: dict, rundir: Path) -> list[str]:
    with tr.span("cli"):
        cfg = json.loads((rundir / spec["config"]).read_text())
        dgp = LogLinearDGP(
            lambda0=float(cfg.get("lambda0", 0.0)), lambda_z=tuple(cfg["lambda_z"]),
            lambda_r=tuple(cfg["lambda_r"]), w=float(cfg.get("w", 1.0)),
            alpha_star=tuple(cfg["alpha_star"]), beta_star=tuple(cfg["beta_star"]),
            treatment_margins=tuple(cfg["treatment_margins"]),
        )
        specs = standard_test_suite(dgp.alpha_star, dgp.beta_star,
                                    tuple(cfg.get("delta", (0, 1, 1))))
    gammas = [float(g) for g in spec["gamma"]]
    seed, iterations, level = spec["seed"], spec["iterations"], spec["level"]
    rejections = []
    for it in range(iterations):
        rng = np.random.default_rng([seed, it])
        with tr.span("simulate.sample"):
            t = sample_table_fixed_treatment(rng, dgp)
        row = []
        for variant in specs:
            try:
                with tr.span("simulate.transform"):
                    tt = variant.transform(t)
                model = SensitivityModel(gamma=gammas[0], delta=variant.delta)
                results = worst_case(tr, variant.statistic(), tt, model, gammas)
            except ValueError:
                # the CLI's power driver counts these as "no rejection"
                tr.counts["simulate.skipped"] += 1
                row.append([False] * len(gammas))
                continue
            row.append([p <= level for p, _, _ in results])
        rejections.append(row)
    tr.counts["simulate.iterations"] += iterations
    arr = np.asarray(rejections, dtype=float)
    lines = ["test,gamma,Gamma,rate,mc_sigma"]
    for si, variant in enumerate(specs):
        rates = arr[:, si, :].mean(axis=0)
        sigma = np.sqrt(rates * (1 - rates) / iterations)
        for g, r, s in zip(gammas, rates, sigma):
            lines.append(f"{variant.name},{fmt(g)},{fmt(math.exp(g))},{fmt(r)},{fmt(s)}")
    return lines


REPLAYS = {"analyze": replay_analyze, "stratified": replay_stratified, "power": replay_power}


def main() -> int:
    expected, spec_path, out_path, spans_path = (Path(a) for a in sys.argv[1:5])
    import exactsens

    if Path(exactsens.__file__).resolve().parent != expected.resolve():
        print(f"exactsens imported from {exactsens.__file__}, not {expected}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    tr = Tracer()
    with tr.span("replay"):
        lines = REPLAYS[spec["command"]](tr, spec, spec_path.parent)
        with tr.span("cli"):
            out_path.write_text("\n".join(lines) + "\n")
    _, start, end, _ = tr.spans[0]
    spans_path.write_text(json.dumps({"spans": tr.spans, "counts": tr.counts}) + "\n")
    print(json.dumps({"wall_s": end - start, "self_s": tr.self_times(),
                      "counts": dict(tr.counts)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
