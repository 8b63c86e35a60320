"""The three benchmark workloads: seeded inputs, CLI arguments and output checks.

Every workload fixes its margins, and the seed only moves the cell interior
(for the power study, the association strength of the simulated tables).
The interior is a random walk of margin-preserving 2x2 moves started from
the north-west corner table.  A move is kept if it brings the table's
statistic closer to a fixed band or keeps it inside, and otherwise with a
small chance, so that the walk cannot get stuck; the walk ends inside the
band.  The seed therefore changes the observed table and its p-values but
not the reference-set, candidate-set or support sizes, and the band holds
the rejected share of the reference set, which the aggregate's cost
follows, roughly constant.

Reference outputs live in ``reference/<workload>.json``, one CSV body per
input variant.  ``--seed`` picks variant ``seed % BANK``; the variant seeds
the generator, so equal seeds give equal inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BANK = 32  # input variants with a stored reference output each
P_REL_TOL = 1e-10  # fast path vs integer path bound (ROADMAP)
COMBINED_ABS_TOL = 0.003  # criterion 4's tolerance for Monte Carlo combining
ESCAPE = 0.1  # chance that the walk keeps a move away from the band


# ------------------------------------------------------------------ inputs


def ordinal_z(table, alpha, beta) -> float:
    """Standardized linear-by-linear statistic under the permutation null."""
    rows = [sum(r) for r in table]
    cols = [sum(c) for c in zip(*table)]
    N = sum(rows)
    t = sum(a * b * v for a, row in zip(alpha, table) for b, v in zip(beta, row))
    abar = sum(a * r for a, r in zip(alpha, rows)) / N
    bbar = sum(b * c for b, c in zip(beta, cols)) / N
    sa = sum(r * (a - abar) ** 2 for a, r in zip(alpha, rows))
    sb = sum(c * (b - bbar) ** 2 for b, c in zip(beta, cols))
    return (t - N * abar * bbar) / math.sqrt(sa * sb / (N - 1))


def northwest(rows, cols) -> list[list[int]]:
    crem = list(cols)
    out = []
    for r in rows:
        row = []
        for j in range(len(cols)):
            v = min(r, crem[j])
            row.append(v)
            r -= v
            crem[j] -= v
        out.append(row)
    return out


def walk(rows, cols, score: Callable, band: tuple[float, float], rng: random.Random,
         proposals: int = 3000) -> list[list[int]]:
    """Seeded margin-preserving walk from the north-west table into ``band``."""
    lo, hi = band
    t = northwest(rows, cols)
    I, J = len(rows), len(cols)

    def dist(s: float) -> float:
        return max(lo - s, 0.0, s - hi)

    cur = dist(score(t))
    n = 0
    while n < proposals or cur > 0:
        n += 1
        if n > 50 * proposals:
            raise RuntimeError(f"walk did not reach band {band}")
        i, k = rng.sample(range(I), 2)
        j, m = rng.sample(range(J), 2)
        if t[i][m] == 0 or t[k][j] == 0:
            continue
        for (a, b, d) in ((i, j, 1), (k, m, 1), (i, m, -1), (k, j, -1)):
            t[a][b] += d
        new = dist(score(t))
        if new <= cur or rng.random() < ESCAPE:
            cur = new
        else:
            for (a, b, d) in ((i, j, -1), (k, m, -1), (i, m, 1), (k, j, 1)):
                t[a][b] += d
    return t


def table_csv(table) -> str:
    return "".join(",".join(str(v) for v in row) + "\n" for row in table)


def margins(table) -> dict:
    return {"rows": [sum(r) for r in table], "cols": [sum(c) for c in zip(*table)]}


def csv_list(values) -> str:
    return ",".join(str(v) for v in values)


# ------------------------------------------------------------------ workloads


@dataclass(frozen=True)
class Inputs:
    """What one variant hands to the CLI, to the traced replay and to the record."""

    argv: list[str]
    spec: dict  # everything the replay needs to re-drive the same pipeline
    files: dict[str, str]  # file name -> text, written into the run directory
    record: dict  # realized margins and tables, for the run record

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        h.update(json.dumps(self.argv).encode())
        return h.hexdigest()


# the fractional column scores give the statistic many distinct values, so a
# narrow band holds the rejected share within a few percent across seeds
ENUM_SCORES = ((0, 1, 2, 3), (0, 1.05, 2.1, 3.2))


def enum_4x4(rng):
    a, b = ENUM_SCORES
    delta, gammas = (0, 0, 1, 1), (1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5)
    table = walk((8,) * 4, (8,) * 4, lambda t: ordinal_z(t, a, b), (1.85, 1.95), rng)
    argv = ["analyze", "table.csv", "--test", "ordinal", "--delta", csv_list(delta),
            "--Gamma-grid", csv_list(gammas), "--strategy", "ordinal",
            "--alpha", csv_list(a), "--beta", csv_list(b)]
    spec = {"command": "analyze", "table": "table.csv", "alpha": a, "beta": b,
            "delta": delta, "Gamma": gammas, "strategy": "ordinal"}
    return Inputs(argv, spec, {"table.csv": table_csv(table)},
                  {"margins": margins(table), "table": table})


STRATA_MARGINS = tuple(((n, n, n + s), (n + s, n, n))
                       for n, s in ((6, 0), (7, 0), (8, 1), (9, 0), (10, 1), (11, 0)))
STRATA_SCORES = ((0.0, 0.25, 1.5), (0.0, 1.0, 1.5))


def strata_closed(rng):
    a, b = STRATA_SCORES
    strata = [walk(rows, cols, lambda t: ordinal_z(t, a, b), (1.9, 2.5), rng)
              for rows, cols in STRATA_MARGINS]
    doc = {"strata": [{"counts": t, "alpha": list(a), "beta": list(b)} for t in strata],
           "gamma": 0.0, "delta": [0, 1, 1], "tau": 0.2}
    gammas = (1, 2)
    sim_seed = 5000 + rng.randrange(10**6)
    argv = ["stratified", "study.json", "--Gamma-grid", csv_list(gammas),
            "--iterations", "100000", "--seed", str(sim_seed)]
    spec = {"command": "stratified", "input": "study.json", "Gamma": gammas,
            "seed": sim_seed, "iterations": 100_000, "level": 0.05}
    return Inputs(argv, spec, {"study.json": json.dumps(doc, indent=1) + "\n"},
                  {"margins": [margins(t) for t in strata], "strata": strata})


POWER_DGP = {  # criterion 10's data-generating process
    "lambda0": 0.0, "lambda_z": [1.0, 0.0, 0.0], "lambda_r": [1.0, 0.2, 0.0], "w": 1.0,
    "alpha_star": [0.0, 1.7, 2.45], "beta_star": [0.0, 1.25, 1.4],
    "treatment_margins": [20, 20, 20], "delta": [0, 1, 1],
}
POWER_SIM_SEED = 20240901
# About 3 s per invocation: longer invocations average over a shared host's
# second-to-second speed swings, which the scan's interpreter-bound loop
# feels most.
POWER_ITERATIONS = 36


def power_suite(rng):
    # The seed scales the association w by up to 10%.  The simulation seed
    # stays fixed: a simulated table's column margins set the cost of its
    # scan, and fresh draws per seed spread the run time by about 20%.
    dgp = dict(POWER_DGP, w=round(rng.uniform(0.9, 1.1), 6))
    argv = ["power", "dgp.json", "--suite", "--gamma-grid", "0,1",
            "--iterations", str(POWER_ITERATIONS), "--seed", str(POWER_SIM_SEED)]
    spec = {"command": "power", "config": "dgp.json", "gamma": (0.0, 1.0),
            "iterations": POWER_ITERATIONS, "seed": POWER_SIM_SEED, "level": 0.05}
    return Inputs(argv, spec, {"dgp.json": json.dumps(dgp, indent=1) + "\n"},
                  {"margins": {"rows": dgp["treatment_margins"]}, "w": dgp["w"]})


# ------------------------------------------------------------------ checks


def _rel_close(got: str, want: str, tol: float) -> bool:
    g, w = float(got), float(want)
    return abs(g - w) <= tol * max(abs(w), 1e-300)


def check_analyze(got: list[str], want: list[str]) -> list[str]:
    if len(got) != len(want) or got[:1] != want[:1]:
        return [f"row count or header differs: {got[:1]} vs {want[:1]}"]
    bad = []
    for g, w in zip(got[1:], want[1:]):
        gf, wf = g.split(","), w.split(",")
        if gf[:2] != wf[:2] or gf[3:] != wf[3:]:
            bad.append(f"gamma/argmax/candidates differ: {g!r} vs {w!r}")
        elif not _rel_close(gf[2], wf[2], P_REL_TOL):
            bad.append(f"p-value differs: {g!r} vs {w!r}")
    return bad


def check_stratified(got: list[str], want: list[str]) -> list[str]:
    if len(got) != len(want) or got[:1] != want[:1]:
        return [f"row count or header differs: {got[:1]} vs {want[:1]}"]
    K = sum(1 for h in want[0].split(",") if h.startswith("p_"))
    bad = []
    for g, w in zip(got[1:], want[1:]):
        gf, wf = g.split(","), w.split(",")
        exact_p = all(_rel_close(x, y, P_REL_TOL)
                      for x, y in zip(gf[2:3 + K], wf[2:3 + K]))  # per-stratum p and W
        combined_ok = abs(float(gf[3 + K]) - float(wf[3 + K])) <= COMBINED_ABS_TOL
        if gf[:2] != wf[:2] or gf[4 + K:] != wf[4 + K:]:
            bad.append(f"gamma or closed-testing flags differ: {g!r} vs {w!r}")
        elif not (exact_p and combined_ok):
            bad.append(f"p-values differ: {g!r} vs {w!r}")
    return bad


def check_power(got: list[str], want: list[str]) -> list[str]:
    return [] if got == want else ["power rates differ from the reference"]


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[random.Random], Inputs]
    check: Callable[[list[str], list[str]], list[str]]


WORKLOADS = {w.name: w for w in (
    Workload("enum-4x4", enum_4x4, check_analyze),
    Workload("strata-closed", strata_closed, check_stratified),
    Workload("power-suite", power_suite, check_power),
)}


def make_inputs(workload: Workload, seed: int) -> tuple[int, Inputs]:
    """(variant, inputs) for a benchmark seed."""
    variant = seed % BANK
    rng = random.Random(f"{workload.name}/{variant}")
    return variant, workload.make(rng)


def write_inputs(inputs: Inputs, rundir: Path) -> None:
    rundir.mkdir(parents=True, exist_ok=True)
    for name, text in inputs.files.items():
        (rundir / name).write_text(text)


def reference_path(workload: Workload) -> Path:
    return Path(__file__).resolve().parent / "reference" / f"{workload.name}.json"


def csv_body(text: str) -> list[str]:
    """CSV lines without the leading metadata comment (it echoes file paths)."""
    return [line for line in text.splitlines() if not line.startswith("#")]
