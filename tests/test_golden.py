"""The CLI's bytes on a fixed set of cases, against committed goldens.

Each case runs ``exactsens.cli.main`` in-process, in a fresh directory that
holds its input files.  Its exit code, stdout, stderr and the bytes of every
file the run leaves (its ``--out`` and ``--summary``) must equal the files
under ``tests/golden/<case>/``.  A change that moves bytes on purpose
regenerates them, and ``git diff tests/golden`` then shows which bytes moved:

    PYTHONPATH=src python tests/test_golden.py --regenerate

The cases:

* seeds 1-3 of each benchmark workload (``perfbench/workloads.py``, imported
  without writing anything there), once to stdout and once with ``--out`` and
  ``--summary``;
* the README commands: ``analyze`` with an ordinal, chi2, G2 and cell test and
  with ``--fixed-ubar``, ``stratified``, ``power --suite`` with few
  iterations, ``size`` with ``--delta`` and with ``--phi``, and
  ``sample --with-exact``;
* two ``size`` runs whose null laws have about 1e6 and 5e5 support points;
* small 3 x 4 and 3 x 5 tables whose exact build bounds the network's last
  level: G2, a cell test and an ordinal test;
* refusals whose message and exit code are part of the interface, one of
  them raised after ``--out`` and ``--summary`` are opened.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from exactsens.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


def _load_workloads():
    """``perfbench/workloads.py`` as a module, leaving no bytecode next to it."""
    spec = importlib.util.spec_from_file_location(
        "_golden_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    before, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


workloads = _load_workloads()

GIRLS = "12,3,0\n18,12,3\n17,25,4\n"
STUDY = {"strata": [{"counts": [[12, 3, 0], [18, 12, 3], [17, 25, 4]],
                     "alpha": [0, 0.25, 1.5], "beta": [0, 1, 1.5]},
                    {"counts": [[10, 8, 1], [29, 11, 3], [20, 24, 6]],
                     "alpha": [0, 0.25, 1.5], "beta": [0, 1, 1.5]}],
         "gamma": 0.0, "delta": [0, 1, 1], "tau": 0.2}
# a binary-outcome study whose delta is one entry short of its three rows
SHORT_DELTA = {"strata": [{"counts": counts, "alpha": [0, 1, 2], "beta": [0, 1]}
                          for counts in ([[5, 3], [4, 4], [2, 6]], [[6, 2], [3, 5], [1, 7]])],
               "gamma": 0.0, "delta": [0, 1]}
DGP = {"lambda_z": [1.0, 0.0, 0.0], "lambda_r": [1.0, 0.2, 0.0], "w": 1.0,
       "alpha_star": [0.0, 1.7, 2.45], "beta_star": [0.0, 1.25, 1.4],
       "treatment_margins": [10, 10, 10], "delta": [0, 1, 1]}
FILES = {"girls.csv": GIRLS, "table.csv": GIRLS, "study.json": json.dumps(STUDY),
         "dgp.json": json.dumps(DGP), "bad.json": json.dumps({"strata": [{}]}),
         "short-delta.json": json.dumps(SHORT_DELTA),
         "t34.csv": "4,1,2,0\n2,3,1,2\n0,2,3,4\n",
         "t35.csv": "3,2,1,0,0\n1,2,2,1,1\n0,1,1,3,2\n"}
ORDINAL = "--test ordinal --alpha 0,0.25,1.5 --beta 0,1,1.5 --delta 0,1,1"
SAVE = "--out out.csv --summary summary.json"

README = {
    "analyze-ordinal": f"analyze girls.csv {ORDINAL} --Gamma-grid 1,1.5,2,2.5,3,3.5,4,4.5 "
                       "--out girls_worstcase.csv --summary girls_run.json",
    "analyze-chi2": f"analyze girls.csv --test chi2 --delta 0,1,1 --Gamma-grid 1,2 {SAVE}",
    "analyze-g2": f"analyze girls.csv --test g2 --delta 0,1,1 --Gamma-grid 1,2 {SAVE}",
    "analyze-cell": f"analyze girls.csv --test cell:1,3 --delta 0,1,1 --Gamma-grid 1,2 {SAVE}",
    "analyze-fixed-ubar": f"analyze girls.csv --test chi2 --delta 0,1,1 --fixed-ubar 0,10,3 "
                          f"--Gamma-grid 1,2 {SAVE}",
    "stratified": f"stratified study.json --Gamma-grid 1,2,3 {SAVE}",
    "power-suite": f"power dgp.json --gamma-grid 0,1 --iterations 4 --suite {SAVE}",
    "size": f"size --rows 60,10,20 --cols 15,75 --delta 0,0,1 --alpha 0,1,2 --gamma-grid 1 {SAVE}",
    "size-phi": f"size --rows 4,3 --cols 3,4 --phi 0,1 --gamma-grid 0.5 {SAVE}",
    # supports of 1,181,081 and 496,876 points
    "size-large": "size --rows 120,120,120,120 --cols 240,240 --delta 0,0,1,1 --alpha 0,1,2,3 "
                  f"--gamma-grid 1 {SAVE}",
    "size-large-phi": "size --rows 100,100,100,100 --cols 150,250 --phi 0,0.5,1.5,2 "
                      f"--alpha 0,1,2,3 --gamma-grid 0.7 {SAVE}",
    "sample": "sample table.csv --test ordinal --alpha 0,1,2 --beta 0,1,2 --delta 0,1,1 "
              f"--gamma-grid 1 --fixed-ubar 0,0,3 --with-exact {SAVE}",
}
# small tables whose builds bound the last level per state
BOUNDED = {
    "analyze-3x4-g2": f"analyze t34.csv --test g2 --delta 0,1,1 --Gamma-grid 1,2 {SAVE}",
    "analyze-3x4-cell": f"analyze t34.csv --test cell:2,3 --delta 0,1,1 --Gamma-grid 1,2 {SAVE}",
    "analyze-3x5-ordinal": "analyze t35.csv --test ordinal --alpha 0,1,2 --beta 0,1,2,3,4 "
                           f"--delta 0,1,1 --Gamma-grid 1,1.5,2 {SAVE}",
}
REFUSALS = {
    "score-lengths": "analyze girls.csv --test ordinal --alpha 0,1 --beta 0,1,2 --delta 0,1,1",
    "empty-entry": "analyze girls.csv --test chi2 --delta 0,1,,1",
    "cell-zero": "analyze girls.csv --test cell:0,2 --delta 0,1,1",
    "fixed-ubar-strategy": "analyze girls.csv --test chi2 --delta 0,1,1 --fixed-ubar 0,10,3 "
                           "--strategy pi",
    "out-missing-dir": "analyze girls.csv --test chi2 --delta 0,1,1 --out missing/o.csv",
    # refused after the destinations are opened: the files opened are removed
    "refused-after-claim": f"analyze girls.csv --test chi2 --delta 0,1,1 --strategy signscore "
                           f"{SAVE}",
    "study-keys": "stratified bad.json",
    "stratified-bias-length": "stratified short-delta.json --gamma-grid 0,1",
    "sample-phi": "sample table.csv --test ordinal --alpha 0,1,2 --beta 0,1,2 --phi 0,1,2 "
                  "--gamma-grid 1 --fixed-ubar 0,0,3",
}


def cases() -> dict[str, tuple[list[str], dict[str, str]]]:
    """Case name -> (CLI arguments, input files by name)."""
    out = {}
    for wl in workloads.WORKLOADS.values():
        for seed in (1, 2, 3):
            _, inputs = workloads.make_inputs(wl, seed)
            out[f"{wl.name}-{seed}"] = (inputs.argv, inputs.files)
            out[f"{wl.name}-{seed}-saved"] = (inputs.argv + SAVE.split(), inputs.files)
    for name, argv in {**README, **BOUNDED, **REFUSALS}.items():
        out[name] = (argv.split(), FILES)
    return out


CASES = cases()


def run(argv: list[str], files: dict[str, str]) -> dict[str, bytes]:
    """Exit code, stdout, stderr and the files one invocation leaves, as bytes by name."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        rundir = Path(tmp)
        for name, text in files.items():
            (rundir / name).write_text(text)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(rundir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
        left = {f"files/{p.relative_to(rundir)}": p.read_bytes()
                for p in sorted(rundir.rglob("*")) if p.is_file() and p.name not in files}
    return {"exit": f"{code}\n".encode(), "stdout": out.getvalue().encode(),
            "stderr": err.getvalue().encode(), **left}


def stored(case: str) -> dict[str, bytes]:
    base = GOLDEN / case
    return {str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("case", list(CASES))
def test_cli_bytes_equal_the_golden(case):
    got, want = run(*CASES[case]), stored(case)
    assert want, f"no golden for {case}; regenerate the goldens"
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key].decode().splitlines() == want[key].decode().splitlines(), key
        assert got[key] == want[key], key


def regenerate() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for case, (argv, files) in CASES.items():
        for key, data in run(argv, files).items():
            path = GOLDEN / case / key
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
    print(f"{len(CASES)} cases written under {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__.split("\n\n")[1])
    regenerate()
