"""Compare what the exactsens CLI prints and writes under two source trees.

    python3 tools/cli_bytes.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the ``exactsens`` package, such as the
``src`` of a checkout.  Every case below runs once per tree: a child process
``python -m exactsens.cli ...`` with that tree first on ``PYTHONPATH`` and
``PYTHONDONTWRITEBYTECODE=1``, in a fresh directory holding the case's input
files.  The exit code, stdout, stderr and the bytes of every file the run
leaves (its ``--out`` and ``--summary``) are compared.  Each difference is
listed and the script exits 1; with none it prints the case count and exits 0.

The cases:

* seeds 1-3 of each benchmark workload (``perfbench/workloads.py``, imported
  without writing anything there), once to stdout and once with ``--out`` and
  ``--summary``;
* the README commands: ``analyze`` with an ordinal, chi2, G2 and cell test and
  with ``--fixed-ubar``, ``stratified``, ``power --suite`` with few
  iterations, ``size`` with ``--delta`` and with ``--phi``, and
  ``sample --with-exact``;
* two ``size`` runs whose null laws have about 1e6 and 5e5 support points;
* refusals whose message and exit code both trees must share, one of them
  raised after ``--out`` and ``--summary`` are opened.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (read-only: no bytecode is written next to it)

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
         "short-delta.json": json.dumps(SHORT_DELTA)}
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
    "power-suite": f"power dgp.json --gamma-grid 0,0.5,1 --iterations 4 --suite {SAVE}",
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


def cases() -> dict[str, workloads.Inputs]:
    out = {}
    for wl in workloads.WORKLOADS.values():
        for seed in (1, 2, 3):
            _, inputs = workloads.make_inputs(wl, seed)
            out[f"{wl.name}/{seed}"] = inputs
            out[f"{wl.name}/{seed}/saved"] = workloads.Inputs(
                inputs.argv + SAVE.split(), inputs.spec, inputs.files, inputs.record)
    for name, argv in {**README, **REFUSALS}.items():
        out[name] = workloads.Inputs(argv.split(), {}, FILES, {})
    return out


def run(src: Path, inputs: workloads.Inputs) -> dict[str, object]:
    """Exit code, stdout, stderr and the files left by one invocation under ``src``."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    with tempfile.TemporaryDirectory(prefix="cli-bytes-") as tmp:
        rundir = Path(tmp)
        workloads.write_inputs(inputs, rundir)
        proc = subprocess.run([sys.executable, "-m", "exactsens.cli", *inputs.argv],
                              cwd=rundir, env=env, capture_output=True, timeout=600)
        left = {str(p.relative_to(rundir)): p.read_bytes() for p in sorted(rundir.rglob("*"))
                if p.is_file() and p.name not in inputs.files}
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, **left}


def check_tree(src: Path) -> None:
    """Refuse a tree whose ``exactsens`` is not the one imported from it."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    found = subprocess.run([sys.executable, "-c", "import exactsens; print(exactsens.__file__)"],
                           env=env, capture_output=True, text=True, cwd=tempfile.gettempdir())
    if Path(found.stdout.strip()).resolve().parent != (src / "exactsens").resolve():
        sys.exit(f"{src}: exactsens imports from {found.stdout.strip() or found.stderr}")


def first_difference(a, b) -> str:
    if not isinstance(a, bytes) or not isinstance(b, bytes):
        return f"{a!r} vs {b!r}"
    for n, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if x != y:
            return f"line {n}: {x[:200]!r} vs {y[:200]!r}"
    return f"{len(a.splitlines())} vs {len(b.splitlines())} lines"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    for src in (parent, change):
        check_tree(src)
    differences, todo = [], cases()
    for name, inputs in todo.items():
        got = [run(parent, inputs), run(change, inputs)]
        for key in sorted(got[0].keys() | got[1].keys()):
            a, b = (g.get(key, "<missing>") for g in got)
            if a != b:
                differences.append(f"{name}: {key} differs: {first_difference(a, b)}")
    for line in differences:
        print(line)
    print(f"{len(todo)} cases, {len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
