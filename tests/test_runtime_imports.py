"""The runtime needs numpy only, and a command imports nothing inside ``main``.

Each check runs in a fresh interpreter.  A module that a command imports
lazily on its first use is paid for inside the command's own time, so
``main`` itself must import nothing: every module the commands need is
loaded with ``exactsens.cli``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exactsens

SRC = str(Path(exactsens.__file__).resolve().parents[1])

MAIN_IMPORTS = """
import json, sys
import exactsens.cli
before = set(sys.modules)
code = exactsens.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


def fresh_python(code: str, args: list[str], cwd: Path):
    """Last stdout line, as JSON, of ``python -c code *args`` with this exactsens first."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_leaves_scipy_unloaded(tmp_path):
    modules = fresh_python(
        "import json, sys, exactsens, exactsens.cli; print(json.dumps(sorted(sys.modules)))",
        [], tmp_path)
    assert "exactsens.cli" in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


STUDY = {
    "strata": [{"counts": t, "alpha": [0, 0.25, 1.5], "beta": [0, 1, 1.5]}
               for t in ([[3, 2, 1], [1, 3, 2], [1, 1, 4]], [[4, 1, 1], [2, 2, 2], [0, 2, 4]])],
    "gamma": 0.0, "delta": [0, 1, 1], "tau": 0.2,
}
DGP = {
    "lambda0": 0.0, "lambda_z": [1.0, 0.0, 0.0], "lambda_r": [1.0, 0.2, 0.0], "w": 1.0,
    "alpha_star": [0.0, 1.7, 2.45], "beta_star": [0.0, 1.25, 1.4],
    "treatment_margins": [8, 8, 8], "delta": [0, 1, 1],
}
SCORES = ["--alpha", "0,1,2", "--beta", "0,1,2", "--delta", "0,1,1"]


@pytest.mark.parametrize("argv", [
    ["analyze", "t.csv", "--test", "ordinal", *SCORES, "--Gamma-grid", "1,2"],
    ["analyze", "t.csv", "--test", "chi2", "--delta", "0,1,1", "--Gamma-grid", "1,2"],
    ["stratified", "study.json", "--Gamma-grid", "1,2"],
    ["power", "dgp.json", "--suite", "--gamma-grid", "0,1", "--iterations", "3"],
    ["size", "--rows", "20,5,10", "--cols", "10,25", "--delta", "0,0,1", "--gamma-grid", "1"],
    ["sample", "t.csv", "--test", "ordinal", *SCORES, "--gamma-grid", "1",
     "--fixed-ubar", "0,0,3", "--iterations", "20", "--with-exact"],
], ids=["analyze-ordinal", "analyze-pi", "stratified", "power", "size", "sample"])
def test_commands_import_nothing_inside_main(argv, tmp_path):
    (tmp_path / "t.csv").write_text("2,3,0\n0,1,4\n0,1,4\n")
    (tmp_path / "study.json").write_text(json.dumps(STUDY))
    (tmp_path / "dgp.json").write_text(json.dumps(DGP))
    code, imported = fresh_python(MAIN_IMPORTS, argv + ["--out", "out.csv"], tmp_path)
    assert code == 0
    assert imported == []
