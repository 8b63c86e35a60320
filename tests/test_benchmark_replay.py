"""The benchmark's traced replay computes what the CLI writes.

``perfbench/replay.py`` re-drives each workload through the package's layer
functions: the table and study readers, ``RejectionAggregate(m, stat, c,
delta, tables, tvals)``, ``alpha_grid``, the candidate generators and
``combined_pvalue(W, K, tau, rng, M)``.  A change to any of them that the CLI
does not share would fail the benchmark's traced runs, so seed 1 of each
workload is replayed here, in a child process as the benchmark runs it, and
its CSV must equal the CLI's.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from exactsens.cli import main

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SRC = ROOT / "src"


@pytest.mark.parametrize("name", ["enum-4x4", "strata-closed", "power-suite"])
def test_replay_equals_the_cli_output(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked out
    import workloads

    _, inputs = workloads.make_inputs(workloads.WORKLOADS[name], 1)
    workloads.write_inputs(inputs, tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(inputs.spec))
    monkeypatch.chdir(tmp_path)
    assert main(inputs.argv + ["--out", "cli.csv"]) == 0
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "replay.py"), str(SRC / "exactsens"),
         "spec.json", "replay.csv", "spans.json"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    cli, replay = ((tmp_path / f).read_text() for f in ("cli.csv", "replay.csv"))
    assert workloads.csv_body(replay) == workloads.csv_body(cli)
