"""End-to-end benchmark of the exactsens CLI, with a traced layer-by-layer replay.

Run from the repository root:

    python3 perfbench/run.py --workload power-suite --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py for their inputs):

* ``enum-4x4``       analyze, ordinal, 4x4 margins 8 (0.98M tables), 8 Gammas
* ``strata-closed``  stratified, six 3x3 strata, 100k draws, closed testing, 2 Gammas
* ``power-suite``    power --suite, criterion 10's DGP, 36 iterations, gamma 0 and 1

enum-4x4 loads the reference-set layers (tables, statistic, aggregate),
strata-closed the Monte Carlo combining and closed testing, and power-suite
the candidate scan, the sign-score tail and the simulation loop.  There are
only three so that each run can last 40 seconds: on a shared two-core
machine an invocation's time varies by 10-15% from one to the next, so a
steady median needs about a dozen invocations per run.

Each operation is one CLI invocation in a fresh child process with
``SENS_THREADS`` unset and an address-space limit (``RLIMIT_AS``) set on the
child only.  An operation fails on a non-zero exit, an exception, a memory
limit or timeout kill, or an output that does not match the reference stored
for its input (``reference/``).  Operations repeat while another one still
fits in ``--seconds``; times are medians over the run's operations.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``       seconds of ``exactsens.cli.main``, after the imports, up to
                   the CSV being written
* ``cpu_s``        user + sys CPU seconds over the same interval, all threads
* ``peak_rss_mb``  peak resident memory of the child process
* ``setup_s``      seconds from spawning the invocation's fresh interpreter
                   to its ``import exactsens.cli`` done
* ``ok_frac``      operations that succeeded over operations attempted

The three times are given at the reference machine speed: each invocation
first runs a fixed speed probe that uses no exactsens code (child.py), and
its times are scaled by ``PROBE_REF_S`` over the probe's seconds.  The
record keeps every invocation's raw times and probe seconds.

``--trace 1`` pairs each CLI invocation with a traced replay (replay.py)
that must reproduce its CSV byte for byte, and reports per-layer self
seconds and work counts.  Counts are totals over the replay, except
``tables.bytes``, the largest reference set it materialized.  Self times of
the layer spans over the traced wall are ``trace.coverage``; the traced wall
minus the paired untraced wall is ``trace.overhead_s``.

Metric names and units are read from ``BENCHMARK.json``.  The last line
of standard output is the result JSON; the line before it is
a record of the run (environment, realized margins, every operation).  Both
are also written under ``.perfbench/`` in the repository.

``python3 perfbench/run.py --make-reference [--workload W]`` rewrites
``reference/`` from the current code, one CLI run per workload and input
variant.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import BANK, WORKLOADS, csv_body, make_inputs, reference_path, write_inputs

ROOT = Path.cwd()
PKG = ROOT / "src" / "exactsens"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT = 120.0  # seconds; a child past this is killed and counted failed
# Address-space limit of each child: about four times the largest workload's
# peak virtual size, so a memory regression fails an operation instead of
# exhausting the machine.
MEM_LIMIT = 2 << 30
# Seconds of child.py's speed probe at the reference machine speed (its
# typical reading on a 2.1 GHz Xeon vCPU).  Each invocation's times are
# scaled by PROBE_REF_S / its own probe seconds: on a shared host the
# machine's speed swings by 25% and more for tens of seconds at a time, which
# no run length averages out, while the probe, run in the same process just
# before the CLI, moves with it.
PROBE_REF_S = 0.22
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())  # metric names and units


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SENS_THREADS", None)
    src = str(PKG.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], cwd: Path) -> dict:
    """Run ``python3 args`` under an address-space limit and reap it with its rusage."""

    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (MEM_LIMIT, MEM_LIMIT))

    started = time.monotonic()
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=child_env(),
                                stdout=out, stderr=err, preexec_fn=limit)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.monotonic() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = (cwd / "stdout.txt").read_text().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        report = None
    return {
        "rc": proc.returncode,
        "report": report,
        "started": started,
        "stderr": (cwd / "stderr.txt").read_text()[-2000:],
        "elapsed_s": elapsed,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
    }


def failure(res: dict) -> str | None:
    if res["rc"] == 0 and res["report"] is not None:
        return None
    if "MemoryError" in res["stderr"]:
        return f"memory limit hit at {res['peak_rss_mb']:.0f} MB peak RSS"
    if res["rc"] < 0:
        return f"killed by signal {-res['rc']} at {res['peak_rss_mb']:.0f} MB peak RSS"
    return f"exit code {res['rc']}: {res['stderr'].strip()[-400:]}"


def cli_op(wl, inputs, rundir: Path, reference: list[str]) -> dict:
    """One CLI invocation, checked against the stored reference output."""
    out_csv = rundir / "out.csv"
    out_csv.unlink(missing_ok=True)
    res = spawn([str(HERE / "child.py"), str(PKG), *inputs.argv, "--out", out_csv.name],
                rundir)
    problem = failure(res)
    body = None
    if problem is None:
        body = csv_body(out_csv.read_text())
        bad = wl.check(body, reference)
        problem = "; ".join(bad[:3]) if bad else None
    report = res["report"] or {}
    imported = report.get("imported")
    raw = {
        "setup_s": imported - res["started"] if imported else res["elapsed_s"],
        "wall_s": report.get("wall_s", res["elapsed_s"]),
        "cpu_s": report.get("cpu_s", res["elapsed_s"]),
    }
    scale = PROBE_REF_S / report["probe_s"] if report.get("probe_s") else 1.0
    return {
        **{name: value * scale for name, value in raw.items()},
        "raw": raw,
        "probe_s": report.get("probe_s"),
        "peak_rss_mb": res["peak_rss_mb"],
        "problem": problem,
        "body": body,
    }


def replay_op(wl, rundir: Path, cli_body: list[str] | None, reference: list[str]) -> dict:
    """One traced replay; its CSV must equal the paired CLI output byte for byte."""
    out_csv = rundir / "replay.csv"
    out_csv.unlink(missing_ok=True)
    res = spawn([str(HERE / "replay.py"), str(PKG), "spec.json", out_csv.name, "spans.json"],
                rundir)
    problem = failure(res)
    if problem is None:
        body = csv_body(out_csv.read_text())
        if cli_body is not None and body != cli_body:
            problem = "replay CSV differs from the CLI output"
        elif cli_body is None and wl.check(body, reference):
            problem = "replay CSV differs from the reference"
    return {"report": res["report"], "problem": problem, "peak_rss_mb": res["peak_rss_mb"]}


def layer_metrics(rep: dict, cli_wall: float) -> dict[str, float]:
    s, c = rep["self_s"], rep["counts"]
    wall = rep["wall_s"]
    cands = c.get("scan.candidates", 0)
    enumerated = c.get("aggregate.enumerated", 0)
    return {
        "tables.enum_s": s.get("tables", 0.0),
        "tables.count": c.get("tables.count", 0),
        "tables.bytes": c.get("tables.bytes", 0),
        "stats.eval_s": s.get("stats", 0.0),
        "aggregate.build_s": s.get("aggregate", 0.0),
        "aggregate.builds": c.get("aggregate.builds", 0),
        "aggregate.rejected": c.get("aggregate.rejected", 0),
        "aggregate.reject_frac": c.get("aggregate.rejected", 0) / enumerated if enumerated else 0.0,
        "aggregate.cells": c.get("aggregate.cells", 0),
        "scan.s": s.get("scan", 0.0),
        "scan.candidates": cands,
        "scan.evals": c.get("scan.evals", 0),
        "scan.ms_per_candidate": 1000.0 * s.get("scan", 0.0) / cands if cands else 0.0,
        "scan.ties": c.get("scan.ties", 0),
        "signscore.s": s.get("signscore", 0.0),
        "signscore.calls": c.get("signscore.calls", 0),
        "signscore.support": c.get("signscore.support", 0),
        "combine.s": s.get("combine", 0.0),
        "combine.calls": c.get("combine.calls", 0),
        "combine.draws": c.get("combine.draws", 0),
        "closed.s": s.get("closed", 0.0),
        "closed.subsets": c.get("closed.subsets", 0),
        "simulate.sample_s": s.get("simulate.sample", 0.0),
        "simulate.transform_s": s.get("simulate.transform", 0.0),
        "simulate.iterations": c.get("simulate.iterations", 0),
        "simulate.skipped": c.get("simulate.skipped", 0),
        "cli.io_s": s.get("cli", 0.0),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - cli_wall,
        "trace.coverage": 1.0 - s.get("replay", 0.0) / wall,
    }


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("SENS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": commit or None,
    }


def load_reference(wl, variant: int, inputs) -> list[str]:
    entry = json.loads(reference_path(wl).read_text())["variants"][str(variant)]
    if entry["digest"] != inputs.digest():
        raise SystemExit(f"inputs of {wl.name} variant {variant} no longer match "
                         "the stored reference; rerun --make-reference")
    return entry["csv"]


def repeat_for(seconds: float, step) -> None:
    """Call ``step`` at least once, and again while its median duration still fits."""
    end = time.perf_counter() + seconds
    took: list[float] = []
    while not took or time.perf_counter() + statistics.median(took) <= end:
        t0 = time.perf_counter()
        step()
        took.append(time.perf_counter() - t0)


def run(args) -> tuple[dict, dict]:
    wl = WORKLOADS[args.workload]
    variant, inputs = make_inputs(wl, args.seed)
    reference = load_reference(wl, variant, inputs)
    rundir = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    write_inputs(inputs, rundir)
    (rundir / "spec.json").write_text(json.dumps(inputs.spec))
    record = {"workload": wl.name, "seed": args.seed, "variant": variant,
              "argv": inputs.argv, "inputs": inputs.record, "environment": environment()}

    ops = []
    if args.trace:
        layers = []

        def traced_pair() -> None:
            cli = cli_op(wl, inputs, rundir, reference)
            rep = replay_op(wl, rundir, cli["body"], reference)
            ops.extend([cli, rep])
            if rep["problem"] is None:
                layers.append(layer_metrics(rep["report"], cli["raw"]["wall_s"]))
                record.setdefault("replay_counts", rep["report"]["counts"])

        repeat_for(args.seconds, traced_pair)
        values = {m["name"]: statistics.median(layer[m["name"]] for layer in layers)
                  if layers else 0.0 for m in BENCH["per_layer"]}
    else:
        repeat_for(args.seconds, lambda: ops.append(cli_op(wl, inputs, rundir, reference)))
        timed = [op for op in ops if op["problem"] is None] or ops
        values = {
            "wall_s": statistics.median(op["wall_s"] for op in timed),
            "cpu_s": statistics.median(op["cpu_s"] for op in timed),
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in timed),
            "setup_s": statistics.median(op["setup_s"] for op in timed),
            "ok_frac": sum(op["problem"] is None for op in ops) / len(ops),
        }
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in BENCH[kind]}
    failed = sum(op["problem"] is not None for op in ops)
    record["operations"] = [{k: v for k, v in op.items() if k not in ("body", "report")}
                            for op in ops]
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    (rundir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    (rundir / "result.json").write_text(json.dumps(result) + "\n")
    return record, result


def make_reference(names: list[str]) -> None:
    """Store every variant's CLI output, as the current code produces it."""
    for wl in (WORKLOADS[name] for name in names):
        variants = {}
        for variant in range(BANK):
            _, inputs = make_inputs(wl, variant)
            rundir = WORK / "reference" / f"{wl.name}-{variant}"
            shutil.rmtree(rundir, ignore_errors=True)
            write_inputs(inputs, rundir)
            op = cli_op(wl, inputs, rundir, [])
            if op["body"] is None:
                raise SystemExit(f"{wl.name} variant {variant}: {op['problem']}")
            variants[str(variant)] = {"digest": inputs.digest(), "csv": op["body"]}
            print(wl.name, variant, f"{op['wall_s']:.2f}s", flush=True)
        reference_path(wl).write_text(
            json.dumps({"bank": BANK, "variants": variants}, indent=1) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args()
    if not (PKG / "cli.py").is_file():
        print(f"no exactsens sources under {PKG.parent}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.make_reference:
        make_reference([args.workload] if args.workload else sorted(WORKLOADS))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    record, result = run(args)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
