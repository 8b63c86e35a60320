"""Command-line surface: outputs, reproducibility, exit codes."""

import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import exactsens
from exactsens.cli import main
from exactsens.sensmodel import SensitivityModel
from exactsens.simulate import size_curve
from exactsens.tables import Margins
from exactsens.worstcase import worst_case_grid

GIRLS_CSV = "# pre-K care x math proficiency\n12,3,0\n18,12,3\n17,25,4\n"


def run(argv):
    return main(argv)


@pytest.fixture
def girls_csv(tmp_path):
    p = tmp_path / "girls.csv"
    p.write_text(GIRLS_CSV)
    return str(p)


def test_analyze_worst_case_grid(girls_csv, tmp_path):
    out = tmp_path / "out.csv"
    summary = tmp_path / "out.json"
    code = run([
        "analyze", girls_csv,
        "--test", "ordinal", "--alpha", "0,0.25,1.5", "--beta", "0,1,1.5",
        "--delta", "0,1,1", "--Gamma-grid", "1,2,3",
        "--out", str(out), "--summary", str(summary),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# exactsens ")  # config echo + version
    assert lines[1] == "gamma,Gamma,worst_case_p,argmax_ubar,candidates_scanned"
    ps = [float(line.split(",")[2]) for line in lines[2:]]
    assert [round(p, 3) for p in ps] == [0.006, 0.028, 0.054]
    meta = json.loads(summary.read_text())
    assert meta["command"] == "analyze" and "version" in meta


@pytest.mark.parametrize("args, used", [
    (["--test", "ordinal", "--alpha", "0,0.25,1.5", "--beta", "0,1,1.5"], "ordinal"),
    (["--test", "chi2"], "pi"),
    (["--test", "ordinal", "--alpha", "0,0.25,1.5", "--beta", "0,1,1.5",
      "--fixed-ubar", "0,10,3"], None),
], ids=["ordinal", "pi", "fixed-ubar"])
def test_analyze_summary_records_the_strategy_used(args, used, girls_csv, tmp_path):
    out, summary = tmp_path / "out.csv", tmp_path / "out.json"
    assert run(["analyze", girls_csv, "--delta", "0,1,1", "--gamma-grid", "0,1"] + args
               + ["--out", str(out), "--summary", str(summary)]) == 0
    meta = json.loads(summary.read_text())
    assert meta["strategy_used"] == used and meta["strategy"] == "auto"
    assert "strategy_used" not in out.read_text()  # the CSV echo stays as it was


def test_binary_outcome_under_the_ordinal_strategy(tmp_path):
    # J = 2 with a non-sign-score delta takes the suffix sweep; it must agree
    # with the full per-outcome scan
    p = tmp_path / "t.csv"
    p.write_text("4,2\n3,3\n1,5\n")
    rows = {}
    for strategy in ("ordinal", "pi"):
        out, summary = tmp_path / f"{strategy}.csv", tmp_path / f"{strategy}.json"
        assert run(["analyze", str(p), "--test", "ordinal", "--alpha", "0,1,2",
                    "--beta", "0,1", "--delta", "0,0,1", "--gamma-grid", "0,0.5,2",
                    "--strategy", strategy, "--out", str(out), "--summary", str(summary)]) == 0
        assert json.loads(summary.read_text())["strategy_used"] == strategy
        rows[strategy] = [line.split(",") for line in out.read_text().splitlines()[2:]]
    for a, b in zip(rows["ordinal"], rows["pi"]):
        assert float(a[2]) == pytest.approx(float(b[2]), rel=1e-10)
    assert {int(r[4]) for r in rows["ordinal"]} == {19}  # N + 1 suffix classes


def test_analyze_fixed_ubar_mode(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("4,6,0\n1,3,6\n")
    out = tmp_path / "o.csv"
    code = run([
        "analyze", str(p),
        "--test", "ordinal", "--alpha", "0,1", "--beta", "0,1,2",
        "--delta", "0,1", "--gamma-grid", "1",
        "--fixed-ubar", "0,1,6", "--out", str(out),
    ])
    assert code == 0
    val = float(out.read_text().strip().splitlines()[2].split(",")[2])
    assert round(val, 2) == 0.05


@pytest.mark.parametrize("test_args, ubar", [
    (["--test", "ordinal", "--alpha", "0,0.25,1.5", "--beta", "0,1,1.5"], (0, 20, 7)),
    (["--test", "chi2"], (5, 9, 2)),
])
def test_analyze_fixed_ubar_grid_equals_per_gamma_exact_alpha(girls_csv, tmp_path, test_args,
                                                                ubar):
    # one aggregate serves the whole grid; each row is exact_alpha at its Gamma
    import math

    from exactsens.exactdist import exact_alpha
    from exactsens.sensmodel import ConfounderClass, SensitivityModel
    from exactsens.stats import chi2_statistic, ordinal_statistic
    from exactsens.tables import ContingencyTable

    out = tmp_path / "o.csv"
    gammas = [1.0, 1.5, 2.0, 3.0, 6.0]
    assert run([
        "analyze", girls_csv, *test_args, "--delta", "0,1,1",
        "--Gamma-grid", ",".join(map(str, gammas)),
        "--fixed-ubar", ",".join(map(str, ubar)), "--out", str(out),
    ]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    table = ContingencyTable.from_csv(GIRLS_CSV)
    stat = (chi2_statistic() if test_args[1] == "chi2"
            else ordinal_statistic((0, 0.25, 1.5), (0, 1, 1.5)))
    for row, G in zip(rows, gammas, strict=True):
        model = SensitivityModel(gamma=math.log(G), delta=(0, 1, 1))
        p = exact_alpha(stat, table, ConfounderClass(ubar), model)
        assert row[2] == format(p, ".12g")


def test_analyze_gamma_grid_one_is_randomization(girls_csv, tmp_path):
    out = tmp_path / "o.csv"
    code = run([
        "analyze", girls_csv,
        "--test", "ordinal", "--alpha", "0,0.25,1.5", "--beta", "0,1,1.5",
        "--delta", "0,1,1", "--Gamma-grid", "1", "--out", str(out),
    ])
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["analyze", "{girls}", "--test", "ordinal", "--alpha", "0,0.25,1.5",
     "--beta", "0,1,1.5", "--delta", "0,1,1", "--Gamma-grid", "1,2"],
    ["size", "--rows", "20,5,10", "--cols", "10,25", "--delta", "0,0,1",
     "--alpha", "0,1,2", "--gamma-grid", "0.5", "--nominal", "0.05,0.5"],
    ["sample", "{girls}", "--test", "ordinal", "--alpha", "0,0.25,1.5",
     "--beta", "0,1,1.5", "--delta", "0,1,1", "--gamma-grid", "0.5",
     "--fixed-ubar", "0,10,3", "--iterations", "300", "--with-exact"],
], ids=["analyze", "size", "sample"])
def test_byte_identical_reruns(argv, girls_csv, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        summary = tmp_path / f"{name}.json"
        code = run([a.format(girls=girls_csv) for a in argv]
                   + ["--out", str(out), "--summary", str(summary)])
        assert code == 0
        outs.append((out.read_bytes(), summary.read_bytes()))
    assert outs[0] == outs[1]


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\nx,4\n")
    code = run(["analyze", str(bad), "--test", "chi2", "--delta", "0,1"])
    assert code == 2
    code = run(["analyze", str(tmp_path / "missing.csv"), "--test", "chi2",
                "--delta", "0,1"])
    assert code == 2
    capsys.readouterr()
    # one treatment score per row: a short --alpha is bad input, not a model mismatch
    code = run(["size", "--rows", "20,5,10", "--cols", "10,25", "--delta", "0,0,1",
                "--alpha", "0,1"])
    assert code == 2
    assert capsys.readouterr().err == "error: --alpha length must match --rows\n"
    size = ["size", "--rows", "20,5,10", "--delta", "0,0,1"]
    for extra, message in [
        (["--cols", "10,20,5"], "the size study needs a binary outcome"),
        (["--cols", "10,25", "--alpha", "0,2,1"], "row scores must be non-decreasing"),
    ]:
        assert run(size + extra) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    table = tmp_path / "t.csv"
    table.write_text("2,3,0\n0,1,4\n0,1,4\n")
    sample = ["sample", str(table), "--test", "ordinal", "--alpha", "0,1,2",
              "--beta", "0,1,2", "--fixed-ubar", "0,0,3"]
    assert run(sample + ["--delta", "0,1,1", "--iterations", "0"]) == 2
    assert capsys.readouterr().err == "error: --iterations must be at least 1\n"
    # a model is one bias vector: --delta and --phi together are refused, not
    # resolved silently in favour of --delta
    assert run(sample + ["--delta", "0,1,1", "--phi", "0,1,2", "--iterations", "10"]) == 2
    assert capsys.readouterr().err == "error: give only one of --delta / --phi\n"
    # an empty outcome level and an out-of-range cell are refused, not a traceback
    empty = tmp_path / "empty.csv"
    empty.write_text("3,0,2\n1,0,4\n")
    two_rows = tmp_path / "two.csv"
    two_rows.write_text("1,2\n3,4\n")
    for path, test, message in [
        (empty, "chi2", "chi2/G2 need every row and column margin positive"),
        (two_rows, "cell:3,1", "cell index out of range"),
        # a malformed cell spec gets one plain message, not Python's parse error
        (two_rows, "cell:1", "bad cell spec 'cell:1'; expected cell:i,j (1-based)"),
        (two_rows, "cell:a,b", "bad cell spec 'cell:a,b'; expected cell:i,j (1-based)"),
    ]:
        assert run(["analyze", str(path), "--test", test, "--delta", "0,1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    # a nominal level is a probability: nan, 2 and -1 wrote rates of 0 or 1
    for nominal in ["nan,0.05", "0.05,2", "-1", "inf"]:
        assert run(["size", "--rows", "4,3", "--cols", "3,4", "--delta", "0,1",
                    "--gamma-grid", "0.5", "--nominal", nominal]) == 2
        assert "--nominal levels must lie in [0, 1]" in capsys.readouterr().err
    # a gamma grid is finite: nan and inf are refused before any model is built
    analyze = ["analyze", str(table), "--test", "ordinal", "--alpha", "0,1,2",
               "--beta", "0,1,2", "--delta", "0,1,1"]
    dgp = tmp_path / "dgp.json"
    dgp.write_text(json.dumps({
        "lambda_z": [1.0, 0.0, 0.0], "lambda_r": [1.0, 0.2, 0.0], "w": 1.0,
        "alpha_star": [0.0, 1.7, 2.45], "beta_star": [0.0, 1.25, 1.4],
        "treatment_margins": [10, 10, 10], "delta": [0, 1, 1],
    }))
    study = tmp_path / "study.json"
    study.write_text(json.dumps({
        "strata": [{"counts": [[2, 3, 0], [0, 1, 4], [0, 1, 4]],
                    "alpha": [0, 1, 2], "beta": [0, 1, 2]}] * 2,
        "gamma": 0.0, "delta": [0, 1, 1], "tau": 0.2,
    }))
    for argv, message in [
        (analyze + ["--gamma-grid", "0,nan"], "gamma values must be finite and >= 0"),
        (analyze + ["--gamma-grid", "0,inf"], "gamma values must be finite and >= 0"),
        (analyze + ["--fixed-ubar", "0,0,3", "--Gamma-grid", "1,inf"],
         "Gamma values must be finite and >= 1"),
        (["power", str(dgp), "--gamma-grid", "0,nan", "--iterations", "2"],
         "gamma values must be finite and >= 0"),
        (["stratified", str(study), "--gamma-grid", "0,nan"],
         "gamma values must be finite and >= 0"),
    ]:
        assert run(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, grid", [
    (["size", "--rows", "20,5,10", "--cols", "10,25", "--delta", "0,0,1",
      "--alpha", "0,1,2", "--nominal", "0.05"], ["--gamma-grid", "0.5,1,2"]),
    (["sample", "{girls}", "--test", "ordinal", "--alpha", "0,0.25,1.5",
      "--beta", "0,1,1.5", "--delta", "0,1,1", "--fixed-ubar", "0,10,3",
      "--iterations", "10"], ["--Gamma-grid", "1,2"]),
], ids=["size", "sample"])
def test_single_gamma_commands_refuse_a_grid(argv, grid, girls_csv, tmp_path, capsys):
    # evaluating only the first gamma of the grid would drop the rest silently
    out = tmp_path / "out.csv"
    code = run([a.format(girls=girls_csv) for a in argv] + grid + ["--out", str(out)])
    assert code == 2
    assert not out.exists()
    n = len(grid[1].split(","))
    assert capsys.readouterr().err == f"error: {argv[0]} takes one gamma value, not {n}\n"


@pytest.mark.parametrize("spec", ["cell:0,2", "cell:1,0", "cell:-1,1"])
def test_cell_spec_is_one_based(tmp_path, capsys, spec):
    # cell indices count from 1 on the command line: 0 or less is a bad spec,
    # not the library's 0-based "must be non-negative" refusal
    table = tmp_path / "t.csv"
    table.write_text("2,3,0\n0,1,4\n0,1,4\n")
    assert run(["analyze", str(table), "--test", spec, "--delta", "0,1,1"]) == 2
    assert capsys.readouterr().err == (
        f"error: bad cell spec {spec!r}; expected cell:i,j (1-based)\n")


def test_model_family_mismatch_exits_3(girls_csv, tmp_path, capsys):
    # dose model with a permutation-invariant scan is refused
    code = run([
        "analyze", girls_csv, "--test", "chi2", "--phi", "1,2,3",
        "--gamma-grid", "0.5",
    ])
    assert code == 3
    # the sign-score worst case is only exact for a sign-score statistic
    table = tmp_path / "t.csv"
    table.write_text("6,4\n4,2\n2,1\n")
    capsys.readouterr()
    code = run(["analyze", str(table), "--test", "cell:1,2", "--delta", "0,1,1",
                "--gamma-grid", "1", "--strategy", "signscore"])
    assert code == 3
    assert "signscore strategy needs a sign-score statistic" in capsys.readouterr().err


def test_stratified_command(tmp_path):
    doc = {
        "strata": [
            {"counts": [[12, 3, 0], [18, 12, 3], [17, 25, 4]],
             "alpha": [0, 0.25, 1.5], "beta": [0, 1, 1.5]},
            {"counts": [[10, 8, 1], [29, 11, 3], [20, 24, 6]],
             "alpha": [0, 0.25, 1.5], "beta": [0, 1, 1.5]},
        ],
        "gamma": 0.0,
        "delta": [0, 1, 1],
        "tau": 0.2,
    }
    inp = tmp_path / "study.json"
    inp.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    code = run([
        "stratified", str(inp), "--Gamma-grid", "1", "--iterations", "50000",
        "--out", str(out),
    ])
    assert code == 0
    meta, header, row = out.read_text().strip().splitlines()
    cells = row.split(",")
    assert round(float(cells[2]), 3) == 0.006
    assert round(float(cells[3]), 3) == 0.013
    combined = float(cells[5])
    assert combined == pytest.approx(0.001, abs=0.0015)
    assert cells[6] == "1" and cells[7] == "1"
    # the combined p-value is exact: --seed and --iterations change no byte
    other = tmp_path / "other.csv"
    assert run([
        "stratified", str(inp), "--Gamma-grid", "1", "--iterations", "7",
        "--seed", "99", "--out", str(other),
    ]) == 0
    assert other.read_text() == out.read_text()


def test_stratified_malformed_exits_2(tmp_path):
    inp = tmp_path / "bad.json"
    inp.write_text(json.dumps({"strata": [{"counts": [[1, 2], [3, 4]]}]}))
    assert run(["stratified", str(inp)]) == 2
    stratum = {"counts": [[5, 1], [1, 5]], "alpha": [0, 1], "beta": [0, 1]}
    inp.write_text(json.dumps({"strata": [stratum], "gamma": 0.0, "delta": [0, 1],
                               "tau": None}))
    assert run(["stratified", str(inp)]) == 2


def test_stratified_bad_iterations_or_tau_exits_2(tmp_path, capsys):
    doc = {
        "strata": [{"counts": [[5, 1], [1, 5]], "alpha": [0, 1], "beta": [0, 1]}] * 2,
        "gamma": 0.0,
        "delta": [0, 1],
    }
    inp = tmp_path / "study.json"
    inp.write_text(json.dumps(doc))
    for extra, message in [
        (["--tau", "1.5"], "tau must lie in (0, 1)"),
        (["--tau", "0"], "tau must lie in (0, 1)"),
    ]:
        assert run(["stratified", str(inp)] + extra) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_sample_command(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("2,3,0\n0,1,4\n0,1,4\n")
    out = tmp_path / "trace.csv"
    code = run([
        "sample", str(p), "--test", "ordinal", "--alpha", "0,1,2",
        "--beta", "0,1,2", "--delta", "0,1,1", "--gamma-grid", "1",
        "--fixed-ubar", "0,0,3", "--iterations", "400", "--with-exact",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# exactsens ")
    assert lines[1] == "iteration,sis,permtreat,exact"
    assert len(lines) == 402
    exact = float(lines[2].split(",")[3])
    assert round(exact, 2) == 0.01
    # SIS draws from the exact tilted law, so each row is the share k/i of
    # rejected draws, correctly rounded
    g = tmp_path / "girls.csv"
    g.write_text(GIRLS_CSV)
    assert run(["sample", str(g), "--test", "ordinal", "--alpha", "0,1,2", "--beta", "0,1,2",
                "--delta", "0,1,1", "--gamma-grid", "1", "--fixed-ubar", "0,0,3",
                "--iterations", "300", "--out", str(out)]) == 0
    for i, line in enumerate(out.read_text().strip().splitlines()[2:], 1):
        sis = line.split(",")[1]
        assert sis == format(round(float(sis) * i) / i, ".12g"), line


def test_sample_with_an_empty_top_outcome_level(tmp_path):
    # analyze accepts this table; the permutation baseline must size J from
    # the table, not from the largest outcome code present
    p = tmp_path / "t.csv"
    p.write_text("1,2,0\n3,1,0\n")
    out = tmp_path / "trace.csv"
    code = run([
        "sample", str(p), "--test", "ordinal", "--alpha", "0,1",
        "--beta", "0,1,2", "--delta", "0,1", "--gamma-grid", "1",
        "--fixed-ubar", "1,1,0", "--iterations", "50", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1] == "iteration,sis,permtreat"
    assert len(lines) == 52
    assert all(0.0 <= float(line.split(",")[2]) <= 1.0 for line in lines[2:])


def test_power_command(tmp_path):
    cfg = {
        "lambda_z": [1.0, 0.0, 0.0],
        "lambda_r": [1.0, 0.2, 0.0],
        "w": 1.0,
        "alpha_star": [0.0, 1.7, 2.45],
        "beta_star": [0.0, 1.25, 1.4],
        "treatment_margins": [10, 10, 10],
        "delta": [0, 1, 1],
    }
    cp = tmp_path / "dgp.json"
    cp.write_text(json.dumps(cfg))
    out = tmp_path / "power.csv"
    code = run(["power", str(cp), "--gamma-grid", "0,1", "--iterations", "5",
                "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1] == "test,gamma,Gamma,rate,mc_sigma"
    assert len(lines) == 4


def test_power_misconfiguration_exit_codes(tmp_path):
    # misconfigured variants are reported, not counted as "no rejection":
    # a 2-entry delta on the 3-row full-table variant is a model mismatch,
    # non-monotone DGP scores cannot define the ordinal test
    cfg = {
        "lambda_z": [1.0, 0.0, 0.0],
        "lambda_r": [1.0, 0.2, 0.0],
        "alpha_star": [0.0, 1.7, 2.45],
        "beta_star": [0.0, 1.25, 1.4],
        "treatment_margins": [10, 10, 10],
        "delta": [0, 1],
    }
    cp = tmp_path / "dgp.json"
    out = tmp_path / "power.csv"
    cp.write_text(json.dumps(cfg))
    assert run(["power", str(cp), "--iterations", "2", "--out", str(out)]) == 3
    cfg.update(delta=[0, 1, 1], alpha_star=[0.0, 2.45, 1.7])
    cp.write_text(json.dumps(cfg))
    with pytest.warns(UserWarning, match="not monotone"):
        assert run(["power", str(cp), "--iterations", "2", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("field, value, shown", [
    ("w", math.inf, "inf"),
    ("lambda_z", [math.nan, 0, 0], "(nan, 0.0, 0.0)"),
    ("alpha_star", [0, math.nan, 2.45], "(0.0, nan, 2.45)"),
    ("lambda0", -math.inf, "-inf"),
])
def test_power_refuses_a_non_finite_dgp_parameter(tmp_path, capsys, field, value, shown):
    # JSON's NaN and Infinity read as floats; the DGP names the field before
    # any warning or numpy error about the probabilities they would give
    cfg = {"lambda_z": [1, 0, 0], "lambda_r": [1, 0.2, 0], "alpha_star": [0, 1.7, 2.45],
           "beta_star": [0, 1.25, 1.4], "treatment_margins": [10, 10, 10], field: value}
    cp = tmp_path / "dgp.json"
    cp.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["power", str(cp), "--iterations", "2", "--gamma-grid", "0"]) == 2
    assert capsys.readouterr().err == (
        f"error: malformed power config: {field} must be finite, not {shown}\n")


def test_power_misconfigured_variant_exits_2(tmp_path, capsys):
    # the suite's 3 x 3 level groups cannot partition a 4 x 4 table; every
    # draw would fail the same way, so the run stops before simulating
    cfg = {
        "lambda_z": [0.0] * 4,
        "lambda_r": [0.0] * 4,
        "alpha_star": [0.0, 1.0, 2.0, 3.0],
        "beta_star": [0.0, 1.0, 2.0, 3.0],
        "treatment_margins": [5, 5, 5, 5],
        "delta": [0, 1, 1, 1],
    }
    cp = tmp_path / "dgp4.json"
    cp.write_text(json.dumps(cfg))
    out = tmp_path / "power.csv"
    assert run(["power", str(cp), "--suite", "--gamma-grid", "0", "--iterations", "3",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: test variant '3x2-v1': column blocks must partition 0..3\n")
    assert not out.exists()


@pytest.fixture
def level_inputs(tmp_path):
    study = tmp_path / "study.json"
    study.write_text(json.dumps({
        "strata": [{"counts": [[5, 1], [1, 5]], "alpha": [0, 1], "beta": [0, 1]}] * 2,
        "gamma": 0.0,
        "delta": [0, 1],
    }))
    dgp = tmp_path / "dgp.json"
    dgp.write_text(json.dumps({
        "lambda_z": [1.0, 0.0, 0.0],
        "lambda_r": [1.0, 0.2, 0.0],
        "alpha_star": [0.0, 1.7, 2.45],
        "beta_star": [0.0, 1.25, 1.4],
        "treatment_margins": [10, 10, 10],
    }))
    return {"stratified": ["stratified", str(study)],
            "power": ["power", str(dgp), "--iterations", "2"]}


@pytest.mark.parametrize("command", ["stratified", "power"])
@pytest.mark.parametrize("level", ["nan", "inf", "-0.05", "0", "1", "1.5"])
def test_level_outside_the_unit_interval_exits_2(command, level, level_inputs, tmp_path,
                                                  capsys):
    # nan wrote invalid JSON into the metadata line and flagged nothing; a
    # level of 1 or more rejected every stratum or every draw
    out = tmp_path / "out.csv"
    assert run(level_inputs[command] + ["--level", level, "--out", str(out)]) == 2
    assert "--level must lie strictly between 0 and 1" in capsys.readouterr().err
    assert not out.exists()


def _config_echo(path):
    meta = path.read_text().splitlines()[0]
    assert meta.startswith("# exactsens ")
    return json.loads(meta.split(" ", 3)[3])


def test_size_and_sample_echo_their_full_configuration(tmp_path):
    out = tmp_path / "size.csv"
    assert run(["size", "--rows", "4,3", "--cols", "3,4", "--delta", "0,1",
                "--gamma-grid", "0.5", "--nominal", "0.05,0.5", "--out", str(out)]) == 0
    echo = _config_echo(out)
    assert (echo["nominal"], echo["delta"], echo["phi"]) == ("0.05,0.5", "0,1", None)

    p = tmp_path / "t.csv"
    p.write_text("2,3\n1,4\n")
    echoes = []
    for beta, extra in [("0,1", []), ("0,2", ["--with-exact"])]:
        out = tmp_path / f"sample{len(echoes)}.csv"
        assert run(["sample", str(p), "--test", "ordinal", "--alpha", "0,1", "--beta", beta,
                    "--delta", "0,1", "--gamma-grid", "1", "--fixed-ubar", "1,2",
                    "--iterations", "5", "--out", str(out)] + extra) == 0
        echoes.append(_config_echo(out))
    assert [(e["alpha"], e["beta"], e["with_exact"]) for e in echoes] == [
        ("0,1", "0,1", False), ("0,1", "0,2", True)]


def test_size_command(tmp_path):
    out = tmp_path / "size.csv"
    code = run([
        "size", "--rows", "20,5,10", "--cols", "10,25", "--delta", "0,0,1",
        "--alpha", "0,1,2", "--gamma-grid", "0.5", "--nominal", "0.05,0.5",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1] == "method,nominal_alpha,rate,mc_sigma"
    assert len(lines) == 6  # metadata + header + 2 methods x 2 nominal levels
    # the rates are exact, so there is no Monte Carlo error to report
    assert all(line.endswith(",0") for line in lines[2:])


def test_size_takes_a_dose_model(tmp_path):
    # the Q law holds under phi, so both columns are written
    out = tmp_path / "size.csv"
    assert run(["size", "--rows", "20,5,10", "--cols", "10,25", "--phi", "0,1,2",
                "--gamma-grid", "0.5", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    model = SensitivityModel(gamma=0.5, phi=(0.0, 1.0, 2.0))
    nominal = [v / 100 for v in range(1, 100)]
    for method, want in size_curve(Margins((20, 5, 10), (10, 25)), model, (0, 1, 2),
                                   nominal).items():
        assert [r[2] for r in rows if r[0] == method] == [format(v, ".12g") for v in want]


def test_stratified_refuses_a_bias_of_the_wrong_length(tmp_path, capsys):
    # a 2-entry delta on 3-row strata died in numpy's matmul (exit 2, numpy's words)
    strata = [{"counts": counts, "alpha": [0, 1, 2], "beta": [0, 1]}
              for counts in ([[5, 3], [4, 4], [2, 6]], [[6, 2], [3, 5], [1, 7]])]
    for bias in ({"delta": [0, 1]}, {"phi": [0, 1, 2, 3]}):
        study = tmp_path / "study.json"
        study.write_text(json.dumps({"strata": strata, "gamma": 0.0, **bias}))
        assert run(["stratified", str(study), "--gamma-grid", "0,1"]) == 2
        assert capsys.readouterr() == (
            "", "error: bias length must match the number of treatment levels\n")


def test_oracle_check_command(capsys):
    code = run(["oracle-check", "--cases", "3", "--nmax", "7"])
    assert code == 0
    assert "oracle battery passed" in capsys.readouterr().out


@pytest.mark.parametrize("args,message", [
    (["--cases", "0"], "at least one case"),
    (["--tolerance", "-1"], "non-negative"),
    (["--nmax", "3"], "4..12"),
    (["--nmax", "13"], "4..12"),
])
def test_oracle_check_refuses_vacuous_settings(capsys, args, message):
    assert run(["oracle-check", "--cases", "1", *args]) == 2
    out = capsys.readouterr()
    assert message in out.err
    assert "passed" not in out.out and "COUNTEREXAMPLE" not in out.out


@pytest.mark.parametrize("option, value", [
    ("--out", "out.csv"), ("--summary", "run.json"), ("--gamma-grid", "5"), ("--Gamma-grid", "5"),
])
def test_oracle_check_refuses_options_it_would_ignore(option, value, tmp_path, monkeypatch,
                                                      capsys):
    # the battery writes no CSV or summary and fixes its own gammas
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(["oracle-check", "--cases", "1", "--nmax", "5", option, value])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", ["pi", "ordinal", "signscore"])
def test_fixed_ubar_refuses_a_strategy(strategy, girls_csv, tmp_path, capsys):
    # --fixed-ubar evaluates one class, so a requested scan strategy would be ignored
    out = tmp_path / "out.csv"
    assert run(["analyze", girls_csv, "--test", "chi2", "--delta", "0,1,1",
                "--fixed-ubar", "1,1,1", "--strategy", strategy, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: --strategy picks the worst-case scan; --fixed-ubar runs none\n")


def test_gamma_grid_validation(girls_csv):
    assert run([
        "analyze", girls_csv, "--test", "chi2", "--delta", "0,1,1",
        "--Gamma-grid", "0.5",
    ]) == 2
    assert run([
        "analyze", girls_csv, "--test", "ordinal", "--alpha", "0,1",
        "--beta", "0,1,2", "--delta", "0,1,1",
    ]) == 2

def test_nonmonotone_scores_fall_back_to_full_scan(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("2,1\n1,2\n1,1\n")
    out = tmp_path / "o.csv"
    code = run([
        "analyze", str(p), "--test", "ordinal", "--alpha", "0,2,1",
        "--beta", "0,1", "--delta", "0,1,1", "--gamma-grid", "0.5",
        "--out", str(out),
    ])
    assert code == 0
    row = out.read_text().strip().splitlines()[2]
    scanned = int(row.split(",")[4])
    assert scanned == 5 * 5  # full per-outcome-class grid, not N + 1


@pytest.mark.parametrize("flag, value", [("--nominal", ","), ("--nominal", ""),
                                         ("--alpha", ""), ("--alpha", ",")])
def test_size_refuses_an_empty_list(flag, value, tmp_path, capsys):
    # an explicit empty list wrote a header-only CSV or fell back to the default
    out = tmp_path / "size.csv"
    assert run(["size", "--rows", "4,3", "--cols", "3,4", "--delta", "0,1",
                "--gamma-grid", "0.5", flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: empty {flag} list\n"
    assert not out.exists()


def test_out_of_memory_exits_2_with_one_line(girls_csv, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.05 GiB for an array")

    monkeypatch.setattr("exactsens.cli.worst_case_grid", exhausted)
    assert run(["analyze", girls_csv, "--test", "chi2", "--delta", "0,1,1"]) == 2
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 7.05 GiB for an array\n")


def test_out_of_memory_under_an_address_space_limit(tmp_path):
    # R of this 2 x 6 ordinal table needs 7.05 GiB, so under a 2 GiB limit its
    # allocation fails at once
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    (tmp_path / "t.csv").write_text("16,15,15,15,15,15\n15,15,15,15,15,16\n")
    src = str(Path(exactsens.__file__).resolve().parents[1])
    argv = ["analyze", "t.csv", "--test", "ordinal", "--alpha", "0,1",
            "--beta", "0,1,2,3,4,5", "--delta", "0,1", "--Gamma-grid", "1,2"]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from exactsens.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: out of memory: Unable to allocate")
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""


def test_network_last_level_fits_in_one_gib(tmp_path):
    # a 3 x 3 ordinal table at margins 100 has 13.3M tables, every one a
    # last-level edge of the column network: built for every state, they
    # exhausted a 1 GiB address space (peak 1.25 GB unrestricted); built only
    # for the states a surviving prefix reaches, they fit
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    (tmp_path / "t.csv").write_text("51,8,41\n2,59,39\n47,33,20\n")
    src = str(Path(exactsens.__file__).resolve().parents[1])
    argv = ["analyze", "t.csv", "--test", "ordinal", "--alpha", "0,1.7,2.45",
            "--beta", "0,1.25,1.4", "--delta", "0,1,1", "--Gamma-grid", "1,2"]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from exactsens.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit,
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in proc.stdout.splitlines() if not line.startswith("#")]
    assert [r[2] for r in rows[1:]] == ["0.0287795557861", "0.753688703905"]



def test_stratified_study_at_margins_100_fits_in_one_gib(tmp_path):
    # two strata at that table's margins, the table and its transpose: each
    # stratum's network, counted from its margins, is past _CHUNK_BYTES
    # alone, so each is built as a network of its own and the study fits
    # where one table does
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    table = [[51, 8, 41], [2, 59, 39], [47, 33, 20]]
    scores = {"alpha": [0, 1.7, 2.45], "beta": [0, 1.25, 1.4]}
    strata = [dict(scores, counts=table), dict(scores, counts=list(map(list, zip(*table))))]
    doc = {"strata": strata, "gamma": 0.0, "delta": [0, 1, 1]}
    (tmp_path / "study.json").write_text(json.dumps(doc))
    src = str(Path(exactsens.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from exactsens.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "stratified", "study.json", "--Gamma-grid", "1,2"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit,
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in proc.stdout.splitlines() if not line.startswith("#")]
    assert [r[2] for r in rows[1:]] == ["0.0287795557861", "0.753688703905"]


# every comma-separated flag of every command, with a valid value; of each
# pair in EITHER_OR the second is given unless the first is the flag tested
LIST_FLAGS = {
    "analyze": {"--alpha": "0,0.25,1.5", "--beta": "0,1,1.5", "--delta": "0,1,1",
                "--phi": "0,1,2", "--fixed-ubar": "0,10,3", "--gamma-grid": "0,0.5",
                "--Gamma-grid": "1,2"},
    "sample": {"--alpha": "0,0.25,1.5", "--beta": "0,1,1.5", "--delta": "0,1,1",
               "--phi": "0,1,2", "--fixed-ubar": "0,10,3", "--gamma-grid": "0.5",
               "--Gamma-grid": "2"},
    "size": {"--rows": "4,3", "--cols": "3,4", "--delta": "0,1", "--phi": "0,1",
             "--alpha": "0,1", "--nominal": "0.05,0.5", "--gamma-grid": "0.5",
             "--Gamma-grid": "2"},
    "stratified": {"--gamma-grid": "0,0.5", "--Gamma-grid": "1,2"},
    "power": {"--gamma-grid": "0,0.5", "--Gamma-grid": "1,2"},
}
EITHER_OR = {"--phi": "--delta", "--Gamma-grid": "--gamma-grid"}
# valid documents of the commands that read one
DOCUMENTS = {
    "analyze": ("table.json", {"counts": [[12, 3, 0], [18, 12, 3], [17, 25, 4]]}),
    "stratified": ("study.json", {
        "strata": [{"counts": [[2, 3, 0], [0, 1, 4], [0, 1, 4]],
                    "alpha": [0, 1, 2], "beta": [0, 1, 2]}] * 2,
        "gamma": 0.0, "delta": [0, 1, 1], "tau": 0.2}),
    "power": ("dgp.json", {
        "lambda_z": [1.0, 0.0, 0.0], "lambda_r": [1.0, 0.2, 0.0], "w": 1.0,
        "alpha_star": [0.0, 1.7, 2.45], "beta_star": [0.0, 1.25, 1.4],
        "treatment_margins": [8, 8, 8], "delta": [0, 1, 1]}),
}
DOCUMENTS["sample"] = DOCUMENTS["analyze"]


def _command(command, tmp_path, name=None, text=None):
    """The argv prefix of ``command``, its document written (the valid one by default)."""
    if command == "size":
        return ["size"]
    valid_name, valid = DOCUMENTS[command]
    path = tmp_path / (name or valid_name)
    path.write_text(json.dumps(valid) if text is None else text)
    extra = {"analyze": ["--test", "ordinal"], "power": ["--iterations", "2"],
             "sample": ["--test", "ordinal", "--iterations", "10"]}.get(command, [])
    return [command, str(path)] + extra


def _refused(argv, tmp_path, capsys):
    """Run ``argv``: it must exit 2 with one error line and write no --out file."""
    out = tmp_path / "out.csv"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert not out.exists()
    assert err.count("\n") == 1 and err.startswith("error: ")
    return err


@pytest.mark.parametrize("entry", ["doubled", "trailing", "lone"])
@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in LIST_FLAGS.items()
                                           for f in flags])
def test_every_list_flag_refuses_an_empty_entry(command, flag, entry, tmp_path, capsys):
    # an empty entry was dropped: --delta 0,1,,1 ran on (0, 1, 1) with exit 0
    given = {f: v for f, v in LIST_FLAGS[command].items() if f not in EITHER_OR}
    given.pop(EITHER_OR.get(flag), None)
    value = LIST_FLAGS[command][flag]
    given[flag] = {"doubled": value.replace(",", ",,", 1) if "," in value else f"{value},,{value}",
                   "trailing": value + ",", "lone": ","}[entry]
    argv = _command(command, tmp_path) + [a for option in given.items() for a in option]
    assert flag in _refused(argv, tmp_path, capsys)


def _with(doc, path, value):
    """A copy of ``doc`` with the entry at key path ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


ORDINAL = ["--alpha", "0,0.25,1.5", "--beta", "0,1,1.5", "--delta", "0,1,1"]


@pytest.mark.parametrize("command, path, value, field", [
    ("analyze", ["counts"], 5, "counts"),
    ("analyze", ["counts"], [1, 2], "counts row 1"),
    ("analyze", ["counts", 0, 2], None, "counts row 1"),
    ("analyze", ["counts", 1, 1], "3", "counts row 2"),
    ("analyze", ["counts", 1, 1], 3.9, "counts row 2"),
    ("analyze", ["counts", 1, 1], True, "counts row 2"),
    ("analyze", None, "12,3,0\n18,3.5,3\n17,25,4\n", "line 2"),
    ("stratified", ["strata", 1, "counts", 2, 0], 3.5, "stratum 2 counts row 3"),
    ("stratified", ["delta", 1], 1.7, "delta"),
    ("power", ["lambda_z"], "100", "lambda_z"),
    ("power", ["treatment_margins"], [8, 8, 8.5], "treatment_margins"),
], ids=["counts-scalar", "counts-flat", "cell-null", "cell-string", "cell-3.9", "cell-true",
        "csv-3.5", "study-count-3.5", "study-delta-1.7", "lambda_z-string", "margin-8.5"])
def test_documents_are_read_exactly_or_refused(command, path, value, field, tmp_path, capsys):
    # a count of 3.9 was analysed as 3 and a study delta of 1.7 as 1; a null
    # cell or a scalar where an array belongs ended in a traceback with exit 1
    if path is None:
        argv = _command(command, tmp_path, "table.csv", value)
    else:
        argv = _command(command, tmp_path, text=json.dumps(_with(DOCUMENTS[command][1], path,
                                                                 value)))
    if command == "analyze":
        argv += ORDINAL
    assert field in _refused(argv, tmp_path, capsys)


@pytest.mark.parametrize("command", LIST_FLAGS)
def test_a_gamma_whose_gamma_overflows_is_refused(command, tmp_path, capsys):
    # exp(800) overflowed with a traceback while the Gamma column was written
    args = {"analyze": ORDINAL, "sample": ORDINAL + ["--fixed-ubar", "0,10,3"],
            "size": ["--rows", "4,3", "--cols", "3,4", "--delta", "0,1"]}.get(command, [])
    err = _refused(_command(command, tmp_path) + args + ["--gamma-grid", "800"], tmp_path, capsys)
    limit = math.log(sys.float_info.max)
    assert err == f"error: gamma values must be <= log(max float) = {limit:.12g}\n"


def test_list_entries_may_carry_spaces(girls_csv, tmp_path):
    bodies = []
    for sep in (",", ", "):
        out = tmp_path / "out.csv"
        assert run(["analyze", girls_csv, "--test", "ordinal", "--alpha",
                    sep.join(["0", "0.25", "1.5"]), "--beta", sep.join(["0", "1", "1.5"]),
                    "--delta", sep.join("011"), "--Gamma-grid", sep.join("12"),
                    "--out", str(out)]) == 0
        bodies.append(out.read_text().splitlines()[1:])
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("command", ["analyze", "stratified", "size"])
def test_seed_help_says_the_seed_is_ignored(command, capsys):
    with pytest.raises(SystemExit):
        run([command, "--help"])
    assert "ignored: the command draws no random numbers" in " ".join(
        capsys.readouterr().out.split())


# written with COLUMNS=80 by the parser that added every command's arguments
HELP = Path(__file__).resolve().parent / "help"
COMMAND_ERRORS = {"invalid-command": ["bogus", "--x"], "no-command": []}


@pytest.mark.parametrize("name", ["top", "analyze", "stratified", "power", "size", "sample",
                                  "oracle-check", *COMMAND_ERRORS])
def test_help_and_command_errors_are_pinned(name, monkeypatch, capsys):
    # the parser adds arguments only to the command it runs; every help text
    # and the top-level errors still list all commands and all their options
    argv = COMMAND_ERRORS.get(name, ["--help"] if name == "top" else [name, "--help"])
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        run(argv)
    out = capsys.readouterr()
    assert exit_.value.code == (2 if name in COMMAND_ERRORS else 0)
    assert out.out + out.err == (HELP / f"{name}.txt").read_text()


@pytest.mark.parametrize("command, work", [
    ("sample", "exactsens.cli.estimate_alpha_sis"),
    ("power", "exactsens.cli.power_curve"),
    ("oracle-check", "exactsens.oracle.run_battery"),
])
def test_a_negative_seed_is_refused_by_name(command, work, tmp_path, monkeypatch, capsys):
    # numpy refused it in the first draw with "expected non-negative integer",
    # which names no flag
    def draw(*args, **kwargs):
        raise AssertionError("the command drew before the seed was refused")

    monkeypatch.setattr(work, draw)
    argv = (["oracle-check", "--cases", "1", "--nmax", "5"] if command == "oracle-check"
            else _command(command, tmp_path) + WRITERS[command])
    assert run(argv + ["--seed", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: --seed must be a non-negative integer, not -1\n")


@pytest.mark.parametrize("option", ["--out", "--summary"])
def test_an_unwritable_output_exits_2(option, girls_csv, tmp_path, monkeypatch, capsys):
    # a file in a missing directory ended in a traceback with exit 1, the
    # code that means an oracle counterexample; and it is refused before the
    # scan, which once ran all 15,744 classes first
    def scan(*args, **kwargs):
        raise AssertionError("the worst-case scan ran before the output was refused")

    monkeypatch.setattr("exactsens.cli.worst_case_grid", scan)
    target = tmp_path / "missing" / "out"
    assert run(["analyze", girls_csv, "--test", "chi2", "--delta", "0,1,1",
                option, str(target)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"


# small runs of every command that writes outputs, on the documents of _command
WRITERS = {"analyze": ORDINAL, "stratified": [], "power": [],
           "size": ["--rows", "4,3", "--cols", "3,4", "--delta", "0,1"],
           "sample": ORDINAL + ["--fixed-ubar", "0,10,3", "--iterations", "5"]}


def _files(root):
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("outputs", [
    ["--summary", "missing/s.json"],
    ["--out", "o.csv", "--summary", "missing/s.json"],
    ["--out", "missing/o.csv", "--summary", "s.json"],
    ["--out", "same.txt", "--summary", "./same.txt"],
], ids=["stdout-summary-missing", "out-summary-missing", "out-missing", "same-file"])
@pytest.mark.parametrize("command", WRITERS)
def test_outputs_are_written_all_or_nothing(command, outputs, tmp_path, monkeypatch, capsys):
    # the CSV went out before an unwritable summary was refused, and --out and
    # --summary naming one file exited 0 with the summary written over the CSV
    monkeypatch.chdir(tmp_path)
    argv = _command(command, tmp_path) + WRITERS[command] + outputs
    (tmp_path / "same.txt").write_text("kept\n")
    before = _files(tmp_path)
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
    assert _files(tmp_path) == before


@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
def test_a_failed_command_leaves_its_destinations_as_they_were(existing, girls_csv, tmp_path,
                                                                monkeypatch, capsys):
    # the destinations are opened before the work; a refusal that comes after
    # removes the files that opening created, and leaves existing ones alone
    def scan(*args, **kwargs):
        claimed.update(p.name for p in tmp_path.iterdir())
        return worst_case_grid(*args, **kwargs)

    claimed = set()
    monkeypatch.setattr("exactsens.cli.worst_case_grid", scan)
    monkeypatch.chdir(tmp_path)
    if existing:
        (tmp_path / "o.csv").write_text("kept\n")
        (tmp_path / "s.json").write_text("{}\n")
    before = _files(tmp_path)
    assert run(["analyze", girls_csv, "--test", "chi2", "--delta", "0,1,1",
                "--strategy", "signscore", "--out", "o.csv", "--summary", "s.json"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: the signscore strategy needs")
    assert {"o.csv", "s.json"} <= claimed
    assert _files(tmp_path) == before


def test_an_existing_output_is_replaced_whole(tmp_path, capsys):
    out, summary = tmp_path / "o.csv", tmp_path / "s.json"
    for path in (out, summary):
        path.write_text("x" * 10_000)
    assert run(["size", *WRITERS["size"], "--out", str(out), "--summary", str(summary)]) == 0
    assert run(["size", *WRITERS["size"], "--summary", str(tmp_path / "fresh.json")]) == 0
    assert out.read_text() == capsys.readouterr().out
    assert summary.read_text() == (tmp_path / "fresh.json").read_text()
