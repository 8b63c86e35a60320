"""Command-line surface: outputs, reproducibility, exit codes."""

import json

import pytest

from exactsens.cli import main

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
    ]:
        assert run(["analyze", str(path), "--test", test, "--delta", "0,1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
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


def test_model_family_mismatch_exits_3(girls_csv, tmp_path, capsys):
    # dose model with a permutation-invariant scan is refused
    code = run([
        "analyze", girls_csv, "--test", "chi2", "--phi", "1,2,3",
        "--gamma-grid", "0.5",
    ])
    assert code == 3
    # the normal approximation's Q law needs a binary delta
    code = run(["size", "--rows", "20,5,10", "--cols", "10,25", "--phi", "0,1,2",
                "--gamma-grid", "0.5"])
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
    assert lines[1] == "iteration,sis,snsis,permtreat,exact"
    assert len(lines) == 402
    exact = float(lines[2].split(",")[4])
    assert round(exact, 2) == 0.01


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
    assert lines[1] == "iteration,sis,snsis,permtreat"
    assert len(lines) == 52
    assert all(0.0 <= float(line.split(",")[3]) <= 1.0 for line in lines[2:])


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
