"""Command-line surface for table analysis, simulations, and the oracle battery.

Subcommands:

* ``analyze``     worst-case p-values for one table over a Gamma grid
                  (or fixed-class p-values via --fixed-ubar)
* ``stratified``  per-stratum worst cases, truncated-product combination,
                  closed-testing flags over a Gamma grid
* ``power``       rejection-rate curve under the log-linear DGP
* ``size``        exact vs normal rejection curves under the adversarial null
* ``sample``      convergence trace of the sampling estimators
* ``oracle-check`` kernel vs brute-force equivalence battery

Outputs are CSV (probabilities printed with 12 significant digits) plus a
JSON summary embedding the full configuration and package version, so a rerun
with the same config is byte-identical.  Exit codes: 0 success, 1 oracle
counterexample, 2 malformed input, 3 model/family mismatch; ``main`` maps a
``SensitivityError`` to 3 and any other ``ValueError`` to 2.
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  (argparse's gettext would import it inside main)
import math
import sys
from pathlib import Path

import exactsens
from exactsens.exactdist import ORACLE_CAP, exact_alpha, exact_alpha_grid
from exactsens.montecarlo import (
    TILTED_PROPOSAL_NAME,
    estimate_alpha_permtreat,
    estimate_alpha_sis_pair,
)
from exactsens.sensmodel import ConfounderClass, SensitivityError, SensitivityModel
from exactsens.simulate import (
    LogLinearDGP,
    PowerTestSpec,
    power_curve,
    size_curve,
    standard_test_suite,
)
from exactsens.stats import (
    TestStatistic,
    cell_statistic,
    chi2_statistic,
    g2_statistic,
    ordinal_statistic,
    weighted_sum_statistic,
)
from exactsens.stratified import StratifiedStudy, analyze_study_grid
from exactsens.tables import ContingencyTable, Margins
from exactsens.worstcase import worst_case_grid

DEFAULT_SEED = 20240901  # documented fixed seed for reproducible reruns

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_BAD_INPUT = 2
EXIT_MODEL_MISMATCH = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _read_table(path: str) -> ContingencyTable:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_BAD_INPUT) from exc
    try:
        if path.endswith(".json"):
            return ContingencyTable.from_json(text)
        return ContingencyTable.from_csv(text)
    except (ValueError, json.JSONDecodeError) as exc:
        raise CliError(f"malformed table input: {exc}", EXIT_BAD_INPUT) from exc


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise CliError(f"bad numeric list {text!r}", EXIT_BAD_INPUT) from exc


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise CliError(f"bad integer list {text!r}", EXIT_BAD_INPUT) from exc


def _gamma_grid(args) -> list[float]:
    if args.gamma_grid is not None and args.Gamma_grid is not None:
        raise CliError("give only one of --gamma-grid / --Gamma-grid", EXIT_BAD_INPUT)
    if args.gamma_grid is not None:
        grid = _parse_floats(args.gamma_grid)
    elif args.Gamma_grid is not None:
        Gs = _parse_floats(args.Gamma_grid)
        if not all(1.0 <= g < math.inf for g in Gs):
            raise CliError("Gamma values must be finite and >= 1", EXIT_BAD_INPUT)
        grid = [math.log(g) for g in Gs]
    else:
        grid = [0.0]
    if not grid:
        raise CliError("empty gamma grid", EXIT_BAD_INPUT)
    if not all(0.0 <= g < math.inf for g in grid):
        raise CliError("gamma values must be finite and >= 0", EXIT_BAD_INPUT)
    return grid


def _one_gamma(args) -> float:
    """The gamma of a command that evaluates a single model (``size``, ``sample``)."""
    grid = _gamma_grid(args)
    if len(grid) != 1:
        raise CliError(f"{args.command} takes one gamma value, not {len(grid)}", EXIT_BAD_INPUT)
    return grid[0]


def _build_statistic(args, table: ContingencyTable) -> TestStatistic:
    spec = args.test
    if spec == "chi2":
        return chi2_statistic()
    if spec == "g2":
        return g2_statistic()
    if spec.startswith("cell:"):
        i, j = (int(v) for v in spec[len("cell:"):].split(","))
        return cell_statistic(i - 1, j - 1)  # CLI is 1-based
    if spec == "ordinal":
        if args.alpha is None or args.beta is None:
            raise CliError("--test ordinal needs --alpha and --beta", EXIT_BAD_INPUT)
        alpha = _parse_floats(args.alpha)
        beta = _parse_floats(args.beta)
        if len(alpha) != table.I or len(beta) != table.J:
            raise CliError("score lengths must match the table", EXIT_BAD_INPUT)
        try:
            return ordinal_statistic(alpha, beta)
        except ValueError:
            # non-monotone scores stay usable, at full-scan cost
            return weighted_sum_statistic(alpha, beta)
    raise CliError(f"unknown test spec {args.test!r}", EXIT_BAD_INPUT)


def _model(args, I: int) -> SensitivityModel:
    if args.delta is None and args.phi is None:
        raise CliError("a bias vector is required (--delta or --phi)", EXIT_BAD_INPUT)
    if args.delta is not None and args.phi is not None:
        raise CliError("give only one of --delta / --phi", EXIT_BAD_INPUT)
    if args.delta is not None:
        delta = _parse_ints(args.delta)
        if len(delta) != I:
            raise CliError("--delta length must match the table rows", EXIT_BAD_INPUT)
        return SensitivityModel(gamma=0.0, delta=tuple(delta))
    phi = _parse_floats(args.phi)
    if len(phi) != I:
        raise CliError("--phi length must match the table rows", EXIT_BAD_INPUT)
    return SensitivityModel(gamma=0.0, phi=tuple(phi))


def _write_csv(path: str | None, lines: list[str], config: dict) -> None:
    """CSV output with a leading metadata comment: config echo + version."""
    echo = json.dumps(config, sort_keys=True, separators=(",", ":"))
    text = f"# exactsens {exactsens.__version__} {echo}\n" + "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _summary(path: str | None, payload: dict) -> None:
    payload = dict(payload)
    payload["version"] = exactsens.__version__
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        return
    Path(path).write_text(text)


# ---------------------------------------------------------------- analyze


def cmd_analyze(args) -> int:
    table = _read_table(args.table)
    stat = _build_statistic(args, table)
    model = _model(args, table.I)
    grid = _gamma_grid(args)
    lines = []
    if args.fixed_ubar is not None:
        ubar = ConfounderClass(tuple(_parse_ints(args.fixed_ubar)))
        ubar.validate_for(table.margins())
        lines.append("gamma,Gamma,pvalue,ubar")
        ub = ";".join(str(v) for v in ubar.ubar)
        for g, p in zip(grid, exact_alpha_grid(stat, table, ubar, model, grid)):
            lines.append(f"{_fmt(g)},{_fmt(math.exp(g))},{_fmt(p)},{ub}")
        mode = "fixed-ubar"
    else:
        results = worst_case_grid(stat, table, model.with_gamma(grid[0]), grid,
                                  strategy=args.strategy)
        lines.append("gamma,Gamma,worst_case_p,argmax_ubar,candidates_scanned")
        for g, res in zip(grid, results):
            ub = ";".join(str(v) for v in res.argmax_class.ubar)
            lines.append(
                f"{_fmt(g)},{_fmt(math.exp(g))},{_fmt(res.pvalue)},{ub},{res.candidates_scanned}"
            )
        mode = "worst-case"
    config = {
        "command": "analyze",
        "mode": mode,
        "table": args.table,
        "test": args.test,
        "alpha": args.alpha,
        "beta": args.beta,
        "delta": args.delta,
        "phi": args.phi,
        "gamma_grid": grid,
        "strategy": args.strategy,
        "fixed_ubar": args.fixed_ubar,
        "seed": args.seed,
    }
    _write_csv(args.out, lines, config)
    _summary(args.summary, config)
    return EXIT_OK


# ------------------------------------------------------------- stratified


def cmd_stratified(args) -> int:
    try:
        study, tau = StratifiedStudy.from_json(Path(args.input).read_text())
    except OSError as exc:
        raise CliError(f"cannot read {args.input}: {exc}", EXIT_BAD_INPUT) from exc
    if args.tau is not None:
        tau = args.tau
    grid = _gamma_grid(args)
    lines = ["gamma,Gamma," + ",".join(f"p_{k+1}" for k in range(study.K))
             + ",W,combined_p," + ",".join(f"reject_{k+1}" for k in range(study.K))]
    for g, res in zip(grid, analyze_study_grid(study, grid, tau, args.level)):
        lines.append(
            f"{_fmt(g)},{_fmt(math.exp(g))},"
            + ",".join(_fmt(p) for p in res.per_stratum_p)
            + f",{_fmt(res.W)},{_fmt(res.combined_p)},"
            + ",".join(str(int(f)) for f in res.closed_testing_rejections)
        )
    config = {
        "command": "stratified",
        "input": args.input,
        "tau": tau,
        "gamma_grid": grid,
        "level": args.level,
    }
    _write_csv(args.out, lines, config)
    _summary(args.summary, config)
    return EXIT_OK


# ------------------------------------------------------------------ power


def cmd_power(args) -> int:
    try:
        cfg = json.loads(Path(args.config).read_text())
        dgp = LogLinearDGP(
            lambda0=float(cfg.get("lambda0", 0.0)),
            lambda_z=tuple(cfg["lambda_z"]),
            lambda_r=tuple(cfg["lambda_r"]),
            w=float(cfg.get("w", 1.0)),
            alpha_star=tuple(cfg["alpha_star"]),
            beta_star=tuple(cfg["beta_star"]),
            treatment_margins=tuple(cfg["treatment_margins"]),
        )
        delta = tuple(cfg.get("delta", (0, 1, 1)))
    except OSError as exc:
        raise CliError(f"cannot read {args.config}: {exc}", EXIT_BAD_INPUT) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed power config: {exc}", EXIT_BAD_INPUT) from exc
    grid = _gamma_grid(args)
    if args.suite:
        specs = standard_test_suite(dgp.alpha_star, dgp.beta_star, delta)
    else:
        specs = [PowerTestSpec("3x3-opt", dgp.alpha_star, dgp.beta_star, delta)]
    curves = power_curve(args.seed, dgp, specs, grid, args.iterations, args.level)
    lines = ["test,gamma,Gamma,rate,mc_sigma"]
    for name, curve in curves.items():
        for g, r, s in zip(curve.grid, curve.rates, curve.mc_sigma):
            lines.append(f"{name},{_fmt(g)},{_fmt(math.exp(g))},{_fmt(r)},{_fmt(s)}")
    config = {
        "command": "power",
        "config": args.config,
        "gamma_grid": grid,
        "iterations": args.iterations,
        "seed": args.seed,
        "level": args.level,
        "suite": bool(args.suite),
    }
    _write_csv(args.out, lines, config)
    _summary(args.summary, config)
    return EXIT_OK


# ------------------------------------------------------------------- size


def cmd_size(args) -> int:
    rows = _parse_ints(args.rows)
    cols = _parse_ints(args.cols)
    margins = Margins(tuple(rows), tuple(cols))
    model = _model(args, len(rows)).with_gamma(_one_gamma(args))
    alpha_scores = _parse_floats(args.alpha) if args.alpha else list(range(len(rows)))
    if len(alpha_scores) != len(rows):
        raise CliError("--alpha length must match --rows", EXIT_BAD_INPUT)
    nominal = _parse_floats(args.nominal) if args.nominal else [v / 100 for v in range(1, 100)]
    lines = ["method,nominal_alpha,rate,mc_sigma"]
    for method in ("exact", "normal"):
        rates = size_curve(margins, model, alpha_scores, nominal, method)
        # the rates are exact sums over the null law, so mc_sigma is 0
        for g, r in zip(nominal, rates):
            lines.append(f"{method},{_fmt(g)},{_fmt(r)},0")
    config = {
        "command": "size",
        "rows": rows,
        "cols": cols,
        "gamma": model.gamma,
        "delta": args.delta,
        "alpha": args.alpha,
    }
    _write_csv(args.out, lines, config)
    _summary(args.summary, config)
    return EXIT_OK


# ----------------------------------------------------------------- sample


def cmd_sample(args) -> int:
    table = _read_table(args.table)
    stat = _build_statistic(args, table)
    model = _model(args, table.I).with_gamma(_one_gamma(args))
    if args.fixed_ubar is None:
        raise CliError("sample requires --fixed-ubar", EXIT_BAD_INPUT)
    if args.iterations < 1:
        raise CliError("--iterations must be at least 1", EXIT_BAD_INPUT)
    ubar = ConfounderClass(tuple(_parse_ints(args.fixed_ubar)))
    ubar.validate_for(table.margins())
    sis, snsis = estimate_alpha_sis_pair(args.seed, stat, table, ubar, model, M=args.iterations)
    # permutation baseline on the equivalent subject-level data
    outcomes, u = ubar.subjects(table.margins())
    perm = estimate_alpha_permtreat(args.seed, stat, table, u, outcomes, model, M=args.iterations)
    exact_col = ""
    if args.with_exact:
        p = exact_alpha(stat, table, ubar, model)
        exact_col = f",{_fmt(p)}"
    lines = ["iteration,sis,snsis,permtreat" + (",exact" if args.with_exact else "")]
    for i in range(args.iterations):
        lines.append(
            f"{i+1},{_fmt(sis.estimates[i])},{_fmt(snsis.estimates[i])},"
            f"{_fmt(perm.estimates[i])}" + exact_col
        )
    config = {
        "command": "sample",
        "table": args.table,
        "test": args.test,
        "gamma": model.gamma,
        "delta": args.delta,
        "fixed_ubar": args.fixed_ubar,
        "iterations": args.iterations,
        "seed": args.seed,
        "proposal": TILTED_PROPOSAL_NAME,
    }
    _write_csv(args.out, lines, config)
    _summary(args.summary, config)
    return EXIT_OK


# ----------------------------------------------------------- oracle-check


def cmd_oracle_check(args) -> int:
    from exactsens.oracle import run_battery

    report = run_battery(
        seed=args.seed,
        max_n=args.nmax,
        cases=args.cases,
        tolerance=args.tolerance,
    )
    for line in report.lines:
        print(line)
    if report.counterexample is not None:
        print("FIRST COUNTEREXAMPLE:")
        print(json.dumps(report.counterexample, indent=2))
        return EXIT_COUNTEREXAMPLE
    print(f"oracle battery passed: {report.checked} comparisons, "
          f"max relative error {report.max_rel:.3e}")
    return EXIT_OK


# ------------------------------------------------------------------- main


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma-grid", dest="gamma_grid", default=None,
                   help="comma-separated gamma values (log odds scale)")
    p.add_argument("--Gamma-grid", dest="Gamma_grid", default=None,
                   help="comma-separated Gamma values (odds scale, >= 1)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.add_argument("--summary", default=None, help="JSON summary path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="exactsens",
        description="Exact sensitivity analysis for contingency tables",
    )
    ap.add_argument("--version", action="version", version=exactsens.__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="worst-case p-values for one table")
    pa.add_argument("table", help="table CSV or JSON path")
    pa.add_argument("--test", required=True,
                    help="ordinal | chi2 | g2 | cell:i,j (1-based)")
    pa.add_argument("--alpha", default=None, help="row scores for --test ordinal")
    pa.add_argument("--beta", default=None, help="column scores for --test ordinal")
    pa.add_argument("--delta", default=None, help="binary bias vector, e.g. 0,1,1")
    pa.add_argument("--phi", default=None, help="monotone dose vector")
    pa.add_argument("--strategy", default="auto",
                    choices=["auto", "pi", "ordinal", "signscore"])
    pa.add_argument("--fixed-ubar", dest="fixed_ubar", default=None,
                    help="evaluate at this confounder class instead of maximizing")
    _add_common(pa)
    pa.set_defaults(fn=cmd_analyze)

    ps = sub.add_parser("stratified", help="I x J x K analysis from JSON input")
    ps.add_argument("input", help="stratified JSON document")
    ps.add_argument("--tau", type=float, default=None,
                    help="truncation threshold (default from input or 0.2)")
    ps.add_argument("--iterations", type=int, default=None,
                    help="ignored: the combined p-value is exact")
    ps.add_argument("--level", type=float, default=0.05,
                    help="familywise level for closed testing")
    _add_common(ps)
    ps.set_defaults(fn=cmd_stratified)

    pp = sub.add_parser("power", help="power curve under the log-linear DGP")
    pp.add_argument("config", help="JSON file with the DGP parameters")
    pp.add_argument("--iterations", type=int, default=1000)
    pp.add_argument("--level", type=float, default=0.05)
    pp.add_argument("--suite", action="store_true",
                    help="run the full collapsed/cross-cut comparison suite")
    _add_common(pp)
    pp.set_defaults(fn=cmd_power)

    pz = sub.add_parser("size", help="exact vs normal size curves (binary outcome)")
    pz.add_argument("--rows", required=True, help="treatment margins, e.g. 60,10,20")
    pz.add_argument("--cols", required=True, help="outcome margins, e.g. 15,75")
    pz.add_argument("--delta", default=None)
    pz.add_argument("--phi", default=None)
    pz.add_argument("--alpha", default=None, help="sign-score treatment scores")
    pz.add_argument("--nominal", default=None,
                    help="comma-separated nominal levels (default 0.01..0.99)")
    _add_common(pz)
    pz.set_defaults(fn=cmd_size)

    pm = sub.add_parser("sample", help="sampling-estimator convergence trace")
    pm.add_argument("table")
    pm.add_argument("--test", required=True)
    pm.add_argument("--alpha", default=None)
    pm.add_argument("--beta", default=None)
    pm.add_argument("--delta", default=None)
    pm.add_argument("--phi", default=None)
    pm.add_argument("--fixed-ubar", dest="fixed_ubar", required=True)
    pm.add_argument("--iterations", type=int, default=10_000)
    pm.add_argument("--with-exact", dest="with_exact", action="store_true",
                    help="append the exact p-value column")
    _add_common(pm)
    pm.set_defaults(fn=cmd_sample)

    po = sub.add_parser("oracle-check", help="kernel vs permutation equivalence battery")
    po.add_argument("--nmax", type=int, default=ORACLE_CAP,
                    help=f"largest N in the battery, 4 to {ORACLE_CAP}")
    po.add_argument("--cases", type=int, default=60,
                    help="number of seeded random instances")
    po.add_argument("--tolerance", type=float, default=1e-12)
    _add_common(po)
    po.set_defaults(fn=cmd_oracle_check)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        code, message = exc.code, str(exc)
    except SensitivityError as exc:
        code, message = EXIT_MODEL_MISMATCH, str(exc)
    except ValueError as exc:
        code, message = EXIT_BAD_INPUT, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
