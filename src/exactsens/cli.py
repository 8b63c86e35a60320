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
with the same config is byte-identical; both are opened before any work, and
written or neither is (a failed command removes the files it created).  Exit
codes: 0 success, 1 oracle counterexample and nothing else, 2 malformed input,
a file that cannot be read or written, or out of memory, 3 model/family
mismatch.  The exception type alone sets the code: ``main`` maps a
``SensitivityError`` to 3, any other ``ValueError`` and an ``OSError`` to 2
and a ``MemoryError`` to 2 with one ``error: out of memory: ...`` line.
Every number read from a list flag, a table CSV/JSON, a study or a power
document goes through ``tables.read_numbers``: it is read exactly as written
or refused with exit 2.
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  (argparse's gettext would import it inside main)
import math
import os
import sys
from pathlib import Path
from typing import Sequence

import exactsens
from exactsens.exactdist import ORACLE_CAP, exact_alpha, exact_alpha_grid
from exactsens.montecarlo import TILTED_PROPOSAL_NAME, estimate_alpha_permtreat, estimate_alpha_sis
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
from exactsens.tables import ContingencyTable, Margins, read_numbers
from exactsens.worstcase import worst_case_grid

DEFAULT_SEED = 20240901  # documented fixed seed for reproducible reruns

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_BAD_INPUT = 2
EXIT_MODEL_MISMATCH = 3


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _read_table(path: str) -> ContingencyTable:
    text = Path(path).read_text()
    try:
        if path.endswith(".json"):
            return ContingencyTable.from_json(text)
        return ContingencyTable.from_csv(text)
    except ValueError as exc:
        raise ValueError(f"malformed table input: {exc}") from exc


def _gamma_grid(args) -> list[float]:
    if args.gamma_grid is not None and args.Gamma_grid is not None:
        raise ValueError("give only one of --gamma-grid / --Gamma-grid")
    if args.Gamma_grid is not None:
        Gs = read_numbers(args.Gamma_grid, "--Gamma-grid", text=True)
        if not all(1.0 <= g < math.inf for g in Gs):
            raise ValueError("Gamma values must be finite and >= 1")
        return [math.log(g) for g in Gs]
    grid = list(read_numbers(args.gamma_grid if args.gamma_grid is not None else "0",
                             "--gamma-grid", text=True))
    if not all(0.0 <= g < math.inf for g in grid):
        raise ValueError("gamma values must be finite and >= 0")
    if max(grid) > (limit := math.log(sys.float_info.max)):  # Gamma = exp(gamma) is written out
        raise ValueError(f"gamma values must be <= log(max float) = {limit:.12g}")
    return grid


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:  # also refuses nan
        raise ValueError(f"--level must lie strictly between 0 and 1, not {level}")


def _check_seed(seed: int) -> None:
    if seed < 0:  # numpy refuses it, naming no flag
        raise ValueError(f"--seed must be a non-negative integer, not {seed}")


def _one_gamma(args) -> float:
    """The gamma of a command that evaluates a single model (``size``, ``sample``)."""
    grid = _gamma_grid(args)
    if len(grid) != 1:
        raise ValueError(f"{args.command} takes one gamma value, not {len(grid)}")
    return grid[0]


def _build_statistic(args, table: ContingencyTable) -> TestStatistic:
    spec = args.test
    if spec == "chi2":
        return chi2_statistic()
    if spec == "g2":
        return g2_statistic()
    if spec.startswith("cell:"):
        bad = ValueError(f"bad cell spec {spec!r}; expected cell:i,j (1-based)")
        try:
            i, j = read_numbers(spec[len("cell:"):], "--test", int, text=True)
        except ValueError:
            raise bad from None
        if i < 1 or j < 1:
            raise bad
        return cell_statistic(i - 1, j - 1)  # CLI is 1-based
    if spec == "ordinal":
        if args.alpha is None or args.beta is None:
            raise ValueError("--test ordinal needs --alpha and --beta")
        alpha = read_numbers(args.alpha, "--alpha", text=True)
        beta = read_numbers(args.beta, "--beta", text=True)
        if len(alpha) != table.I or len(beta) != table.J:
            raise ValueError("score lengths must match the table")
        try:
            return ordinal_statistic(alpha, beta)
        except ValueError:
            # non-monotone scores stay usable, at full-scan cost
            return weighted_sum_statistic(alpha, beta)
    raise ValueError(f"unknown test spec {args.test!r}")


def _model(args, I: int) -> SensitivityModel:
    if args.delta is None and args.phi is None:
        raise ValueError("a bias vector is required (--delta or --phi)")
    if args.delta is not None and args.phi is not None:
        raise ValueError("give only one of --delta / --phi")
    name, kind = ("delta", int) if args.delta is not None else ("phi", float)
    bias = read_numbers(getattr(args, name), f"--{name}", kind, text=True)
    if len(bias) != I:
        raise ValueError(f"--{name} length must match the table rows")
    return SensitivityModel(gamma=0.0, **{name: bias})


def _claim_outputs(args, created: list[str]) -> None:
    """Open ``--out`` and ``--summary`` before any work; each file it creates joins ``created``."""
    paths = [p for p in (vars(args).get("out"), vars(args).get("summary")) if p is not None]
    if len(paths) == 2 and Path(paths[0]).resolve() == Path(paths[1]).resolve():
        raise ValueError(f"--out and --summary name the same file: {paths[1]}")
    for path in paths:
        try:
            open(path, "x").close()
            created.append(path)
        except FileExistsError:
            open(path, "a").close()  # writable, and its bytes left as they are


def _write_outputs(args, lines: list[str], config: dict, **extras) -> None:
    """Write the CSV (``--out``, else stdout) and the ``--summary`` JSON that ``main`` claimed."""
    config = {"command": args.command, **config}
    echo = json.dumps(config, sort_keys=True, separators=(",", ":"))
    texts = {args.out: f"# exactsens {exactsens.__version__} {echo}\n" + "\n".join(lines) + "\n"}
    if args.summary is not None:
        payload = {**config, **extras, "version": exactsens.__version__}
        texts[args.summary] = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    for path, text in texts.items():
        if path is None:
            sys.stdout.write(text)
        else:
            Path(path).write_text(text)


# ---------------------------------------------------------------- analyze


def cmd_analyze(args) -> int:
    table = _read_table(args.table)
    stat = _build_statistic(args, table)
    model = _model(args, table.I)
    grid = _gamma_grid(args)
    if args.fixed_ubar is not None:
        if args.strategy != "auto":
            raise ValueError("--strategy picks the worst-case scan; --fixed-ubar runs none")
        ubar = ConfounderClass(read_numbers(args.fixed_ubar, "--fixed-ubar", int, text=True))
        ubar.validate_for(table.margins())
        lines = ["gamma,Gamma,pvalue,ubar"]
        ub = ";".join(str(v) for v in ubar.ubar)
        for g, p in zip(grid, exact_alpha_grid(stat, table, ubar, model, grid)):
            lines.append(f"{_fmt(g)},{_fmt(math.exp(g))},{_fmt(p)},{ub}")
        mode, strategy_used = "fixed-ubar", None
    else:
        results = worst_case_grid(stat, table, model.with_gamma(grid[0]), grid,
                                  strategy=args.strategy)
        lines = ["gamma,Gamma,worst_case_p,argmax_ubar,candidates_scanned"]
        for g, res in zip(grid, results):
            ub = ";".join(str(v) for v in res.argmax_class.ubar)
            lines.append(
                f"{_fmt(g)},{_fmt(math.exp(g))},{_fmt(res.pvalue)},{ub},{res.candidates_scanned}"
            )
        mode, strategy_used = "worst-case", results[0].strategy_used
    config = {
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
    _write_outputs(args, lines, config, strategy_used=strategy_used)
    return EXIT_OK


# ------------------------------------------------------------- stratified


def cmd_stratified(args) -> int:
    _check_level(args.level)
    study, tau = StratifiedStudy.from_json(Path(args.input).read_text())
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
        "input": args.input,
        "tau": tau,
        "gamma_grid": grid,
        "level": args.level,
    }
    _write_outputs(args, lines, config)
    return EXIT_OK


# ------------------------------------------------------------------ power


def cmd_power(args) -> int:
    _check_seed(args.seed)
    _check_level(args.level)
    try:
        cfg = {"lambda0": 0.0, "w": 1.0, "delta": [0, 1, 1],
               **json.loads(Path(args.config).read_text())}
        dgp = LogLinearDGP(
            lambda0=read_numbers([cfg["lambda0"]], "lambda0")[0],
            lambda_z=read_numbers(cfg["lambda_z"], "lambda_z"),
            lambda_r=read_numbers(cfg["lambda_r"], "lambda_r"),
            w=read_numbers([cfg["w"]], "w")[0],
            alpha_star=read_numbers(cfg["alpha_star"], "alpha_star"),
            beta_star=read_numbers(cfg["beta_star"], "beta_star"),
            treatment_margins=read_numbers(cfg["treatment_margins"], "treatment_margins", int),
        )
        delta = read_numbers(cfg["delta"], "delta", int)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed power config: {exc}") from exc
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
        "config": args.config,
        "gamma_grid": grid,
        "iterations": args.iterations,
        "seed": args.seed,
        "level": args.level,
        "suite": bool(args.suite),
    }
    variants = {name: {"strategy": c.strategy, "builds": c.builds, "skipped": c.skipped}
                for name, c in curves.items()}
    _write_outputs(args, lines, config, variants=variants)
    return EXIT_OK


# ------------------------------------------------------------------- size


def cmd_size(args) -> int:
    rows = read_numbers(args.rows, "--rows", int, text=True)
    cols = read_numbers(args.cols, "--cols", int, text=True)
    margins = Margins(rows, cols)
    model = _model(args, len(rows)).with_gamma(_one_gamma(args))
    alpha_scores = (read_numbers(args.alpha, "--alpha", text=True) if args.alpha is not None
                    else list(range(len(rows))))
    if len(alpha_scores) != len(rows):
        raise ValueError("--alpha length must match --rows")
    nominal = (read_numbers(args.nominal, "--nominal", text=True) if args.nominal is not None
               else [v / 100 for v in range(1, 100)])
    bad = [g for g in nominal if not 0.0 <= g <= 1.0]  # also catches nan
    if bad:
        raise ValueError(f"--nominal levels must lie in [0, 1], not {bad[0]}")
    lines = ["method,nominal_alpha,rate,mc_sigma"]
    for method, rates in size_curve(margins, model, alpha_scores, nominal).items():
        # the rates are exact sums over the null law, so mc_sigma is 0
        for g, r in zip(nominal, rates):
            lines.append(f"{method},{_fmt(g)},{_fmt(r)},0")
    config = {
        "rows": rows,
        "cols": cols,
        "gamma": model.gamma,
        "delta": args.delta,
        "phi": args.phi,
        "alpha": args.alpha,
        "nominal": args.nominal,
    }
    _write_outputs(args, lines, config)
    return EXIT_OK


# ----------------------------------------------------------------- sample


def cmd_sample(args) -> int:
    _check_seed(args.seed)
    table = _read_table(args.table)
    stat = _build_statistic(args, table)
    model = _model(args, table.I).with_gamma(_one_gamma(args))
    if args.iterations < 1:
        raise ValueError("--iterations must be at least 1")
    ubar = ConfounderClass(read_numbers(args.fixed_ubar, "--fixed-ubar", int, text=True))
    ubar.validate_for(table.margins())
    sis = estimate_alpha_sis(args.seed, stat, table, ubar, model, M=args.iterations)
    # permutation baseline on the equivalent subject-level data
    outcomes, u = ubar.subjects(table.margins())
    perm = estimate_alpha_permtreat(args.seed, stat, table, u, outcomes, model, M=args.iterations)
    exact_col = f",{_fmt(exact_alpha(stat, table, ubar, model))}" if args.with_exact else ""
    lines = ["iteration,sis,permtreat" + (",exact" if args.with_exact else "")]
    for i in range(args.iterations):
        lines.append(f"{i+1},{_fmt(sis.estimates[i])},{_fmt(perm.estimates[i])}" + exact_col)
    config = {
        "table": args.table,
        "test": args.test,
        "alpha": args.alpha,
        "beta": args.beta,
        "gamma": model.gamma,
        "delta": args.delta,
        "phi": args.phi,
        "fixed_ubar": args.fixed_ubar,
        "with_exact": bool(args.with_exact),
        "iterations": args.iterations,
        "seed": args.seed,
        "proposal": TILTED_PROPOSAL_NAME,
    }
    _write_outputs(args, lines, config)
    return EXIT_OK


# ----------------------------------------------------------- oracle-check


def cmd_oracle_check(args) -> int:
    from exactsens.oracle import run_battery

    _check_seed(args.seed)
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


def _add_common(p: argparse.ArgumentParser, seed_help: str | None = None) -> None:
    p.add_argument("--gamma-grid", dest="gamma_grid", default=None,
                   help="comma-separated gamma values (log odds scale)")
    p.add_argument("--Gamma-grid", dest="Gamma_grid", default=None,
                   help="comma-separated Gamma values (odds scale, >= 1)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=seed_help)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.add_argument("--summary", default=None, help="JSON summary path")


def _add_bias(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", default=None, help="binary bias vector, e.g. 0,1,1")
    p.add_argument("--phi", default=None, help="monotone dose vector")


def _add_table(p: argparse.ArgumentParser, sample: bool) -> None:
    p.add_argument("table", help="table CSV or JSON path")
    p.add_argument("--test", required=True, help="ordinal | chi2 | g2 | cell:i,j (1-based)")
    p.add_argument("--alpha", default=None, help="row scores for --test ordinal")
    p.add_argument("--beta", default=None, help="column scores for --test ordinal")
    _add_bias(p)
    fixed = "evaluate at this confounder class" + ("" if sample else " instead of maximizing")
    p.add_argument("--fixed-ubar", dest="fixed_ubar", required=sample, help=fixed)


_NO_DRAWS = "ignored: the command draws no random numbers"


def _analyze_arguments(p: argparse.ArgumentParser) -> None:
    _add_table(p, sample=False)
    p.add_argument("--strategy", default="auto", choices=["auto", "pi", "ordinal", "signscore"])
    _add_common(p, _NO_DRAWS + " (it is echoed in the CSV header)")
    p.set_defaults(fn=cmd_analyze)


def _stratified_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="stratified JSON document")
    p.add_argument("--tau", type=float, default=None,
                   help="truncation threshold (default from input or 0.2)")
    p.add_argument("--iterations", type=int, default=None,
                   help="ignored: the combined p-value is exact")
    p.add_argument("--level", type=float, default=0.05,
                   help="familywise level for closed testing")
    _add_common(p, _NO_DRAWS)
    p.set_defaults(fn=cmd_stratified)


def _power_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", help="JSON file with the DGP parameters")
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--suite", action="store_true",
                   help="run the full collapsed/cross-cut comparison suite")
    _add_common(p)
    p.set_defaults(fn=cmd_power)


def _size_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rows", required=True, help="treatment margins, e.g. 60,10,20")
    p.add_argument("--cols", required=True, help="outcome margins, e.g. 15,75")
    _add_bias(p)
    p.add_argument("--alpha", default=None, help="sign-score treatment scores")
    p.add_argument("--nominal", default=None,
                   help="comma-separated nominal levels (default 0.01..0.99)")
    _add_common(p, _NO_DRAWS)
    p.set_defaults(fn=cmd_size)


def _sample_arguments(p: argparse.ArgumentParser) -> None:
    _add_table(p, sample=True)
    p.add_argument("--iterations", type=int, default=10_000)
    p.add_argument("--with-exact", dest="with_exact", action="store_true",
                   help="append the exact p-value column")
    _add_common(p)
    p.set_defaults(fn=cmd_sample)


def _oracle_check_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nmax", type=int, default=ORACLE_CAP,
                   help=f"largest N in the battery, 4 to {ORACLE_CAP}")
    p.add_argument("--cases", type=int, default=60, help="number of seeded random instances")
    p.add_argument("--tolerance", type=float, default=1e-12)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=cmd_oracle_check)


# subcommand -> (its line in the top-level help, what adds its arguments)
_COMMANDS = {
    "analyze": ("worst-case p-values for one table", _analyze_arguments),
    "stratified": ("I x J x K analysis from JSON input", _stratified_arguments),
    "power": ("power curve under the log-linear DGP", _power_arguments),
    "size": ("exact vs normal size curves (binary outcome)", _size_arguments),
    "sample": ("sampling-estimator convergence trace", _sample_arguments),
    "oracle-check": ("kernel vs permutation equivalence battery", _oracle_check_arguments),
}


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The CLI's parser for ``argv``: only the subcommand it names gets its arguments.

    Every subcommand is created, so the top-level help and an unknown
    command's error list them all; only the one that ``argv`` runs gets its
    arguments, since each added argument costs a help formatter.  The
    top-level options take no value, so the command is the first word of
    ``argv`` that is not an option.
    """
    ap = argparse.ArgumentParser(
        prog="exactsens",
        description="Exact sensitivity analysis for contingency tables",
    )
    ap.add_argument("--version", action="version", version=exactsens.__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    named = next((a for a in argv if not a.startswith("-")), None)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name == named:
            add_arguments(p)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    created: list[str] = []
    try:
        _claim_outputs(args, created)  # an unwritable destination is refused before any work
        code, created = args.fn(args), []  # a finished command keeps what it wrote
        return code
    except SensitivityError as exc:
        code, message = EXIT_MODEL_MISMATCH, str(exc)
    except (ValueError, OSError) as exc:  # OSError: a file that cannot be read or written
        code, message = EXIT_BAD_INPUT, str(exc)
    except MemoryError as exc:
        code, message = EXIT_BAD_INPUT, f"out of memory: {exc}"
    finally:
        for path in created:  # a failed command leaves no file it created
            os.remove(path)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
