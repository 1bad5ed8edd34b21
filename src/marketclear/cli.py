"""Command-line experiment runner.

Subcommands: check, solve-n, solve-mfg, converge, verify, lattice-dump.
Exit codes: 0 success, 1 usage error, 2 failed assumptions, 3 solver failure,
4 acceptance gate not met.  Every command writes a manifest.json with the
config hash, seed, package versions, and wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .errors import (AssumptionViolationError, BudgetError, MarketClearError,
                     SolverError, ValidationError)
from .finite_market import MarketContext, make_population, solve_full_equilibrium
from .mean_field import solve_mfg
from .metrics import convergence_study
from .model import check_all_assumptions
from .modelfile import load_model
from .optimality import perturbation_test
from .runio import (equilibrium_summary, mfg_summary, write_convergence_csv,
                    write_equilibrium_csv, write_json, write_manifest,
                    write_mfg_csv, write_perturbation_csv)
from .scenario import TimeGrid, build_lattice, write_lattice_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSUMPTIONS = 2
EXIT_SOLVER = 3
EXIT_GATE = 4

OUT_ENV = "MARKETCLEAR_OUT"

SLOPE_GATE = -0.35
MIN_DJ_GATE = -1e-9
GRADIENT_GATE = 1e-6


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="marketclear", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--model", required=True, help="model file (text or JSON)")
        sp.add_argument("--out", default=None, help=f"output directory (default ${OUT_ENV} or ./marketclear-out)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="accepted for compatibility; has no effect")
        sp.add_argument("--force", action="store_true", help="solve even if assumption checks fail")
        sp.add_argument("--maturity", action="store_true", help="switch the model to maturity mode")
        sp.add_argument("--config", default=None, help="JSON config supplying the same options")
        sp.add_argument("--horizon", type=float, default=1.0)
        sp.add_argument("--steps", type=int, default=8)
        sp.add_argument("--branching", type=int, default=2)

    sp = sub.add_parser("check", help="run the standing-assumption checks")
    common(sp)

    sp = sub.add_parser("solve-n", help="solve the finite-population equilibrium")
    common(sp)
    sp.add_argument("--n-agents", type=int, default=None)

    sp = sub.add_parser("solve-mfg", help="solve the population-limit equilibrium")
    common(sp)

    sp = sub.add_parser("converge", help="population-size convergence study")
    common(sp)
    sp.add_argument("--n-list", default="8,16,32,64")
    sp.add_argument("--resamples", type=int, default=64)

    sp = sub.add_parser("verify", help="perturbation checks of the solved optima")
    common(sp)
    sp.add_argument("--level", choices=["minor", "major-N", "major-mfg", "all"],
                    default="all")
    sp.add_argument("--directions", type=int, default=20)
    sp.add_argument("--n-agents", type=int, default=None)

    sp = sub.add_parser("lattice-dump", help="write the scenario tree as CSV")
    common(sp)
    return p


def _merge_config(args) -> dict:
    """Layer: defaults < --config file < explicit flags (flags always win)."""
    config = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        config = json.loads(path.read_text())
        if not isinstance(config, dict):
            raise UsageError("config file must hold a JSON object")
    merged = dict(config)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            merged[key] = value
    merged["command"] = args.command
    return merged


def _out_path(cfg) -> Path:
    return Path(cfg.get("out") or os.environ.get(OUT_ENV) or "marketclear-out")


def _out_dir(cfg) -> Path:
    path = _out_path(cfg)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(cfg):
    spec = load_model(cfg["model"])
    if cfg.get("maturity"):
        spec = replace(spec, maturity_mode=True)
    grid = TimeGrid(cfg.get("horizon", 1.0), cfg.get("steps", 8))
    lattice = build_lattice(grid, spec.dims.d0, cfg.get("branching", 2))
    return spec, lattice


def _print_price(eq_summary: dict):
    price = " ".join(repr(v) for v in eq_summary["price_t0"])
    print(f"price(t=0): {price}")
    if "clearing_residual" in eq_summary:
        print(f"clearing residual: {eq_summary['clearing_residual']!r}")


def cmd_check(cfg) -> int:
    spec, lattice = _load(cfg)
    report = check_all_assumptions(spec)
    out = _out_dir(cfg)
    write_json(report.to_dict(), out / "assumptions.json")
    if report.all_passed:
        print("assumption checks: pass")
        return EXIT_OK
    print("assumption checks: FAIL")
    for failure in report.failures:
        print(f"  - {failure}")
    return EXIT_ASSUMPTIONS


def _checked_solve(cfg, solve):
    spec, lattice = _load(cfg)
    report = check_all_assumptions(spec)
    if not report.all_passed and not cfg.get("force"):
        print("assumption checks failed (use --force to attempt a solve anyway):")
        for failure in report.failures:
            print(f"  - {failure}")
        return EXIT_ASSUMPTIONS, None, None, None
    try:
        result = solve(spec, lattice)
    except (SolverError, BudgetError) as exc:
        out = _out_dir(cfg)
        diagnostics = getattr(exc, "diagnostics", None)
        payload = {"error": str(exc)}
        if diagnostics is not None:
            payload["diagnostics"] = diagnostics.to_dict()
        write_json(payload, out / "solver_failure.json")
        print(f"solver failure: {exc}")
        return EXIT_SOLVER, None, None, None
    return EXIT_OK, spec, lattice, result


def cmd_solve_n(cfg) -> int:
    def solve(spec, lattice):
        ctx = MarketContext(spec, lattice)
        pop = make_population(spec, ctx.atoms, N=cfg.get("n_agents") or spec.dims.N,
                              seed=cfg["seed"])
        return solve_full_equilibrium(spec, lattice, pop, ctx=ctx, check=False)

    code, spec, lattice, eq = _checked_solve(cfg, solve)
    if code != EXIT_OK:
        return code
    out = _out_dir(cfg)
    write_equilibrium_csv(eq, out / "equilibrium.csv")
    summary = equilibrium_summary(eq)
    write_json(summary, out / "summary.json")
    _print_price(summary)
    return EXIT_OK


def cmd_solve_mfg(cfg) -> int:
    def solve(spec, lattice):
        return solve_mfg(spec, lattice, check=False)

    code, spec, lattice, mf = _checked_solve(cfg, solve)
    if code != EXIT_OK:
        return code
    out = _out_dir(cfg)
    write_mfg_csv(mf, out / "equilibrium_mfg.csv")
    summary = mfg_summary(mf)
    write_json(summary, out / "summary.json")
    _print_price(summary)
    return EXIT_OK


def cmd_converge(cfg) -> int:
    def solve(spec, lattice):
        n_list = [int(tok) for tok in str(cfg.get("n_list", "8,16,32,64")).split(",")]
        return convergence_study(spec, lattice, n_list, int(cfg.get("resamples", 64)),
                                 cfg["seed"])

    code, spec, lattice, report = _checked_solve(cfg, solve)
    if code != EXIT_OK:
        return code
    out = _out_dir(cfg)
    write_convergence_csv(report, out / "convergence.csv")
    write_json(report.to_summary(), out / "summary.json")
    if report.degenerate:
        print("degenerate study: every price gap is numerically zero")
        return EXIT_OK
    print(f"fitted slope: {report.slope!r} (gate: <= {SLOPE_GATE})")
    if report.slope is None or report.slope > SLOPE_GATE:
        return EXIT_GATE
    return EXIT_OK


def cmd_verify(cfg) -> int:
    levels = (["minor", "major-N", "major-mfg"] if cfg.get("level", "all") == "all"
              else [cfg["level"]])

    def solve(spec, lattice):
        ctx = MarketContext(spec, lattice)
        pop = make_population(spec, ctx.atoms, N=cfg.get("n_agents") or spec.dims.N,
                              seed=cfg["seed"])
        reports = {}
        for level in levels:
            reports[level] = perturbation_test(
                spec, lattice, level, directions=int(cfg.get("directions", 20)),
                seed=cfg["seed"], population=pop, ctx=ctx)
        return reports

    code, spec, lattice, reports = _checked_solve(cfg, solve)
    if code != EXIT_OK:
        return code
    out = _out_dir(cfg)
    summary = {}
    ok = True
    for level, rep in reports.items():
        write_perturbation_csv(rep, out / f"perturbation_{level}.csv")
        summary[level] = rep.to_dict()
        passed = rep.min_delta_j >= MIN_DJ_GATE and rep.gradient_norm <= GRADIENT_GATE
        ok = ok and passed
        print(f"{level}: min dJ {rep.min_delta_j!r}, gradient {rep.gradient_norm!r} "
              f"-> {'pass' if passed else 'FAIL'}")
    write_json(summary, out / "summary.json")
    return EXIT_OK if ok else EXIT_GATE


def cmd_lattice_dump(cfg) -> int:
    spec, lattice = _load(cfg)
    out = _out_dir(cfg)
    write_lattice_csv(lattice, out / "lattice.csv")
    print(f"wrote {lattice.num_nodes} nodes")
    return EXIT_OK


_COMMANDS = {
    "check": cmd_check,
    "solve-n": cmd_solve_n,
    "solve-mfg": cmd_solve_mfg,
    "converge": cmd_converge,
    "verify": cmd_verify,
    "lattice-dump": cmd_lattice_dump,
}


def main(argv=None) -> int:
    started = time.time()
    try:
        args = _build_parser().parse_args(argv)
        cfg = _merge_config(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = _COMMANDS[cfg["command"]](cfg)
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssumptionViolationError as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTIONS
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MarketClearError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        write_manifest(_out_dir(cfg), cfg, cfg.get("seed", 0), started)
    except OSError as exc:
        print(f"warning: could not write {_out_path(cfg) / 'manifest.json'}: {exc}",
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
