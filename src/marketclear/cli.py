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
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .errors import (AssumptionViolationError, BudgetError, MarketClearError,
                     SolverError, ValidationError)
from .finite_market import MarketContext, make_population, solve_full_equilibrium
from .mean_field import solve_mfg
from .metrics import convergence_study
from .model import check_all_assumptions
from .modelfile import load_model
from .optimality import perturbation_tests
from .runio import (equilibrium_summary, mfg_summary, write_convergence_csv,
                    write_equilibrium_csv, write_json, write_lattice_csv,
                    write_manifest, write_mfg_csv, write_perturbation_csv)
from .scenario import TimeGrid, build_lattice

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
    """Raises ``UsageError`` and keeps option defaults out of the parsed namespace.

    Every option's default, value type and choices go to ``defaults``,
    ``types`` and ``choices``, so the namespace holds only the options given
    on the command line and a config file is checked as the flags are.
    """

    def __init__(self, *args, **kwargs):
        self.defaults, self.types, self.choices = {}, {}, {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.option_strings and action.default is not argparse.SUPPRESS:
            self.defaults[action.dest] = action.default
            self.types[action.dest] = bool if action.nargs == 0 else (action.type or str)
            if action.choices is not None:
                self.choices[action.dest] = action.choices
            action.default = argparse.SUPPRESS
        return action

    def error(self, message):
        raise UsageError(message)


def _common(sp):
    sp.add_argument("--model", required=True, help="model file (text or JSON)")
    sp.add_argument("--out", default=None, help=f"output directory (default ${OUT_ENV} or ./marketclear-out)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, default=None,
                    help="accepted for compatibility; has no effect")
    sp.add_argument("--force", action="store_true", help="solve even if assumption checks fail")
    sp.add_argument("--maturity", action="store_true", help="switch the model to maturity mode")
    sp.add_argument("--config", default=None, help="JSON config supplying the same options")
    sp.add_argument("--horizon", type=float, default=1.0)
    sp.add_argument("--steps", type=int, default=8)
    sp.add_argument("--branching", type=int, choices=(2, 3), default=2)


def _solve_n_options(sp):
    sp.add_argument("--n-agents", type=int, default=None)


def _converge_options(sp):
    sp.add_argument("--n-list", default="8,16,32,64")
    sp.add_argument("--resamples", type=int, default=64)


def _verify_options(sp):
    sp.add_argument("--level", choices=["minor", "major-N", "major-mfg", "all"],
                    default="all")
    sp.add_argument("--directions", type=int, default=20)
    sp.add_argument("--n-agents", type=int, default=None)


# Each subcommand's help text and its options beyond the common ones.
_SUBCOMMANDS = {
    "check": ("run the standing-assumption checks", None),
    "solve-n": ("solve the finite-population equilibrium", _solve_n_options),
    "solve-mfg": ("solve the population-limit equilibrium", None),
    "converge": ("population-size convergence study", _converge_options),
    "verify": ("perturbation checks of the solved optima", _verify_options),
    "lattice-dump": ("write the scenario tree as CSV", None),
}


def _build_parser(command: str | None = None) -> _Parser:
    """The parser of every subcommand, or of ``command`` alone if it is one.

    A command's own parser parses its arguments as the full parser does;
    building the other subcommands would only cost time.
    """
    p = _Parser(prog="marketclear", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (text, options) in _SUBCOMMANDS.items():
        if command in _SUBCOMMANDS and name != command:
            continue
        sp = sub.add_parser(name, help=text)
        _common(sp)
        if options is not None:
            options(sp)
    p.commands = sub.choices
    return p


def _read_config(path: str, command: _Parser) -> dict:
    """A --config file: a JSON object of the command's options, checked as their flags are."""
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    try:
        config = json.loads(path.read_text())
    except OSError as exc:
        raise UsageError(f"config file {path} cannot be read: {exc.strerror}") from None
    except ValueError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise UsageError("config file must hold a JSON object")
    for key, value in config.items():
        if key not in command.types:
            raise UsageError(f"config file option {key!r} is not an option of this command")
        want = command.types[key]
        if value is None:
            continue
        ok = (int, float) if want is float else want
        if isinstance(value, bool) != (want is bool) or not isinstance(value, ok):
            raise UsageError(f"config file option {key!r} must be of type {want.__name__}, "
                             f"got {value!r}")
        if key in command.choices and value not in command.choices[key]:
            raise UsageError(f"config file option {key!r}: invalid choice: {value!r} "
                             f"(choose from {', '.join(map(str, command.choices[key]))})")
    return config


def _merge_config(args, command: _Parser) -> dict:
    """Layer: defaults < --config file < explicit flags (flags always win).

    A null config entry keeps the option's default; options whose default
    is None and that nothing sets are left out.
    """
    given = vars(args)
    name = given.pop("command")
    config = _read_config(given.pop("config"), command) if "config" in given else {}
    config = {key: value for key, value in config.items() if value is not None}
    merged = {key: value for key, value in {**command.defaults, **config, **given}.items()
              if value is not None and key != "config"}
    merged["command"] = name
    return merged


def _out_path(cfg) -> Path:
    return Path(cfg.get("out") or os.environ.get(OUT_ENV) or "marketclear-out")


def _out_dir(cfg) -> Path:
    path = _out_path(cfg)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _model(cfg):
    """The command's model, in maturity mode under --maturity, and its time grid."""
    spec = load_model(cfg["model"])
    if cfg["maturity"]:
        spec = replace(spec, maturity_mode=True)
    return spec, TimeGrid(cfg["horizon"], cfg["steps"])


def _load(cfg):
    spec, grid = _model(cfg)
    return spec, build_lattice(grid, spec.dims.d0, cfg["branching"])


def _print_price(eq_summary: dict):
    price = " ".join(repr(v) for v in eq_summary["price_t0"])
    print(f"price(t=0): {price}")
    if "clearing_residual" in eq_summary:
        print(f"clearing residual: {eq_summary['clearing_residual']!r}")


def cmd_check(cfg) -> int:
    spec, _ = _model(cfg)  # the checks read the model alone: no tree is built
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
    """Run ``solve`` on the command's market context, which --force builds unchecked.

    Returns the exit code and the result (None unless the code is ``EXIT_OK``).
    """
    spec, lattice = _load(cfg)
    try:
        result = solve(MarketContext(spec, lattice, force=cfg["force"]))
    except AssumptionViolationError as exc:
        if exc.report is None:
            raise
        print("assumption checks failed (use --force to attempt a solve anyway):")
        for failure in exc.report.failures:
            print(f"  - {failure}")
        return EXIT_ASSUMPTIONS, None
    except (SolverError, BudgetError) as exc:
        out = _out_dir(cfg)
        diagnostics = getattr(exc, "diagnostics", None)
        payload = {"error": str(exc)}
        if diagnostics is not None:
            payload["diagnostics"] = asdict(diagnostics)
        write_json(payload, out / "solver_failure.json")
        print(f"solver failure: {exc}")
        return EXIT_SOLVER, None
    return EXIT_OK, result


def cmd_solve_n(cfg) -> int:
    def solve(ctx):
        pop = make_population(ctx, N=cfg.get("n_agents"), seed=cfg["seed"])
        return solve_full_equilibrium(ctx, pop)

    code, eq = _checked_solve(cfg, solve)
    if code != EXIT_OK:
        return code
    out = _out_dir(cfg)
    write_equilibrium_csv(eq, out / "equilibrium.csv")
    summary = equilibrium_summary(eq)
    write_json(summary, out / "summary.json")
    _print_price(summary)
    return EXIT_OK


def cmd_solve_mfg(cfg) -> int:
    code, mf = _checked_solve(cfg, solve_mfg)
    if code != EXIT_OK:
        return code
    out = _out_dir(cfg)
    write_mfg_csv(mf, out / "equilibrium_mfg.csv")
    summary = mfg_summary(mf)
    write_json(summary, out / "summary.json")
    _print_price(summary)
    return EXIT_OK


def cmd_converge(cfg) -> int:
    text = cfg["n_list"]
    try:
        n_list = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError(f"--n-list must be comma-separated integers, got {text!r}") from None

    def solve(ctx):
        return convergence_study(ctx, n_list, cfg["resamples"], cfg["seed"])

    code, report = _checked_solve(cfg, solve)
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
    levels = ["minor", "major-N", "major-mfg"] if cfg["level"] == "all" else [cfg["level"]]

    def solve(ctx):
        pop = make_population(ctx, N=cfg.get("n_agents"), seed=cfg["seed"])
        return perturbation_tests(ctx, levels, directions=cfg["directions"],
                                  seed=cfg["seed"], population=pop)

    code, reports = _checked_solve(cfg, solve)
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
        argv = sys.argv[1:] if argv is None else list(argv)
        parser = _build_parser(argv[0] if argv else None)
        args = parser.parse_args(argv)
        cfg = _merge_config(args, parser.commands[args.command])
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = _COMMANDS[cfg["command"]](cfg)
    except (FileNotFoundError, UsageError, ValidationError) as exc:
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
        write_manifest(_out_dir(cfg), cfg, cfg["seed"], started)
    except OSError as exc:
        print(f"warning: could not write {_out_path(cfg) / 'manifest.json'}: {exc}",
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
