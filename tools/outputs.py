"""Write the standard set of marketclear outputs into one directory.

    python tools/outputs.py OUT

Runs every command (check, solve-n, solve-mfg, converge, verify and
lattice-dump) on the four shipped models at small sizes, plain and with the
``--maturity`` and ``--branching 3`` variants, ``solve-n`` and
``lattice-dump`` on a tree over the node budget, which end as solver
failures, and then the benchmark's seed-1 command lines, which
``perfbench/workloads.py`` generates (it is only read).  Every command
runs in a fresh interpreter on the package in this checkout's ``src/`` and
writes into ``OUT/<name>/``; its command line (with ``OUT`` for the output
root), exit code, standard output and standard error go to
``OUT/<name>/console.txt``.

Two such trees compared by ``tools/outdiff.py`` check every command's bytes:
the same checkout run under two ``PYTHONHASHSEED`` values checks determinism
across processes, and a change against its parent checks that its outputs
held.  Exits 1 if a command ended in a traceback, 0 otherwise.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODELS = ("benchmark.model", "heterogeneous.json", "maturity.model", "two_assets.json")
# small sizes of every command; the variants add one flag each
COMMANDS = {
    "check": [],
    "solve-n": ["--steps", "4"],
    "solve-mfg": ["--steps", "4"],
    "converge": ["--steps", "3", "--n-list", "8,16,32", "--resamples", "4"],
    "verify": ["--steps", "3", "--directions", "4"],
    "lattice-dump": ["--steps", "3"],
}
VARIANTS = {"plain": [], "maturity": ["--maturity"], "branching3": ["--branching", "3"]}
# 2^26 - 1 nodes on the benchmark model's binary tree, over scenario.NODE_BUDGET
OVER_BUDGET = {"solve-n": ["--steps", "25"], "lattice-dump": ["--steps", "25"]}
BENCH_SEED = 1


def _runs(out: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every command, the benchmark's model files written under ``out``."""
    runs = []
    for model in MODELS:
        for command, sizes in COMMANDS.items():
            for variant, flags in VARIANTS.items():
                name = f"{Path(model).stem}-{command}-{variant}"
                runs.append((name, [command, "--model", f"models/{model}", *sizes, *flags,
                                    "--out", str(out / name)]))
    for command, sizes in OVER_BUDGET.items():
        name = f"benchmark-{command}-over-budget"
        runs.append((name, [command, "--model", "models/benchmark.model", *sizes,
                            "--out", str(out / name)]))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for kind in workloads.KINDS:
        name = f"perfbench-{kind}"
        filename, text = workloads.generate(kind, BENCH_SEED)
        (out / name).mkdir(parents=True)
        (out / name / filename).write_text(text)
        runs.append((name, workloads.argv(kind, "full", str(out / name / filename),
                                          str(out / name))))
    return runs


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(args[0]).resolve()
    out.mkdir(parents=True, exist_ok=False)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    crashed = []
    for name, command in _runs(out):
        proc = subprocess.run([sys.executable, "-m", "marketclear.cli", *command], cwd=ROOT,
                              env=env, capture_output=True, text=True)
        shown = " ".join(command).replace(str(out), "OUT")
        (out / name).mkdir(exist_ok=True)
        (out / name / "console.txt").write_text(
            f"$ marketclear {shown}\nexit {proc.returncode}\n--- stdout\n{proc.stdout}"
            f"--- stderr\n{proc.stderr.replace(str(out), 'OUT')}")
        if "Traceback" in proc.stderr:
            crashed.append(name)
        print(f"{name}: exit {proc.returncode}")
    if crashed:
        print(f"commands ending in a traceback: {', '.join(crashed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
