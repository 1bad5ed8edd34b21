"""marketclear benchmark: one seeded CLI workload per run.

    python3 perfbench/run.py --workload solve_deep --seed 1 --seconds 55 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory.  ``--trace 0`` reports the end-to-end metrics (setup_s,
wall_s, peak_rss_mb); ``--trace 1`` adds one traced pass and reports the
per-layer metrics.  The last line of standard output is the JSON result;
the lines before it list every metric and every correctness check.  Details,
spans and the command log go to ``perfbench/.work/``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5   # set-ups timed per untraced run, the workload process included
TIME_LIMIT_S = 170  # a run must end within 180 s; workers still running are stopped
READY = b'{"ready": true}'
# One BLAS thread per worker: with the command's own threads, more would
# outnumber the CPUs of a small host and time the scheduler, not the program.
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}


class BenchError(Exception):
    pass


def _run_worker(args, workdir: Path, setup_only: bool, deadline: float) -> float:
    """Run one worker to its end and return its set-up time.

    Set-up is timed from process start to the worker's ready line.  The
    worker is stopped if it outlives ``deadline`` (a ``time.monotonic``
    value); it is never left running.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(ROOT / "src"),
           "--workdir", str(workdir), "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.reference:
        cmd += ["--reference", str(Path(args.reference).resolve())]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, env={**os.environ, **BLAS_ENV})
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - started
        if line.strip() != READY:
            raise BenchError("worker failed or stalled during set-up")
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the time limit and was stopped")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return setup


def measure(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = HERE / ".work" / f"{args.workload}-{args.size}-s{args.seed}-t{args.trace}"
    (workdir / "worker.json").unlink(missing_ok=True)
    setups = []
    if not args.trace:
        # the first start in a checkout compiles bytecode; it is not timed
        for i in range(SETUP_SAMPLES):
            setup = _run_worker(args, workdir, True, deadline)
            if i:
                setups.append(setup)
    setups.append(_run_worker(args, workdir, False, deadline))
    try:
        result = json.loads((workdir / "worker.json").read_text())
    except (OSError, ValueError):
        raise BenchError("worker wrote no result")
    result["setups_s"] = setups
    (workdir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def report(args, result) -> dict:
    """Print every metric and check; return the result line."""
    info = result["info"]
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
    for kind, argv in info["argv"].items():
        print(f"  command: {' '.join(argv)}")
        print(f"    model sha256 {info['model_sha256'][kind]}  "
              f"sizes {json.dumps(info['sizes'][kind])}")
    print(f"  environment {json.dumps(info['environment'])}")
    print(f"  outputs sha256 {json.dumps(info['outputs_sha256'])}")
    print(f"  reference checked for: {', '.join(info['reference_checked']) or 'none'}")
    notes = info["check_notes"]
    print(f"  checks: {sum(not n for n in notes)} of {len(notes)} command runs pass")
    for i, run_notes in enumerate(notes, start=1):
        if run_notes:
            print(f"  check of run {i}: FAIL {'; '.join(run_notes)}")
    print(f"  ops {result['ops']}, failed {result['failed_ops']}")
    if args.trace:
        metrics = {}
        for name, value in info["layers"].items():
            unit = tracer.COMMON.get(name) or tracer.WORKLOAD_SPECIFIC[name]
            print(f"  {name} = {'absent' if value is None else value} {unit}")
            if name in tracer.COMMON:
                metrics[name] = {"value": 0 if value is None else value, "unit": unit}
        if info["absent_spans"]:
            print(f"  absent spans: {', '.join(info['absent_spans'])}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(result["setups_s"]), "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print(f"  setup samples {result['setups_s']}")
        print(f"  pass wall times {info['walls_s']}")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']} {m['unit']}")
    return {"correct": result["failed_ops"] == 0, "attempted": result["ops"],
            "failed": result["failed_ops"], "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--size", default="full", choices=sorted(workloads.SIZES),
                   help="'tiny' is for the smoke test")
    p.add_argument("--reference", default=str(HERE / "reference.json"),
                   help="reference values for the default seed")
    args = p.parse_args()
    # turn SIGTERM into SystemExit, so the cleanup in _finish stops the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "marketclear" / "__init__.py").is_file():
        print(f"no marketclear sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(report(args, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
