"""One workload run in a fresh interpreter, started by ``run.py``.

Set-up is ``import marketclear.cli`` plus writing the generated model files;
the worker then prints ``{"ready": true}`` so the parent can time it.  With
``--setup-only`` it stops there.  Otherwise it runs passes of the workload's
CLI commands (each once, in order) through ``marketclear.cli.main`` until the
time budget is spent, checks every output, optionally makes one traced pass,
and writes its result to ``worker.json`` in the work directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (the benchmark's own module, found through HERE)

RESIDUAL_GATE = 1e-10
SLOPE_GATE = -0.35
MIN_DJ_GATE = -1e-9
GRADIENT_GATE = 1e-6
LEVELS = ("minor", "major-N", "major-mfg")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _close(a: float, b: float, rtol: float) -> bool:
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def observed_reference(kind: str, summary: dict) -> dict:
    """The values a command kind compares with the stored reference."""
    if kind == "solve_deep":
        return {"price_t0": summary["price_t0"], "beta_t0": summary["beta_t0"]}
    if kind == "converge":
        return {"mean_price_gap": {n: v["mean_price_gap"] for n, v in summary["per_n"].items()}}
    return {"min_delta_j": {level: summary[level]["min_delta_j"] for level in LEVELS}}


def _mismatches(observed, expected, rtol, path=""):
    """Paths at which ``observed`` and ``expected`` disagree beyond ``rtol``."""
    if isinstance(expected, dict):
        out = []
        for key, value in expected.items():
            if not isinstance(observed, dict) or key not in observed:
                out.append(f"{path}{key}")
            else:
                out += _mismatches(observed[key], value, rtol, f"{path}{key}/")
        return out
    if isinstance(expected, list):
        if not isinstance(observed, list) or len(observed) != len(expected):
            return [path.rstrip("/")]
        return [m for i, (o, e) in enumerate(zip(observed, expected))
                for m in _mismatches(o, e, rtol, f"{path}{i}/")]
    return [] if _close(float(observed), float(expected), rtol) else [path.rstrip("/")]


def check_outputs(kind: str, size: str, out: Path, code: int, reference: dict | None,
                  first_hashes: dict | None) -> dict:
    """Correctness checks of one command run; every miss counts as failed ops."""
    ops = workloads.expected_ops(kind, size)
    hashes = {p.name: _sha256(p) for p in sorted(out.glob("*.csv"))}
    notes = []
    try:
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError):
        summary = None
    if code != 0:
        notes.append(f"exit code {code}")
    if summary is None:
        notes.append("no summary.json")
    differs = first_hashes is not None and hashes != first_hashes
    if differs:
        notes.append("CSV bytes differ from the first run with this seed")
    result = {"ops": ops, "failed": ops, "notes": notes, "hashes": hashes, "observed": None}
    # exit code 4 is a missed gate, which the checks below attribute to single ops
    if summary is None or code not in (0, 4) or differs:
        return result
    try:
        result["observed"] = observed_reference(kind, summary)
    except (KeyError, TypeError):
        notes.append("summary.json lacks the checked values")
        return result
    mismatched = []
    if reference is not None:
        mismatched = _mismatches(result["observed"], reference["values"], reference["rtol"])
        if mismatched:
            notes.append(f"reference mismatch at {mismatched}")
    result["failed"] = min(ops, _failed_ops(kind, size, summary, mismatched, notes))
    return result


def _failed_ops(kind, size, summary, mismatched, notes) -> int:
    if kind == "solve_deep":
        residual = summary["clearing_residual"]
        if not residual <= RESIDUAL_GATE:
            notes.append(f"clearing residual {residual!r} above {RESIDUAL_GATE}")
        return 1 if notes else 0
    if kind == "converge":
        slope = summary.get("slope")
        if summary.get("degenerate") or slope is None or slope > SLOPE_GATE:
            notes.append(f"slope {slope!r} misses the gate {SLOPE_GATE}")
            return workloads.expected_ops(kind, size)
        resamples = summary["resamples"]
        return resamples * len({m.split("/")[1] for m in mismatched})
    directions = workloads.expected_ops(kind, size) // len(LEVELS)
    failed = 0
    for level in LEVELS:
        rep = summary[level]
        gate = rep["min_delta_j"] >= MIN_DJ_GATE and rep["gradient_norm"] <= GRADIENT_GATE
        if not gate:
            notes.append(f"{level}: min dJ {rep['min_delta_j']!r}, "
                         f"gradient {rep['gradient_norm']!r} miss the gates")
        if not gate or any(m.split("/")[1] == level for m in mismatched):
            failed += directions
        else:
            if rep["failed_directions"]:
                notes.append(f"{level}: failed directions {rep['failed_directions']}")
            failed += len(rep["failed_directions"])
    return failed


def run_command(cli, argv: list[str], log) -> tuple[int, float, float]:
    """(exit code, wall seconds, process CPU seconds) of one command."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaped engine error fails the run's ops
            print(f"uncaught {type(exc).__name__}: {exc}")
            code = -1
    return code, time.perf_counter() - wall0, time.process_time() - cpu0


def blas_threads():
    """OpenBLAS thread count of the numpy build in use, or None if unknown."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--reference", default=None)
    args = p.parse_args()

    # -- set-up: what every CLI call pays ---------------------------------
    sys.path.insert(0, args.src)
    import marketclear.cli as cli
    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    parts = workloads.WORKLOADS[args.workload]
    models = {}
    for kind in parts:
        name, text = workloads.generate(kind, args.seed)
        models[kind] = work / f"{kind}-{name}"
        models[kind].write_text(text)
    print(json.dumps({"ready": True}), flush=True)
    if args.setup_only:
        return 0

    stored = json.loads(Path(args.reference).read_text()) if args.reference else None
    references, outs, argvs = {}, {}, {}
    for kind in parts:
        values = stored[args.size].get(kind) if stored else None
        if stored and stored["seed"] == args.seed and values is not None:
            references[kind] = {"values": values, "rtol": stored["rtol"]}
        outs[kind] = work / "out" / kind
        argvs[kind] = workloads.argv(kind, args.size, str(models[kind]), str(outs[kind]))
    log = io.StringIO()
    first_hashes = {}

    def run_pass():
        """Run every command of the workload once; (checks, wall s, CPU s)."""
        checks, wall, cpu = [], 0.0, 0.0
        for kind in parts:
            shutil.rmtree(outs[kind], ignore_errors=True)
            code, w, c = run_command(cli, argvs[kind], log)
            wall, cpu = wall + w, cpu + c
            check = check_outputs(kind, args.size, outs[kind], code, references.get(kind),
                                  first_hashes.get(kind))
            first_hashes.setdefault(kind, check["hashes"])
            checks.append(check)
        return checks, wall, cpu

    # -- untraced passes: end-to-end wall time and correctness --------------
    # A traced run keeps room for its traced pass; an untraced run makes at
    # least two, so the byte-identity check always has a pair to compare.
    started = time.perf_counter()
    reserve, minimum = (2, 1) if args.trace else (1, 2)
    walls, cpus, checks = [], [], []
    peak_rss_mb = None
    while True:
        pass_checks, wall, cpu = run_pass()
        walls.append(wall)
        cpus.append(cpu)
        checks += pass_checks
        if peak_rss_mb is None:
            # A user runs one command per process, so the peak is taken after
            # the first pass; later passes add allocator fragmentation that
            # depends on thread timing.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - started
        if len(walls) >= minimum and elapsed + reserve * wall > args.seconds:
            break
    # the first pass warms caches and lazy imports; it is checked, not timed
    warm = 1 if len(walls) > 2 else 0

    # -- traced pass: per-layer metrics ---------------------------------------
    layers, absent_spans, spans = None, [], []
    if args.trace:
        import tracer
        run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
        tr = tracer.Tracer(run_id)
        tr.install()
        try:
            pass_checks, _, _ = run_pass()
        finally:
            tr.uninstall()
        checks += pass_checks
        out_bytes = sum(f.stat().st_size for out in outs.values() if out.is_dir()
                        for f in out.iterdir())
        spans, absent_spans = tr.spans, tr.absent
        layers = tracer.layer_metrics(spans, untraced_wall=statistics.median(walls[warm:]),
                                      untraced_cpu=statistics.median(cpus[warm:]),
                                      out_bytes=out_bytes)
        with open(work / "spans.json", "w") as fh:
            json.dump({"run_id": run_id, "absent": absent_spans, "spans": spans}, fh)

    import numpy
    import scipy
    info = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "argv": {kind: ["marketclear"] + argvs[kind] for kind in parts},
        "model_sha256": {kind: _sha256(models[kind]) for kind in parts},
        "sizes": {kind: workloads.derived_sizes(kind, args.size) for kind in parts},
        "iterations": len(walls), "walls_s": walls, "cpus_s": cpus,
        "outputs_sha256": first_hashes,
        "reference_checked": sorted(references),
        "observed_reference": {kind: c["observed"] for kind, c in zip(parts, checks)},
        "check_notes": [c["notes"] for c in checks],
        "environment": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                        "numpy": numpy.__version__, "scipy": scipy.__version__,
                        "blas_threads": blas_threads(),
                        "command_threads": workloads.threads()},
        "absent_spans": absent_spans,
        "layers": layers,
    }
    (work / "command.log").write_text(log.getvalue())
    shutil.rmtree(work / "out", ignore_errors=True)
    result = {"ops": sum(c["ops"] for c in checks),
              "failed_ops": sum(c["failed"] for c in checks),
              "wall_s": statistics.median(walls[warm:]), "peak_rss_mb": peak_rss_mb,
              "info": info}
    (work / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
