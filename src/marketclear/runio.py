"""CSV/JSON emitters shared by the solvers, the studies, and the CLI.

Floats are written with repr(), the shortest representation that round-trips,
so golden files are stable across runs and platforms.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from pathlib import Path

import numpy as np


def _fmt(x) -> str:
    return repr(float(x))


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def _field_emitter(w, lat):
    """emit(owner, name, values): one CSV row per (node, component) of a node field."""
    times = lat.level_of * lat.dt

    def emit(owner, name, values):
        for v in range(lat.num_nodes):
            for c in range(values.shape[1]):
                w.writerow([v, _fmt(times[v]), owner, name, c, _fmt(values[v, c])])

    return emit


def write_equilibrium_csv(eq, path) -> None:
    """One row per (node, owner, field, component): finite-market solution dump."""
    lat = eq.lattice
    pop = eq.population
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["node_id", "t", "agent_id", "field_name", "component_index", "value"])
        emit = _field_emitter(w, lat)
        has_major = eq.has_major()
        for agent, g in enumerate(pop.agent_group):
            g = int(g)
            emit(str(agent), "X", eq.group_field("X", g))
            emit(str(agent), "Y", eq.group_field("Y", g))
            emit(str(agent), "alpha", eq.alpha_hat[g])
            if has_major:
                emit(str(agent), "R", eq.group_field("R", g))
                emit(str(agent), "P", eq.group_field("P", g))
        x0 = eq.major_field("x0")
        if x0 is not None:
            emit("MAJOR", "x0", x0)
        if has_major:
            emit("MAJOR", "p0", eq.major_field("p0"))
        emit("MAJOR", "beta", eq.beta_hat.values)
        emit("MAJOR", "beta_norm", eq.beta_norm.values)
        emit("PRICE", "phi", eq.price.values)


def write_mfg_csv(mf, path) -> None:
    """Population-limit dump: common mean fields plus per-atom fields."""
    lat = mf.lattice
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["node_id", "t", "atom_id", "field_name", "component_index", "value"])
        emit = _field_emitter(w, lat)
        for name in ("x0", "p0", "xbar", "ybar", "pbar", "rbar"):
            emit("MEAN", name, mf.common_field(name))
        for a in range(mf.ctx.atoms.count):
            emit(str(a), "x", mf.atom_field("x", a))
            emit(str(a), "y", mf.atom_field("y", a))
        emit("MAJOR", "beta", mf.beta_hat.values)
        emit("PRICE", "phi", mf.price_mfg.values)


def equilibrium_summary(eq) -> dict:
    return {
        "clearing_residual": eq.clearing_residual,
        "diagnostics": eq.diagnostics.to_dict(),
        "beta_t0": [float(x) for x in eq.beta_hat.values[0]],
        "price_t0": [float(x) for x in eq.price.values[0]],
        "agents": int(eq.population.N),
        "groups": len(eq.population.groups),
    }


def mfg_summary(mf) -> dict:
    return {
        "diagnostics": mf.diagnostics.to_dict(),
        "beta_t0": [float(x) for x in mf.beta_hat.values[0]],
        "price_t0": [float(x) for x in mf.price_mfg.values[0]],
        "atoms": int(mf.ctx.atoms.count),
    }


def write_convergence_csv(report, path) -> None:
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["N", "resample", "price_gap", "w2_g", "w2_rT",
                    "int_w2_y", "int_w2_p", "epsilon_N"])
        for row in report.rows:
            w.writerow([row["N"], row["resample"], _fmt(row["price_gap"]),
                        _fmt(row["w2_g"]), _fmt(row["w2_rT"]),
                        _fmt(row["int_w2_y"]), _fmt(row["int_w2_p"]),
                        _fmt(row["epsilon_N"])])


def write_perturbation_csv(report, path) -> None:
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["direction_id", "eps", "delta_J"])
        for d in range(report.directions):
            for j, e in enumerate(report.eps_grid):
                val = report.delta_j[d, j]
                w.writerow([d, _fmt(e), "failed" if np.isnan(val) else _fmt(val)])


def write_json(payload: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonify)
        fh.write("\n")


def _jsonify(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, default=_jsonify)
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_manifest(out_dir, config: dict, seed: int, started: float) -> None:
    import scipy

    from . import __version__
    payload = {
        "config": config,
        "config_hash": config_hash(config),
        "seed": seed,
        "versions": {
            "marketclear": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "wall_time_seconds": time.time() - started,
    }
    write_json(payload, Path(out_dir) / "manifest.json")
