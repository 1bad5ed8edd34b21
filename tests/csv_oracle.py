"""Per-row reference writers for the CSV outputs.

One ``csv.writer`` row per record and ``repr(float(x))`` per float cell,
indexing numpy arrays one scalar at a time.  This is the plain writer the
column-wise writers in ``marketclear.runio`` must match byte for byte; it is
kept independent of them on purpose.
"""

from __future__ import annotations

import csv

import numpy as np


def _fmt(x) -> str:
    return repr(float(x))


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def field_emitter(w, lat):
    """emit(owner, name, values): one CSV row per (node, component) of a node field."""
    times = lat.level_of * lat.dt

    def emit(owner, name, values):
        for v in range(lat.num_nodes):
            for c in range(values.shape[1]):
                w.writerow([v, _fmt(times[v]), owner, name, c, _fmt(values[v, c])])

    return emit


def write_equilibrium_csv(eq, path) -> None:
    lat = eq.lattice
    pop = eq.population
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["node_id", "t", "agent_id", "field_name", "component_index", "value"])
        emit = field_emitter(w, lat)
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
    lat = mf.lattice
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["node_id", "t", "atom_id", "field_name", "component_index", "value"])
        emit = field_emitter(w, lat)
        for name in ("x0", "p0", "xbar", "ybar", "pbar", "rbar"):
            emit("MEAN", name, mf.common_field(name))
        for a in range(len(mf.classes.groups)):
            emit(str(a), "x", mf.atom_field("x", a))
            emit(str(a), "y", mf.atom_field("y", a))
        emit("MAJOR", "beta", mf.beta_norm.values)
        emit("PRICE", "phi", mf.price.values)


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


def write_lattice_csv(lattice, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["node_id", "parent_id", "level"]
                        + [f"dW{j}" for j in range(lattice.d0)]
                        + ["probability"])
        for v in range(lattice.num_nodes):
            writer.writerow([v, int(lattice.parent[v]), int(lattice.level_of[v])]
                            + [repr(float(x)) for x in lattice.dW[v]]
                            + [repr(float(lattice.path_prob[v]))])
