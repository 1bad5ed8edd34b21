"""CSV/JSON emitters shared by the solvers, the studies, and the CLI.

Every float is written as its ``repr``: the shortest text that round-trips,
so golden files are stable across runs and platforms.  Node-sized columns
(node fields, the lattice dump) get that text from ``float_texts``, which
takes the Ryu digits of a whole column from one ``orjson`` call and falls
back to ``repr`` only for the values whose ``repr`` uses another notation
(non-finite values, ``0 < |x| < 1e-4`` and ``|x| >= 1e16``).  The small row
writers (convergence, perturbation) call ``repr`` directly, so the study
commands never load ``orjson``.

CSV lines are built as plain strings (``csv_line``), not through the ``csv``
module; the fields never need quoting, so the bytes are the same.  Node
fields are written whole: the ``node_id,t,`` prefixes are formatted once
per lattice, all of a field's values are formatted by one ``float_texts``
call, and the field goes out in a single write.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np


def csv_line(fields) -> str:
    """One CSV record: the fields, ``str``-ed, joined by commas, newline-terminated.

    This is byte-identical to ``csv.writer(fh, lineterminator="\\n")`` with its
    default ``QUOTE_MINIMAL`` as long as no field contains a comma, a double
    quote, a carriage return or a newline, which would need quoting.  That
    holds for everything this package writes, here and in the node-field lines
    below: integers, fixed identifiers and ``repr`` of floats (digits, sign,
    ``.``, ``e``, ``nan``, ``inf``).
    """
    return ",".join(map(str, fields)) + "\n"


def float_texts(column) -> list[str]:
    """The ``repr`` of every value of a 1-d float64 column, as a list of str.

    One ``orjson`` call writes the shortest round-trip (Ryu) digits of the
    whole column.  They equal ``repr`` wherever ``repr`` uses positional
    notation; ``repr`` itself fills in the rest: nan and inf (which ``orjson``
    writes as ``null``), ``0 < |x| < 1e-4`` and ``|x| >= 1e16``, where
    ``repr`` switches to the ``1e-05`` / ``1e+16`` exponent form.
    """
    import orjson

    column = np.ascontiguousarray(column, dtype=np.float64)
    if column.size == 0:
        return []
    texts = orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    magnitude = np.abs(column)
    where = np.flatnonzero(~((magnitude >= 1e-4) & (magnitude < 1e16)) & (column != 0.0))
    for i, x in zip(where.tolist(), column[where].tolist()):
        texts[i] = repr(x)
    return texts


def _node_prefixes(lat) -> list[str]:
    """The ``node_id,t,`` start of every node's lines, formatted once per lattice."""
    return [f"{v},{t}," for v, t in enumerate(float_texts(lat.level_of * lat.dt))]


def _field_emitter(fh, prefixes: list[str]):
    """emit(owner, name, values): write every line of a node field in one write.

    Lines run node by node, components within a node, which is the order of
    ``values.ravel()``, so one ``float_texts`` call formats the whole field.
    A line is the four parts ``[prefix, head, text, "\n"]``.  One list of
    those parts, with the prefixes in place, is kept per component count;
    each field writes only its heads and texts into it and joins it once.
    """
    parts_of = {}

    def emit(owner, name, values):
        values = np.asarray(values, dtype=float)
        comps = values.shape[1]
        parts = parts_of.get(comps)
        if parts is None:
            parts = parts_of[comps] = [None, None, None, "\n"] * (len(prefixes) * comps)
            parts[0::4] = [p for p in prefixes for _ in range(comps)]
        parts[1::4] = [f"{owner},{name},{c}," for c in range(comps)] * len(prefixes)
        parts[2::4] = float_texts(values.ravel())
        fh.write("".join(parts))

    return emit


def _field_header(owner_column: str) -> str:
    return csv_line(["node_id", "t", owner_column, "field_name", "component_index", "value"])


def write_equilibrium_csv(eq, path) -> None:
    """One row per (node, owner, field, component): finite-market solution dump."""
    has_major = eq.has_major()
    with open(path, "w", newline="") as fh:
        fh.write(_field_header("agent_id"))
        emit = _field_emitter(fh, _node_prefixes(eq.lattice))
        for agent, g in enumerate(eq.population.agent_group.tolist()):
            owner = str(agent)
            emit(owner, "X", eq.group_field("X", g))
            emit(owner, "Y", eq.group_field("Y", g))
            emit(owner, "alpha", eq.alpha_hat[g])
            if has_major:
                emit(owner, "R", eq.group_field("R", g))
                emit(owner, "P", eq.group_field("P", g))
        emit("MAJOR", "x0", eq.x0)
        if has_major:
            emit("MAJOR", "p0", eq.major_field("p0"))
        emit("MAJOR", "beta", eq.beta_hat.values)
        emit("MAJOR", "beta_norm", eq.beta_norm.values)
        emit("PRICE", "phi", eq.price.values)


def write_mfg_csv(mf, path) -> None:
    """Population-limit dump: common mean fields plus per-atom fields."""
    with open(path, "w", newline="") as fh:
        fh.write(_field_header("atom_id"))
        emit = _field_emitter(fh, _node_prefixes(mf.lattice))
        for name in ("x0", "p0", "xbar", "ybar", "pbar", "rbar"):
            emit("MEAN", name, mf.common_field(name))
        for a in range(len(mf.classes.groups)):
            emit(str(a), "x", mf.atom_field("x", a))
            emit(str(a), "y", mf.atom_field("y", a))
        emit("MAJOR", "beta", mf.beta_norm.values)
        emit("PRICE", "phi", mf.price.values)


def equilibrium_summary(eq) -> dict:
    return {
        "clearing_residual": eq.clearing_residual,
        "diagnostics": asdict(eq.diagnostics),
        "beta_t0": [float(x) for x in eq.beta_hat.values[0]],
        "price_t0": [float(x) for x in eq.price.values[0]],
        "agents": int(eq.population.N),
        "groups": len(eq.population.groups),
    }


def mfg_summary(mf) -> dict:
    return {
        "diagnostics": asdict(mf.diagnostics),
        "beta_t0": [float(x) for x in mf.beta_norm.values[0]],
        "price_t0": [float(x) for x in mf.price.values[0]],
        "atoms": len(mf.classes.groups),
    }


def write_convergence_csv(report, path) -> None:
    floats = ("price_gap", "w2_g", "w2_rT", "int_w2_y", "int_w2_p", "epsilon_N")
    with open(path, "w", newline="") as fh:
        fh.write(csv_line(("N", "resample") + floats))
        for row in report.rows:
            fh.write(csv_line([row["N"], row["resample"]]
                              + [repr(float(row[key])) for key in floats]))


def write_perturbation_csv(report, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_line(["direction_id", "eps", "delta_J"]))
        eps = [repr(float(e)) for e in report.eps_grid]
        for d, row in enumerate(report.delta_j[:report.directions].tolist()):
            for e, val in zip(eps, row):
                fh.write(csv_line([d, e, "failed" if math.isnan(val) else repr(val)]))


def write_lattice_csv(lattice, path) -> None:
    """One row per node: id, parent, level, common increments, path probability."""
    columns = [map(str, range(lattice.num_nodes)), map(str, lattice.parent.tolist()),
               map(str, lattice.level_of.tolist())]
    columns += [float_texts(lattice.dW[:, j]) for j in range(lattice.d0)]
    columns.append(float_texts(lattice.path_prob))
    with open(path, "w", newline="") as fh:
        fh.write(csv_line(["node_id", "parent_id", "level"]
                          + [f"dW{j}" for j in range(lattice.d0)] + ["probability"]))
        fh.writelines(csv_line(row) for row in zip(*columns))


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
    """The run's config, its hash, the seed, the package versions and the wall time.

    ``scipy`` and ``orjson`` are listed when the run loaded them; importing
    them only to read a version would cost a fresh process about 0.1 s.
    """
    from . import __version__
    versions = {"marketclear": __version__, "numpy": np.__version__}
    versions.update((name, sys.modules[name].__version__) for name in ("scipy", "orjson")
                    if name in sys.modules)
    payload = {
        "config": config,
        "config_hash": config_hash(config),
        "seed": seed,
        "versions": versions,
        "wall_time_seconds": time.time() - started,
    }
    write_json(payload, Path(out_dir) / "manifest.json")
