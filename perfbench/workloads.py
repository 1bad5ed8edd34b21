"""Seeded inputs of the two benchmark workloads.

A workload is a pass of one or more ``marketclear`` CLI commands.  Each
command runs on a model file generated from the benchmark seed with the
standard library's ``random.Random`` only, so the same seed writes the same
bytes on any platform.  The program sees nothing but the written model files
and the command lines.  Sizes, models, checks and reference values are kept
per command kind (``KINDS``).

The command's own ``--seed`` is held at ``COMMAND_SEED``.  It sets the agents'
atom draws and the resampling draws, and with them the amount of work: the
number of agent groups in ``verify`` and of distinct multiplicity rows in
``converge``.  Holding it fixed keeps the work of a run the same for every
benchmark seed, while the model file varies with the seed.
"""

from __future__ import annotations

import json
import os
import random

KINDS = ("solve_deep", "converge", "verify")
# workload -> the command kinds of one pass, run in this order
WORKLOADS = {"solve_deep": ("solve_deep",), "study": ("converge", "verify")}
COMMAND_SEED = 0  # draws two agent groups of four agents in verify

# Command-line sizes.  ``tiny`` exists for the smoke test only.
SIZES = {
    "full": {
        "solve_deep": ["--steps", "10"],
        "converge": ["--steps", "8", "--n-list", "8,16,32,64,128",
                     "--resamples", "8"],
        "verify": ["--branching", "3", "--steps", "6", "--directions", "12"],
    },
    "tiny": {
        "solve_deep": ["--steps", "4"],
        "converge": ["--steps", "4", "--n-list", "8,16,32,64", "--resamples", "4"],
        "verify": ["--branching", "3", "--steps", "3", "--directions", "4"],
    },
}

COMMANDS = {
    "solve_deep": ["solve-n"],
    "converge": ["converge"],
    "verify": ["verify", "--level", "all"],
}


def _u(rng: random.Random, lo: float, hi: float) -> float:
    # six decimals keep the written text short and exactly reproducible
    return round(rng.uniform(lo, hi), 6)


def solve_deep_model(rng: random.Random) -> str:
    """Scalar market with eight agents that each carry their own minor bundle.

    Heterogeneous bundles keep one agent group per agent (G = 8), so no
    homogeneous shortcut can bypass the full coupled system.  Every cf, cg
    lies in [0.6, 1.4] and delta = 0.3, so the terminal-coupling clause
    a = delta/(1-delta) * max|mean(cg) - cg| <= 0.35 < min cg always holds.
    """
    minor = [{"cf": _u(rng, 0.6, 1.4), "cg": _u(rng, 0.6, 1.4),
              "l": _u(rng, -0.2, 0.2), "sigma0": _u(rng, 0.0, 0.4)}
             for _ in range(8)]
    doc = {
        "dimensions": {"n": 1, "d0": 1, "d": 0, "N": 8},
        "constants": {"delta": 0.3, "chi0": 0.0, "lambda": _u(rng, 0.8, 1.2),
                      "lambda0": _u(rng, 0.8, 1.2)},
        "minor": minor,
        "major": {"c0f": _u(rng, 0.8, 1.2), "c0g": _u(rng, 0.8, 1.2)},
        "noise": {"c0": "gaussian_walk", "c0_start": _u(rng, 0.5, 1.5),
                  "c0_drift": _u(rng, -0.2, 0.2), "c0_loading": _u(rng, 0.2, 0.6)},
        "laws": {"xi_atoms": sorted(_u(rng, -1.0, 1.0) for _ in range(4)),
                 "xi_weights": [0.25, 0.25, 0.25, 0.25]},
    }
    return json.dumps(doc, indent=1) + "\n"


def converge_model(rng: random.Random) -> str:
    """Homogeneous scalar market with a two-atom initial law and constant news."""
    low = _u(rng, -0.5, 0.5)
    high = round(low + _u(rng, 1.5, 2.5), 6)
    return "\n".join([
        "[dimensions]", "n = 1", "d0 = 1", "d = 0", "N = 8", "",
        "[constants]", "delta = 0.3", "chi0 = 0.0", "lambda = 1.0", "lambda0 = 1.0", "",
        "[minor]", f"cf = {_u(rng, 0.8, 1.2)}", f"cg = {_u(rng, 0.8, 1.2)}", "",
        "[major]", f"c0f = {_u(rng, 0.8, 1.2)}", f"c0g = {_u(rng, 0.8, 1.2)}", "",
        "[noise]", "c0 = constant", f"c0_value = {_u(rng, 0.0, 0.2)}", "",
        "[laws]", f"xi_atoms = {low} {high}", "xi_weights = 0.5 0.5", "",
    ])


def verify_model(rng: random.Random) -> str:
    """The two-asset market of ``models/two_assets.json`` with seeded initial atoms."""
    doc = {
        "dimensions": {"n": 2, "d0": 1, "d": 0, "N": 4},
        "constants": {"delta": 0.25, "chi0": [0.3, -0.2],
                      "lambda": [[1.2, 0.2], [0.2, 1.0]],
                      "lambda0": [[0.8, -0.1], [-0.1, 0.9]]},
        "minor": {"l": [0.1, -0.2], "sigma0": [[0.3], [0.2]],
                  "cf": [[1.1, 0.1], [0.1, 0.9]], "hf": [0.2, 0.0],
                  "cg": [[1.0, 0.2], [0.2, 1.3]], "hg": [0.1, -0.1]},
        "major": {"l0": [0.1, 0.0], "s0": [[0.2], [0.1]],
                  "c0f": [[0.9, 0.0], [0.0, 1.1]], "h0f": [0.1, 0.0],
                  "c0g": [[1.2, 0.1], [0.1, 1.0]], "h0g": [0.0, 0.05]},
        "noise": {"c0": "gaussian_walk", "c0_start": [0.2, 0.0],
                  "c0_drift": [0.1, 0.0], "c0_loading": [[0.3], [0.2]]},
        "laws": {"xi_atoms": [[_u(rng, -0.5, 2.0), _u(rng, -0.5, 2.0)] for _ in range(2)],
                 "xi_weights": [0.5, 0.5]},
    }
    return json.dumps(doc, indent=1) + "\n"


_MODELS = {"solve_deep": (solve_deep_model, "model.json"),
           "converge": (converge_model, "model.model"),
           "verify": (verify_model, "model.json")}


def generate(kind: str, seed: int) -> tuple[str, str]:
    """(file name, model text) of a command kind for one seed."""
    make, name = _MODELS[kind]
    return name, make(random.Random(f"{kind}:{seed}"))


def threads() -> int:
    """Worker threads for ``converge``: two, but never more than the CPUs."""
    return min(2, os.cpu_count() or 1)


def argv(kind: str, size: str, model_path: str, out_dir: str) -> list[str]:
    """The CLI argument vector of one command of a kind."""
    return (COMMANDS[kind] + ["--model", model_path, "--out", out_dir,
                                  "--seed", str(COMMAND_SEED), "--threads", str(threads())]
            + SIZES[size][kind])


def _flag(kind: str, size: str, name: str, default: str) -> str:
    args = SIZES[size][kind]
    return args[args.index(name) + 1] if name in args else default


def expected_ops(kind: str, size: str) -> int:
    """Ops of one command: a solve, a (N, resample) row, or a (level, direction) pair."""
    if kind == "solve_deep":
        return 1
    if kind == "converge":
        n_list = _flag(kind, size, "--n-list", "").split(",")
        return len(n_list) * int(_flag(kind, size, "--resamples", "0"))
    return 3 * int(_flag(kind, size, "--directions", "0"))


def derived_sizes(kind: str, size: str) -> dict:
    """Problem sizes that follow from the command line (every model has d0 = 1)."""
    steps = int(_flag(kind, size, "--steps", "8"))
    fanout = int(_flag(kind, size, "--branching", "2"))
    nodes = sum(fanout**k for k in range(steps + 1))
    sizes = {"nodes": nodes, "ops": expected_ops(kind, size)}
    if kind == "solve_deep":
        groups = 8  # one group per heterogeneous agent
        sizes.update(groups=groups, unknowns=nodes * 2 * (1 + 2 * groups))
    elif kind == "converge":
        sizes.update(rows=expected_ops(kind, size),
                     n_list=_flag(kind, size, "--n-list", ""))
    return sizes
