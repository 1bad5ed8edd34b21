"""Byte identity of the CLI outputs of the shipped models.

The three homogeneous models run every command; ``heterogeneous.json``, one
coefficient bundle (and so one cost class) per agent, runs ``solve-n``.
Each command runs at ``--steps 3`` with its ``COMMANDS`` arguments and any
flags a ``GOLDEN`` key carries after the model and the command, and every
CSV and ``summary.json`` it writes must hash to the recorded sha256.  The hashes pin the exact bytes, so
a change that moves any summation order, any rounding or any formatting
fails here; a deliberate change of the numbers must record new hashes and
say why.  ``tools/outdiff.py`` shows where two output trees differ.  The CLI
models all have quadratic major costs, so one more hash (``PICARD``, named
for the fixed-point sweeps it first pinned) pins the states and prices of
the affine iteration on a model with a non-affine major cost.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from marketclear.cli import main
from marketclear.finite_market import MarketContext, solve_full_equilibrium
from marketclear.mean_field import solve_mfg
from marketclear.model import CallableMajorCost, Dimensions, DiscreteLaw, make_spec
from marketclear.scenario import TimeGrid, build_lattice

MODELS = Path(__file__).resolve().parent.parent / "models"

COMMANDS = {
    "solve-n": [],
    "solve-mfg": [],
    "converge": ["--n-list", "8,16,32", "--resamples", "6"],
    "verify": ["--level", "all", "--directions", "3"],
    "lattice-dump": [],
}

LATTICE = {"lattice.csv": "07795c834eaa797c992c1475408f03c0aa9ea4401706ed1cc349726737943346"}

GOLDEN = {
    ("benchmark.model", "solve-n"): {
        "equilibrium.csv": "4d93be55371f7702803edfede827db30d1dc81aa95c4e22a6b5e57dcd33a6539",
        "summary.json": "8616893e50e646d14b9218056a1516eec50279b1d8473d5364d3ad00dbd16b0f",
    },
    ("benchmark.model", "solve-mfg"): {
        "equilibrium_mfg.csv": "953238dba2f598dc9c228fce28a4aa6d234ac0e1a188847177ff8f380e51cc44",
        "summary.json": "21d09196c5ccea3b1bf13c132bfd72f0cf518651df1cb754b7be24505f6de8a8",
    },
    ("benchmark.model", "converge"): {
        "convergence.csv": "5232b8944077de8a27ee31426fc52b94723c269ea561c8a4a239474055e8c29a",
        "summary.json": "cfd1bf9e8a0053d8f2e4036ff9869a2290ccf78112aaf4ffc78815d2efb92363",
    },
    ("benchmark.model", "verify"): {
        "perturbation_major-N.csv": "7ce2f7f4670ad9164166c190e604ccf7cd7c430c8f79079625f7704d36b9c8a9",
        "perturbation_major-mfg.csv": "c7527e3dd1fce42dd90f52de5dfcb620e358432f797247f13392b2da5e0b34db",
        "perturbation_minor.csv": "56080e18cb6ee792b7d517f50c0ef82b0be1222d6826604d946126ee82f0a2b2",
        "summary.json": "ad3f0b388b387baf1d479c9988e5c96a709908e83af598842dc4bf4c2fcf4cec",
    },
    ("benchmark.model", "lattice-dump"): LATTICE,
    ("maturity.model", "solve-n"): {
        "equilibrium.csv": "28c0b68e8215812039f53dbd475f5c6231b958e6939bca4cbbcdc74f828ba26e",
        "summary.json": "54f9c3ceaa2e398adf35281689390001312f937e9628dd5d1b26dd79526d043e",
    },
    ("maturity.model", "solve-mfg"): {
        "equilibrium_mfg.csv": "709be96f7bbccc0c1f3b23579a1960483bdd2b13c07d88c105aa700deb2e30bf",
        "summary.json": "35beed0e51d7d615d430a6b344bf09f5de2291ba228be890ef5634db559c7a8f",
    },
    ("maturity.model", "converge"): {
        "convergence.csv": "9d167ec0139ce3cfc574044fb4c1880523d589e956b5ceca45ee61782a54afd8",
        "summary.json": "b5889069076497be7cb822a2b0f5a8b488827b94cbfc76ea35b1157c7df5dda7",
    },
    ("maturity.model", "verify"): {
        "perturbation_major-N.csv": "0903a8ff968645fd205766a747035a1a1b28fa07f80128690a515cdbbeee04c0",
        "perturbation_major-mfg.csv": "c694097e70f2d7bafea8ada56854e39649545749ad4c2bff6e4d2838571d020d",
        "perturbation_minor.csv": "308f00f1cfae8f2a4d6e5b52c127b63c805a8706865a398994c62d4d0cf13cce",
        "summary.json": "318401e3822525c46ab6163f62896d92cd69ae9d943d07f95d76b0b079b3f93c",
    },
    ("maturity.model", "lattice-dump"): LATTICE,
    ("two_assets.json", "solve-n"): {
        "equilibrium.csv": "ec239a1c962c9c82e5ce3765e4b95bffd33c8210cb5de33e7558825b497e17eb",
        "summary.json": "46e8d3dc6581f22135b217e20e7093022903839a1d75f8ce959e3fe0dd294fd9",
    },
    ("two_assets.json", "solve-mfg"): {
        "equilibrium_mfg.csv": "03685b91604106261001dcdb3efb99549da63e836f21f1c734b5545eb0b68e28",
        "summary.json": "a1dd7280eaf5b64f19680eca82fe0bea307ace42414a224e14349e2c57c6af99",
    },
    ("two_assets.json", "converge"): {
        "convergence.csv": "008962315d84d4f0d2e778890e2a7d0c871ea1507487a26d863813962fd35bf0",
        "summary.json": "eea683ca7916411c4d1efe39b5f86b48abe8cdeec703c231f31aa44346f66e9e",
    },
    ("two_assets.json", "verify"): {
        "perturbation_major-N.csv": "7ff5b2875c8f5dbfe9d508cab9312fa74aadf7c346985f176f8de2c280057607",
        "perturbation_major-mfg.csv": "9516b68a31ec7973a17bfd6c2abfe05317e13a1ab6827b55e03cc48d524c525e",
        "perturbation_minor.csv": "e1861f1362af38aab16dd8b66c3d047c8fb6fb5bcd1c9330a7068de00070f655",
        "summary.json": "da840f3d9048946ad26818669919e9d5f3fdaf68b7cee47b6069c7400f09c4d1",
    },
    ("two_assets.json", "lattice-dump"): LATTICE,
    # every agent its own cost class: the class system is the group system
    ("heterogeneous.json", "solve-n"): {
        "equilibrium.csv": "05af093b67d00644b04d621b55570f3b06b256f5f219b0327e39eabbfa6f7b2d",
        "summary.json": "30920cd6e1bd92ab7b885ef9bf791f253e357059e3dfbd7457bf8b46667b2c71",
    },
    # maturity mode on a model with terminal curvature (cg = 1): every atom's
    # terminal gradient is -c0, so the w2_g column is zero
    ("benchmark.model", "converge", "--maturity"): {
        "convergence.csv": "8879dc2ae424fb8f804adfadf70577ab5642d64687d56ac5717e8e2948662f8f",
        "summary.json": "f4f6f97324ed97703b99aa82d8b717e43835894bb780a6f66fe2703786855ea6",
    },
}


@pytest.mark.parametrize("key", sorted(GOLDEN),
                         ids=lambda key: "-".join(part.lstrip("-") for part in key))
def test_outputs_match_the_recorded_hashes(key, tmp_path) -> None:
    model, command, *flags = key
    out = tmp_path / "out"
    argv = [command, "--model", str(MODELS / model), "--out", str(out), "--steps", "3",
            *COMMANDS[command], *flags]
    assert main(argv) == 0
    written = {p.name for p in out.iterdir() if p.suffix == ".csv" or p.name == "summary.json"}
    assert written == set(GOLDEN[key])
    for name, digest in GOLDEN[key].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


PICARD = "58e15c132f2474f90711baf5e4726e075eb8ee0ce4b681dd742217ca78eeb080"


def test_picard_path_matches_the_recorded_hash() -> None:
    # the non-affine model of test_extra_surfaces' limit test
    spec = make_spec(Dimensions(1, 1, 0, 4), delta=0.2,
                     major_cost=CallableMajorCost(
                         dfdx=lambda t, x, c0: x + 0.1 * np.tanh(x),
                         dgdx=lambda x, c0: x),
                     xi_law=DiscreteLaw(np.array([[0.0], [2.0]]), np.array([0.5, 0.5])),
                     c0_law=("constant", [0.1]))
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    ctx = MarketContext(spec, lat)
    eq = solve_full_equilibrium(ctx, check=False)
    mf = solve_mfg(ctx, check=False)
    # the finite market's states in the layout of its coupled group system:
    # forward (x0, X_g, R_g), backward (p0, Y_g, P_g)
    groups = range(eq.population.size)
    layout = [np.concatenate([eq.major_field(major)]
                             + [eq.group_field(a, g) for g in groups]
                             + [eq.group_field(b, g) for g in groups], axis=1)
              for major, a, b in (("x0", "X", "R"), ("p0", "Y", "P"))]
    digest = hashlib.sha256()
    for arr in (*layout, eq.price.values,
                mf.solution.forward, mf.solution.backward, mf.price.values):
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    assert digest.hexdigest() == PICARD
