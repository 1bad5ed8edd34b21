"""Byte identity of the CLI outputs of the three shipped models.

Each command runs at ``--steps 3`` and every CSV and ``summary.json`` it
writes must hash to the recorded sha256.  The hashes pin the exact bytes, so
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
from marketclear.finite_market import solve_full_equilibrium
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
        "equilibrium.csv": "3de633210a746b6182da39b251c5455cde3920860fb67a1621c50f67c1ad65ee",
        "summary.json": "a3f6e2031dbe35bcfaa560e4fdb3301c075367e43ea9e2408526309bed8b835e",
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
        "perturbation_major-N.csv": "551cee4f6a54e0339a51b0ec9dccd8c161249a1affa791b1349e4bfb10e6fe32",
        "perturbation_major-mfg.csv": "c7527e3dd1fce42dd90f52de5dfcb620e358432f797247f13392b2da5e0b34db",
        "perturbation_minor.csv": "af539819f97d30126cf5d3647be64411f1587777fa27784b85e88bf21204f881",
        "summary.json": "6e57fabfb52396de0f166882fb43fa4fdc2b585dcc648a28c523ccf280d78509",
    },
    ("benchmark.model", "lattice-dump"): LATTICE,
    ("maturity.model", "solve-n"): {
        "equilibrium.csv": "b816d56549a3d3688cfebc0cb5508653968024280c4aa821114159eea3493950",
        "summary.json": "f786235a91d833181da09b823b644eee898a8f9f541b835a7ef179d44952b7d5",
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
        "perturbation_major-N.csv": "358002dfdb3fe1403eb7c6591ccd6ad722f79ec3e8c1dd78167adcb8e0f598f9",
        "perturbation_major-mfg.csv": "c694097e70f2d7bafea8ada56854e39649545749ad4c2bff6e4d2838571d020d",
        "perturbation_minor.csv": "44b82ee362bb27c4b777cb1033b751af45645d9ea4bd0906e7d0344d5314e269",
        "summary.json": "253be1619caddbebc8c5442ae870695bed7ea8f3e8354e3f1addaf1b3d937e5d",
    },
    ("maturity.model", "lattice-dump"): LATTICE,
    ("two_assets.json", "solve-n"): {
        "equilibrium.csv": "303503934e31b46b3736fc1be1a49fbc332d5b14e992a2c95999c37a4bea94c8",
        "summary.json": "0460cede429e18012e609dde8bcd2366009d763e26ffc249a1c03d884f286fe0",
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
        "perturbation_major-N.csv": "cc8300045bd95ff006ec98a8d877e3c2dc251db577e2ac94542b27710c6bfb8e",
        "perturbation_major-mfg.csv": "9516b68a31ec7973a17bfd6c2abfe05317e13a1ab6827b55e03cc48d524c525e",
        "perturbation_minor.csv": "3a23ce2354a576b418f5b89b938cd158b67e640e9de5bc7c83585b0bef40a5a3",
        "summary.json": "f4ded4761bdca59df919279834fb48afb9ec60350fc2231ebdea630fb7b36239",
    },
    ("two_assets.json", "lattice-dump"): LATTICE,
}


@pytest.mark.parametrize("model, command", sorted(GOLDEN))
def test_outputs_match_the_recorded_hashes(model, command, tmp_path) -> None:
    out = tmp_path / "out"
    argv = [command, "--model", str(MODELS / model), "--out", str(out), "--steps", "3",
            *COMMANDS[command]]
    assert main(argv) == 0
    written = {p.name for p in out.iterdir() if p.suffix == ".csv" or p.name == "summary.json"}
    assert written == set(GOLDEN[model, command])
    for name, digest in GOLDEN[model, command].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


PICARD = "69cb7ae609cecf3e9a96052a081a235e2ce474d3fc57ba03a41930e5fd1789e4"


def test_picard_path_matches_the_recorded_hash() -> None:
    # the non-affine model of test_extra_surfaces' limit test
    spec = make_spec(Dimensions(1, 1, 0, 4), delta=0.2,
                     major_cost=CallableMajorCost(
                         dfdx=lambda t, x, c0: x + 0.1 * np.tanh(x),
                         dgdx=lambda x, c0: x),
                     xi_law=DiscreteLaw(np.array([[0.0], [2.0]]), np.array([0.5, 0.5])),
                     c0_law=("constant", [0.1]))
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    eq = solve_full_equilibrium(spec, lat, check=False)
    mf = solve_mfg(spec, lat, check=False)
    digest = hashlib.sha256()
    for arr in (eq.solution.forward, eq.solution.backward, eq.price.values,
                mf.solution.forward, mf.solution.backward, mf.price_mfg.values):
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    assert digest.hexdigest() == PICARD
