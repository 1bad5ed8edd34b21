"""Byte identity of the CLI outputs of the three shipped models.

Each command runs at ``--steps 3`` and every CSV and ``summary.json`` it
writes must hash to the recorded sha256.  The hashes pin the exact bytes, so
a change that moves any summation order, any rounding or any formatting
fails here; a deliberate change of the numbers must record new hashes and
say why.  ``tools/outdiff.py`` shows where two output trees differ.  The CLI
runs the direct solver only, so one more hash pins the fixed-point (Picard)
path's states and prices on a model with a non-affine major cost.
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
        "perturbation_major-N.csv": "cfd111ff5602e8b73f67bf6d0fbc151a4cee3e8c9b422c2caf80af20b0e81173",
        "perturbation_major-mfg.csv": "090adf00d833bb8886cd028435dd075976b561313a04a7a3754f1875a0d5d46f",
        "perturbation_minor.csv": "cd11a9be14fc73e9664c8f532dc84c0e21d1f2a127bfc03747eae49f70e252b1",
        "summary.json": "01617049ddcea2ee18b306496570eb913b60c13de5e373852710bfefd3fa9480",
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
        "perturbation_major-N.csv": "1122d784e184ddb71850d39ef4764588a0ba0bdfdbc6e70e8c3c9d42a00c87e6",
        "perturbation_major-mfg.csv": "0d7850708dc81b10c03bd2e7dd4478c75e6e4a49d50f14ea2cd4274811505cf0",
        "perturbation_minor.csv": "287e93387886c970a3d64a2df097a9d7f3c488faeeae294a4e6f84f8e7914374",
        "summary.json": "0a824f44895794f20a329959761db644934ca5f983dca54950eb0d919377c1ad",
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
        "perturbation_major-N.csv": "2639d399e40e5c7a1675a997f8f87948f23a8565b4d38085457dd6d29db2c11c",
        "perturbation_major-mfg.csv": "60eb2f9a2b93f7a31a291b149c61e33bac24b7acf3d1d2fa2e09f9e46251837c",
        "perturbation_minor.csv": "3a98ad0548dcc9e222d70dc34dcb753fb23fd702190a0f0f36e9378516cedd7b",
        "summary.json": "fe343274f77ebea2fa12cf4d383b47a55fe77027e07cfe3bbc12582681f54100",
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


PICARD = "995da5fbc9b59c4f06b940d3b498f3334bd1a0f9bde26d88160f04fd4428baf6"


def test_picard_path_matches_the_recorded_hash() -> None:
    # the non-affine model of test_extra_surfaces' fixed-point test
    spec = make_spec(Dimensions(1, 1, 0, 4), delta=0.2,
                     major_cost=CallableMajorCost(
                         dfdx=lambda t, x, c0: x + 0.1 * np.tanh(x),
                         dgdx=lambda x, c0: x),
                     xi_law=DiscreteLaw(np.array([[0.0], [2.0]]), np.array([0.5, 0.5])),
                     c0_law=("constant", [0.1]))
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    eq = solve_full_equilibrium(spec, lat, method="picard", check=False)
    mf = solve_mfg(spec, lat, method="picard", check=False)
    digest = hashlib.sha256()
    for arr in (eq.solution.forward, eq.solution.backward, eq.price.values,
                mf.solution.forward, mf.solution.backward, mf.price_mfg.values):
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    assert digest.hexdigest() == PICARD
