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
        "equilibrium.csv": "f1ada4128c320ecc34015d9207811687ba7c3fbc7405c9ba2f14ce8e24f8885b",
        "summary.json": "a3f6e2031dbe35bcfaa560e4fdb3301c075367e43ea9e2408526309bed8b835e",
    },
    ("benchmark.model", "solve-mfg"): {
        "equilibrium_mfg.csv": "8aa7e6841671d95a9cd689f1332bb4b394a928c11a452679ceaa2168d065c90c",
        "summary.json": "8553e8afd9c40c1535900be54e33417bd2284d4996fca10786e746b6916e25c1",
    },
    ("benchmark.model", "converge"): {
        "convergence.csv": "5232b8944077de8a27ee31426fc52b94723c269ea561c8a4a239474055e8c29a",
        "summary.json": "cfd1bf9e8a0053d8f2e4036ff9869a2290ccf78112aaf4ffc78815d2efb92363",
    },
    ("benchmark.model", "verify"): {
        "perturbation_major-N.csv": "ce9d9d2db2856e7eea58d0316b81b42a2db7f673fa0cf4fe88b24f9eca876721",
        "perturbation_major-mfg.csv": "41f49e1d69f9a0d57d7da783008bd83af0c5987de470e50460ad28a333c8fe68",
        "perturbation_minor.csv": "cd11a9be14fc73e9664c8f532dc84c0e21d1f2a127bfc03747eae49f70e252b1",
        "summary.json": "ccc08932f37cbfaf700b2efedeca264fc6bc347e8ef665243cd2058100d0793d",
    },
    ("benchmark.model", "lattice-dump"): LATTICE,
    ("maturity.model", "solve-n"): {
        "equilibrium.csv": "72fdac95f2c7c0c9a49802757946cda45e1879746930f1e236e375720766c368",
        "summary.json": "72bead510fb78cb613a3ed7bf00bb3eb4f04f228decd66f2a246807f9616cffd",
    },
    ("maturity.model", "solve-mfg"): {
        "equilibrium_mfg.csv": "9db3c77ec32f9fdccc6f3cab0e1894d23a7c4fedbbee32af8c2503fbc815fbfe",
        "summary.json": "d3fa757ac143d1ab650df665c7ac19af09f2ff9c713acd0d645a3e73c056b32f",
    },
    ("maturity.model", "converge"): {
        "convergence.csv": "9d167ec0139ce3cfc574044fb4c1880523d589e956b5ceca45ee61782a54afd8",
        "summary.json": "b5889069076497be7cb822a2b0f5a8b488827b94cbfc76ea35b1157c7df5dda7",
    },
    ("maturity.model", "verify"): {
        "perturbation_major-N.csv": "17b43d8224b1304b4f6cb8ffdc994bc59059520bfc8abe69cfd2fe1942616c09",
        "perturbation_major-mfg.csv": "0d7850708dc81b10c03bd2e7dd4478c75e6e4a49d50f14ea2cd4274811505cf0",
        "perturbation_minor.csv": "287e93387886c970a3d64a2df097a9d7f3c488faeeae294a4e6f84f8e7914374",
        "summary.json": "f5d374e1dd6ff6ad1ad5982c4ce9ce1056895ffafbdee1a0eda67535edd9fbf3",
    },
    ("maturity.model", "lattice-dump"): LATTICE,
    ("two_assets.json", "solve-n"): {
        "equilibrium.csv": "aad4d4d6309b7db52366c41012d9088edc52a3d3d59353e50e4bbbf4dbac2d05",
        "summary.json": "53cf253dccad4314c3092adc7707a7c906db490ce6700b89fec10f30aac3025f",
    },
    ("two_assets.json", "solve-mfg"): {
        "equilibrium_mfg.csv": "065f7349310c8485c11ac4e0983d097ad5b28ac45a1f3e8be7f97dd139e07bd5",
        "summary.json": "237024a2f5e234daacbedd13d468036ad432b8f02ea42037c0b9ddfa3376011d",
    },
    ("two_assets.json", "converge"): {
        "convergence.csv": "b1ce1d121303c2e6d737b78ee43683dbe08aa1c5590c3c5c64578aa08c07e9b0",
        "summary.json": "f891f00050943ed7fb2b4525fe78db2a74b2eefe8270ef674ff72cae015f11e4",
    },
    ("two_assets.json", "verify"): {
        "perturbation_major-N.csv": "11b895571f8694f5c4822cc81305e55f3ecdbe689f60a65456adf110037c4d0b",
        "perturbation_major-mfg.csv": "5dd75fe660945c055cdd587c26fff77fe18a9e799c51197e0e1e5389d5e64ecd",
        "perturbation_minor.csv": "5f85f3c7475008b7f8fb137d5a94917a7a8672c7346eb474e5260b00f11466d0",
        "summary.json": "dc34458f34ca1dc87c5bd92a9906ee4888ae61e8c9d74ad7ecb55d317d7258db",
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


PICARD = "75f5b5fe54905ff18420179b1efed2ca2bae0f475ea69f365bc8266b815fd681"


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
