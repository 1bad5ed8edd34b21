"""The column-wise CSV writers against the per-row reference writers.

Every writer must produce the same bytes as ``csv_oracle`` (one
``csv.writer`` row and ``repr(float(x))`` per cell) on every shipped model,
and the node-field emitter must do so for arbitrary float64 fields.  The
column formatter ``float_texts`` must equal ``repr`` value for value at the
edges of ``repr``'s notation ranges, on every power of two, on the special
values and on a bulk of random doubles.
"""

from __future__ import annotations

import csv
import io
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from marketclear import runio
from marketclear.finite_market import MarketContext, make_population, solve_full_equilibrium
from marketclear.mean_field import solve_mfg
from marketclear.metrics import convergence_study
from marketclear.modelfile import load_model
from marketclear.optimality import perturbation_tests
from marketclear.scenario import TimeGrid, build_lattice

import csv_oracle

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
# (model file, maturity switch, tree branching)
SHIPPED = [("benchmark.model", False, 2), ("benchmark.model", True, 2),
           ("maturity.model", False, 2), ("two_assets.json", False, 3)]


@pytest.fixture(scope="module", params=SHIPPED,
                ids=[f"{m}{'-maturity' if mat else ''}" for m, mat, _ in SHIPPED])
def shipped(request):
    name, maturity, branching = request.param
    spec = load_model(MODELS_DIR / name)
    if maturity:
        spec = replace(spec, maturity_mode=True)
    lat = build_lattice(TimeGrid(1.0, 4), spec.dims.d0, branching)
    return spec, lat, MarketContext(spec, lat)


def assert_same_bytes(tmp_path, write, oracle, obj) -> None:
    write(obj, tmp_path / "new.csv")
    oracle(obj, tmp_path / "oracle.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("n_agents", [None, 13])
def test_equilibrium_csv_matches_oracle(shipped, tmp_path, n_agents) -> None:
    spec, lat, ctx = shipped
    pop = make_population(ctx, N=n_agents or spec.dims.N, seed=3)
    eq = solve_full_equilibrium(ctx, pop, check=False)
    assert_same_bytes(tmp_path, runio.write_equilibrium_csv,
                      csv_oracle.write_equilibrium_csv, eq)


def test_mfg_csv_matches_oracle(shipped, tmp_path) -> None:
    spec, lat, ctx = shipped
    mf = solve_mfg(ctx, check=False)
    assert_same_bytes(tmp_path, runio.write_mfg_csv, csv_oracle.write_mfg_csv, mf)


def test_lattice_csv_matches_oracle(shipped, tmp_path) -> None:
    _, lat, _ = shipped
    assert_same_bytes(tmp_path, runio.write_lattice_csv, csv_oracle.write_lattice_csv, lat)


def test_convergence_csv_matches_oracle(shipped, tmp_path) -> None:
    spec, lat, ctx = shipped
    report = convergence_study(ctx, [4, 8], 2, 0)
    assert_same_bytes(tmp_path, runio.write_convergence_csv,
                      csv_oracle.write_convergence_csv, report)


@pytest.mark.parametrize("level", ["minor", "major-N", "major-mfg"])
def test_perturbation_csv_matches_oracle(shipped, tmp_path, level) -> None:
    spec, lat, ctx = shipped
    pop = make_population(ctx, N=spec.dims.N, seed=0)
    report = perturbation_tests(ctx, [level], directions=3, seed=0, population=pop)[level]
    assert_same_bytes(tmp_path, runio.write_perturbation_csv,
                      csv_oracle.write_perturbation_csv, report)


def test_perturbation_csv_marks_failed_directions(shipped, tmp_path) -> None:
    spec, lat, ctx = shipped
    report = perturbation_tests(ctx, ["minor"], directions=2, seed=0)["minor"]
    report.delta_j[1, ::2] = np.nan
    assert_same_bytes(tmp_path, runio.write_perturbation_csv,
                      csv_oracle.write_perturbation_csv, report)
    assert "failed" in (tmp_path / "new.csv").read_text()


# -- arbitrary node fields ------------------------------------------------------

SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308,
           1e16, -1e16, 9999999999999998.0, 1e-5, 1e-4, -1e-5, 0.1, 1.7976931348623157e308]
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

fields = st.integers(1, 4).flatmap(lambda comps: hnp.arrays(
    np.float64, (15, comps),
    elements=st.one_of(st.sampled_from(SPECIAL),
                       st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                       st.floats(-1e-3, 1e-3, allow_subnormal=True),
                       st.floats(1e15, 1e17))))


@SETTINGS
@given(values=fields, horizon=st.sampled_from([1.0, 0.7, 3e-5, 4e16]),
       owner=st.sampled_from(["0", "17", "MAJOR", "PRICE"]),
       name=st.sampled_from(["X", "beta_norm", "phi"]))
def test_field_emitter_matches_oracle(values, horizon, owner, name) -> None:
    lat = build_lattice(TimeGrid(horizon, 3), d0=1)   # 15 nodes
    want, got = io.StringIO(), io.StringIO()
    csv_oracle.field_emitter(csv.writer(want, lineterminator="\n"), lat)(owner, name, values)
    runio._field_emitter(got, runio._node_prefixes(lat))(owner, name, values)
    assert got.getvalue() == want.getvalue()


# -- the column formatter ---------------------------------------------------------

def assert_repr_texts(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    assert runio.float_texts(values) == list(map(repr, values.tolist()))


def test_float_texts_at_the_notation_edges() -> None:
    # repr writes 0 < |x| < 1e-4 and |x| >= 1e16 in exponent form
    edges = np.array([1e-4, -1e-4, 1e16, -1e16])
    below, above = edges.copy(), edges.copy()
    sides = [edges]
    for _ in range(3):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, 2 * above)
        sides += [below, above]
    assert_repr_texts(np.concatenate(sides))


def test_float_texts_on_powers_of_two() -> None:
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    both = np.concatenate([powers, np.nextafter(powers, 0.0)])
    assert_repr_texts(np.concatenate([both, -both]))


def test_float_texts_on_special_values() -> None:
    tiny = np.finfo(np.float64).smallest_subnormal
    subnormals = np.array([tiny, 3 * tiny, 2.2250738585072009e-308, 1e-310, 4.9e-320])
    assert_repr_texts(np.concatenate([[0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf],
                                      subnormals, -subnormals]))
    assert runio.float_texts(np.empty(0)) == []


def test_float_texts_on_random_doubles() -> None:
    rng = np.random.default_rng(20180618)
    n, chunk = 10**6, 2 * 10**5
    for _ in range(n // chunk):
        bits = rng.integers(0, 2**64, size=chunk, dtype=np.uint64).view(np.float64)
        assert_repr_texts(bits)
        signs = rng.choice([-1.0, 1.0], size=chunk)
        assert_repr_texts(signs * 10.0 ** rng.uniform(-6.0, 18.0, size=chunk))


@SETTINGS
@given(row=st.lists(st.one_of(st.integers(-10**6, 10**6), st.text("abcXYZ_0123456789", min_size=1),
                               st.floats(allow_nan=True, allow_infinity=True).map(repr)),
                    min_size=1, max_size=8))
def test_csv_line_matches_csv_writer(row) -> None:
    want = io.StringIO()
    csv.writer(want, lineterminator="\n").writerow(row)
    assert runio.csv_line(row) == want.getvalue()
