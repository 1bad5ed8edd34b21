from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unittest import mock

from marketclear import scenario
from marketclear.errors import BudgetError, ValidationError
from marketclear.model import Dimensions, DiscreteLaw, make_spec
from marketclear.scenario import (IdiosyncraticAtoms, NodeField, TimeGrid,
                                  build_lattice, evaluate_exogenous, idiosyncratic_atoms,
                                  sample_idiosyncratic, stream_rng)
from marketclear.runio import write_lattice_csv

from conftest import constant_field

# frozen draw statistics for the shipped generator (seed 0, two equal atoms)
FROZEN_MEAN_10K = 0.5003


def test_binary_tree_node_count_k2() -> None:
    lat = build_lattice(TimeGrid(1.0, 2), d0=1, branching=2)
    assert lat.num_nodes == 7
    leaves = lat.path_prob[lat.terminal_slice]
    assert np.allclose(leaves, 0.25)


def test_two_point_increments_match_brownian_moments() -> None:
    lat = build_lattice(TimeGrid(1.0, 1), d0=1, branching=2)
    dw = lat.dW[lat.level_slice(1)][:, 0]
    p = lat.child_probs  # level 1 holds the root's children, in child order
    assert set(np.round(dw, 12)) == {1.0, -1.0}
    assert p @ dw == pytest.approx(0.0, abs=1e-15)
    assert p @ dw**2 == pytest.approx(lat.dt, abs=1e-15)


def test_three_point_increments_match_brownian_moments() -> None:
    lat = build_lattice(TimeGrid(2.0, 4), d0=1, branching=3)
    dw = lat.dW[lat.level_slice(1)][:, 0]
    p = lat.child_probs  # level 1 holds the root's children, in child order
    assert p @ dw == pytest.approx(0.0, abs=1e-15)
    assert p @ dw**2 == pytest.approx(lat.dt, abs=1e-14)


def test_multidim_tree_node_count() -> None:
    lat = build_lattice(TimeGrid(1.0, 3), d0=2, branching=2)
    assert lat.fanout == 4
    assert lat.num_nodes == 1 + 4 + 16 + 64


def test_level_probabilities_sum_to_one() -> None:
    lat = build_lattice(TimeGrid(1.0, 6), d0=1, branching=3)
    for k in range(lat.steps + 1):
        total = lat.path_prob[lat.level_slice(k)].sum()
        assert total == pytest.approx(1.0, abs=1e-14)


def test_node_budget_enforced(monkeypatch) -> None:
    monkeypatch.setattr(scenario, "NODE_BUDGET", 1000)
    with pytest.raises(BudgetError, match="budget is 1000; lower K/branching$"):
        build_lattice(TimeGrid(1.0, 12), d0=2, branching=2)


def test_noiseless_chain() -> None:
    lat = build_lattice(TimeGrid(1.0, 5), d0=0)
    assert lat.num_nodes == 6
    assert lat.fanout == 1
    assert np.all(lat.path_prob == 1.0)


def test_cond_expect_is_weighted_child_sum() -> None:
    lat = build_lattice(TimeGrid(1.0, 1), d0=1)
    child_vals = np.array([[2.0], [0.0]])
    assert lat.cond_expect(child_vals, 0)[0, 0] == pytest.approx(1.0)


def test_constant_c0_everywhere() -> None:
    spec = make_spec(Dimensions(1, 1, 0, 1), c0_law=("constant", [2.0]))
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    exo = evaluate_exogenous(lat, spec)
    assert np.all(exo.c0 == 2.0)


def test_drift_only_walk_hits_start_plus_drift() -> None:
    spec = make_spec(Dimensions(1, 1, 0, 1),
                     c0_law=("gaussian_walk", [0.5], [1.0], [[0.0]]))
    lat = build_lattice(TimeGrid(1.0, 2), d0=1)
    exo = evaluate_exogenous(lat, spec)
    assert np.allclose(exo.c0[lat.terminal_slice], 1.5)


def test_identity_fee_matrix_inverts_to_identity() -> None:
    spec = make_spec(Dimensions(2, 1, 0, 1), lam=np.eye(2))
    lat = build_lattice(TimeGrid(1.0, 2), d0=1)
    exo = evaluate_exogenous(lat, spec)
    assert np.allclose(exo.lam_inv, np.eye(2))


def test_nonpositive_fee_matrix_rejected() -> None:
    from marketclear.errors import AssumptionViolationError
    spec = make_spec(Dimensions(1, 1, 0, 1), lam=np.array([[-1.0]]))
    lat = build_lattice(TimeGrid(1.0, 1), d0=1)
    with pytest.raises(AssumptionViolationError):
        evaluate_exogenous(lat, spec)


def test_product_of_passing_laws_is_accepted_as_computed() -> None:
    # each marginal sums to 1 + 5.9e-13, inside its tolerance, and their
    # product to 1 + 1.2e-12; a joint law further off is still refused
    third = np.full(3, 0.33333333333353)
    law = DiscreteLaw(np.array([[0.0], [1.0], [2.0]]), third)
    atoms = idiosyncratic_atoms(make_spec(Dimensions(1, 0, 0, 2), xi_law=law, ci_law=law))
    assert atoms.weights.tobytes() == np.outer(third, third).reshape(-1).tobytes()
    with pytest.raises(ValidationError, match="atom weights must sum to 1"):
        IdiosyncraticAtoms(xi=atoms.xi, ci=atoms.ci, weights=atoms.weights * (1 + 3e-12))


def test_point_mass_sampling_is_constant() -> None:
    atoms = IdiosyncraticAtoms(xi=np.array([[1.0]]), ci=np.zeros((1, 1)),
                               weights=np.array([1.0]))
    idx = sample_idiosyncratic(atoms, 3, seed=123)
    assert list(idx) == [0, 0, 0]


def test_sampling_reproducible_and_stream_stable() -> None:
    atoms = IdiosyncraticAtoms(xi=np.array([[0.0], [1.0]]),
                               ci=np.zeros((2, 1)),
                               weights=np.array([0.5, 0.5]))
    a = sample_idiosyncratic(atoms, 6, seed=42)
    b = sample_idiosyncratic(atoms, 6, seed=42)
    assert np.array_equal(a, b)
    # draw i is independent of how many other agents exist
    c = sample_idiosyncratic(atoms, 12, seed=42)
    assert np.array_equal(c[:6], a)


@settings(max_examples=50)
@given(seed=st.integers(0, 2**64 - 1), count=st.integers(0, 40),
       weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6))
def test_sampling_equals_one_stream_generator_per_draw(seed, count, weights) -> None:
    # the vectorised pass draws what a fresh stream generator per agent draws
    w = np.array(weights)
    atoms = IdiosyncraticAtoms(xi=np.zeros((len(w), 1)), ci=np.zeros((len(w), 1)),
                               weights=w / w.sum())
    cdf = np.cumsum(atoms.weights)
    cdf[-1] = 1.0
    want = [int(np.searchsorted(cdf, stream_rng(seed, i).random(), side="right"))
            for i in range(count)]
    got = sample_idiosyncratic(atoms, count, seed)
    assert got.dtype == np.int64 and got.tolist() == want


def test_sampling_mean_matches_frozen_regression() -> None:
    atoms = IdiosyncraticAtoms(xi=np.array([[0.0], [1.0]]),
                               ci=np.zeros((2, 1)),
                               weights=np.array([0.5, 0.5]))
    idx = sample_idiosyncratic(atoms, 10_000, seed=0)
    mean = atoms.xi[idx, 0].mean()
    assert mean == pytest.approx(FROZEN_MEAN_10K, abs=1e-12)
    assert abs(mean - 0.5) < 0.02


def test_joint_atoms_product_law() -> None:
    spec = make_spec(Dimensions(1, 1, 0, 1),
                     xi_law=DiscreteLaw(np.array([[0.0], [1.0]]), np.array([0.25, 0.75])),
                     ci_law=DiscreteLaw(np.array([[5.0]]), np.array([1.0])))
    atoms = idiosyncratic_atoms(spec)
    assert atoms.count == 2
    assert np.allclose(atoms.weights, [0.25, 0.75])
    assert atoms.ci.shape == (2, 1)
    assert np.allclose(atoms.ci, 5.0)


def test_node_field_shape_checked() -> None:
    lat = build_lattice(TimeGrid(1.0, 2), d0=1)
    with pytest.raises(ValidationError):
        NodeField(lat, np.zeros((3, 1)))
    f = constant_field(lat, np.array([1.5]))
    assert f.values.shape == (7, 1)


def test_lattice_dump_roundtrip(tmp_path) -> None:
    lat = build_lattice(TimeGrid(1.0, 2), d0=1)
    path = tmp_path / "lattice.csv"
    write_lattice_csv(lat, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "node_id,parent_id,level,dW0,probability"
    assert len(lines) == 1 + lat.num_nodes
    root = lines[1].split(",")
    assert root[:3] == ["0", "-1", "0"]


def test_stream_rng_streams_are_distinct() -> None:
    a = stream_rng(7, 0).random()
    b = stream_rng(7, 1).random()
    assert a != b
    assert stream_rng(7, 0).random() == a


U64 = st.integers(0, 2**64 - 1)


@settings(max_examples=200)
@given(keys=st.lists(st.tuples(U64, U64), min_size=1, max_size=16))
def test_vectorised_philox_equals_numpy_philox(keys) -> None:
    key0, key1 = (np.array(side, dtype=np.uint64) for side in zip(*keys))
    want = [np.random.Philox(key=np.array(key, dtype=np.uint64)).random_raw() for key in keys]
    assert scenario._philox_first(key0, key1).tolist() == want


@settings(max_examples=200)
@given(seed=U64, parts=st.lists(U64, min_size=1, max_size=16))
def test_splitmix_lanes_equal_stream_keys(seed, parts) -> None:
    lanes = scenario._splitmix64_lanes(np.array(parts, dtype=np.uint64))
    assert lanes.tolist() == [scenario._stream_key(seed, (part,))[1] for part in parts]


@settings(max_examples=50)
@given(pairs=st.lists(st.tuples(U64, U64), min_size=0, max_size=12))
def test_stream_uniforms_equal_stream_generators_across_blocks(pairs) -> None:
    seeds = np.array([s for s, _ in pairs], dtype=np.uint64)
    streams = np.array([i for _, i in pairs], dtype=np.uint64)
    want = [stream_rng(s, i).random() for s, i in pairs]
    with mock.patch.object(scenario, "_DRAW_BLOCK", 5):
        assert scenario._stream_uniforms(seeds, streams).tolist() == want
    assert scenario._stream_uniforms(seeds, streams).tolist() == want


@pytest.mark.parametrize("branching", [2, 3])
def test_expectations_do_not_depend_on_layout(branching) -> None:
    # a strided column of a stack and its contiguous copy: np.dot of the
    # view may round differently, the expectations may not
    lat = build_lattice(TimeGrid(1.0, 5), d0=1, branching=branching)
    stack = np.random.default_rng(0).normal(size=(lat.num_nodes, 3))
    column, leaves = stack[:, 1], stack[lat.terminal_slice, 2]
    assert lat.running_expectation(column) == lat.running_expectation(column.copy())
    assert lat.terminal_expectation(leaves) == lat.terminal_expectation(leaves.copy())


def test_squared_norms_do_not_depend_on_layout() -> None:
    # einsum on a strided view of 3 components rounds some rows apart from
    # its contiguous copy; the helper copies first, so both give one set of bytes
    x = np.random.default_rng(3).standard_normal((1000, 6))
    view = x[:, ::2]
    copy = np.ascontiguousarray(view)
    assert scenario.squared_norms(view).tobytes() == scenario.squared_norms(copy).tobytes()
    assert np.array_equal(scenario.squared_norms(copy), np.einsum("vi,vi->v", copy, copy))
    y = np.random.default_rng(4).standard_normal((1000, 3, 4))[:, :, ::2]
    assert (scenario.squared_norms(y).tobytes()
            == scenario.squared_norms(np.ascontiguousarray(y)).tobytes())
