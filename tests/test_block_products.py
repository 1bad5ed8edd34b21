"""The package's small products: level blocks, noise loadings, quadratic forms.

A level block multiplies a batch of flows as one GEMM per flow, so every
flow of a batch must get the bytes it gets alone, also at sizes where one
GEMM over the stacked (nodes x flows) rows would round some rows otherwise.
Against the broadcast one-product-per-node form the agreement is only up to
round-off, bounded by the classical dot-product bound (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., sec. 3.1):
|fl(M x) - M x| <= gamma_q |M| |x|, with gamma_q = q u / (1 - q u).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketclear.optimality import _dot, _quad
from marketclear.scenario import TimeGrid, apply_block, build_lattice

U = np.finfo(float).eps / 2


def gamma(q: int) -> float:
    return q * U / (1 - q * U)


def flows_first_states(rng, B: int, nodes: int, q: int) -> np.ndarray:
    """(nodes, B, q) states stored flows-first, as the direct solver stores them."""
    return rng.standard_normal((B, nodes, q)).transpose(1, 0, 2)


@pytest.mark.parametrize("m", [9, 2187, 4096])
def test_batched_block_product_equals_each_flows_own(m) -> None:
    rng = np.random.default_rng(m)
    q, B = 65, 6
    M = rng.standard_normal((q, q))
    states = flows_first_states(rng, B, m + 10, q)[5:5 + m]  # a level inside the tree
    got = apply_block(M, states)
    assert got.shape == (m, B, q)
    into = np.zeros((B, m, q)).transpose(1, 0, 2)
    apply_block(M, states, out=into)
    assert np.array_equal(into, got)
    for b in range(B):
        alone = apply_block(M, np.ascontiguousarray(states[:, b]))
        assert np.array_equal(got[:, b], alone), b
    # the broadcast form, one product per node, agrees within round-off
    old = np.matmul(M[None, None], states[..., None])[..., 0]
    bound = 2 * gamma(q) * (np.abs(states) @ np.abs(M).T)
    assert np.all(np.abs(got - old) <= bound)


@pytest.mark.parametrize("d0, branching", [(0, 2), (1, 3), (2, 2), (2, 3)])
def test_level_tables_and_noise_per_flow(d0, branching) -> None:
    rng = np.random.default_rng(10 * d0 + branching)
    lat = build_lattice(TimeGrid(1.0, 7 if d0 < 2 else 3), d0=d0, branching=branching)
    N, q, B = lat.num_nodes, 5, 3
    table = rng.standard_normal((lat.steps + 1, q, q))
    values = flows_first_states(rng, B, N, q)
    got = lat.apply_levels(table, values)
    for b in range(B):
        alone = lat.apply_levels(table, np.ascontiguousarray(values[:, b]))
        assert np.array_equal(got[:, b], alone), b
    old = np.matmul(table[lat.level_of][:, None], values[..., None])[..., 0]
    bound = 2 * gamma(q) * np.matmul(np.abs(table[lat.level_of])[:, None],
                                     np.abs(values)[..., None])[..., 0]
    assert np.all(np.abs(got - old) <= bound)
    # S(v) dW on the child edges of the last level, one loading per node
    k = lat.steps - 1
    clo, chi = lat.level_range(k + 1)
    S = rng.standard_normal((lat.nodes_at(k), B, q, d0))
    noise = lat.edge_noise(S, k)
    assert noise.shape == (chi - clo, B, q)
    S_child = np.repeat(S, lat.fanout, axis=0)
    dW = lat.dW[clo:chi, None, :, None]
    old = np.matmul(S_child, dW)[..., 0]
    bound = 2 * gamma(max(d0, 1)) * np.matmul(np.abs(S_child), np.abs(dW))[..., 0]
    assert np.all(np.abs(noise - old) <= bound)


forms = st.fixed_dictionaries({
    "n": st.sampled_from([1, 2, 3]),
    "flows": st.sampled_from([None, 1, 4]),
    "per_node": st.booleans(),
    "scale": st.integers(-6, 6),
    "seed": st.integers(0, 2**32 - 1),
})


@settings(max_examples=60)
@given(forms)
def test_quad_and_dot_agree_with_einsum(case) -> None:
    rng = np.random.default_rng(case["seed"])
    n, nodes = case["n"], 7
    lead = (nodes,) if case["flows"] is None else (case["flows"], nodes)
    x = rng.standard_normal(lead + (n,)) * 10.0 ** case["scale"]
    y = rng.standard_normal(lead + (n,))
    mat = rng.standard_normal(((nodes,) if case["per_node"] else ()) + (n, n))
    quad = _quad(x, mat)
    assert quad.shape == lead
    want = 0.5 * np.einsum("...i,...ij,...j->...", x, mat, x)
    size = 0.5 * np.einsum("...i,...ij,...j->...", np.abs(x), np.abs(mat), np.abs(x))
    assert np.all(np.abs(quad - want) <= 2 * gamma(n * n + 1) * size)
    dot = _dot(x, y)
    assert np.all(np.abs(dot - np.einsum("...i,...i->...", x, y))
                  <= 2 * gamma(n) * np.einsum("...i,...i->...", np.abs(x), np.abs(y)))
