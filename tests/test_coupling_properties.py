"""Property tests of the batched one-dimensional quantile coupling.

Each example draws two atom clouds over a few columns (1-12 atoms a side)
with random positive weights or empirical weights count/N that may be zero,
on continuous values, on a coarse integer grid that produces ties, or on
fully degenerate clouds.  The batched breakpoint routine must match the
scalar sweep of ``coupling_oracle`` column by column, for powers 1 and 2.

The grouped path of the convergence study (one interval structure per sort
order) must equal the per-column routine byte for byte: on random tables of
up to 6 atoms, and on the limit fields of models on binary and trinomial
trees.  For n > 1 the lean assignment loop must equal ``wasserstein2`` of
the expanded clouds byte for byte.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from marketclear import metrics
from marketclear.finite_market import MarketContext
from marketclear.mean_field import solve_mfg

from coupling_oracle import (EmpiricalMeasure, _quantile_coupling_cost, quantile_coupling_cost,
                             wasserstein1_1d, wasserstein2)
from model_strategy import build, shapes

SETTINGS = settings(max_examples=200)

cases = st.fixed_dictionaries({
    "atoms_a": st.integers(1, 12),
    "atoms_b": st.integers(1, 12),
    "columns": st.integers(1, 4),
    "values": st.sampled_from(["continuous", "ties", "degenerate"]),
    "weights_a": st.sampled_from(["positive", "empirical"]),
    "weights_b": st.sampled_from(["positive", "empirical"]),
    "power": st.sampled_from([1, 2]),
    "seed": st.integers(0, 2**32 - 1),
})


def draw_weights(rng, kind: str, count: int) -> np.ndarray:
    if kind == "positive":
        w = rng.uniform(0.05, 1.0, count)
        return w / w.sum()
    N = int(rng.integers(1, 3 * count + 1))
    return rng.multinomial(N, np.full(count, 1.0 / count)) / N


def draw_values(rng, kind: str, count: int, columns: int, level: float) -> np.ndarray:
    if kind == "continuous":
        return rng.normal(0.0, 2.0, (count, columns))
    if kind == "ties":
        return rng.integers(-2, 3, (count, columns)).astype(float)
    return np.full((count, columns), level)


def draw_case(case):
    rng = np.random.default_rng(case["seed"])
    level = float(rng.normal())
    xa = draw_values(rng, case["values"], case["atoms_a"], case["columns"], level)
    xb = draw_values(rng, case["values"], case["atoms_b"], case["columns"], level)
    wa = draw_weights(rng, case["weights_a"], case["atoms_a"])
    wb = draw_weights(rng, case["weights_b"], case["atoms_b"])
    return xa, wa, xb, wb


@SETTINGS
@given(cases)
def test_batched_coupling_matches_scalar_sweep(case) -> None:
    xa, wa, xb, wb = draw_case(case)
    p = case["power"]
    got = _quantile_coupling_cost(xa, wa, xb, wb, p)
    assert got.shape == (xa.shape[1],)
    for v in range(xa.shape[1]):
        want = quantile_coupling_cost(xa[:, v], wa, xb[:, v], wb, p)
        scale = max(np.abs(xa[:, v]).max(), np.abs(xb[:, v]).max()) ** p
        assert abs(got[v] - want) <= 1e-12 * scale
        if case["values"] == "degenerate":
            assert got[v] == 0.0


@SETTINGS
@given(cases)
def test_column_cost_independent_of_blocking(case) -> None:
    xa, wa, xb, wb = draw_case(case)
    p = case["power"]
    together = _quantile_coupling_cost(xa, wa, xb, wb, p)
    with mock.patch.object(metrics, "_COUPLING_BLOCK", 1):   # one column per block
        blocked = _quantile_coupling_cost(xa, wa, xb, wb, p)
    alone = [_quantile_coupling_cost(xa[:, v:v + 1], wa, xb[:, v:v + 1], wb, p)[0]
             for v in range(xa.shape[1])]
    assert np.array_equal(blocked, together)
    assert np.array_equal(alone, together)


@SETTINGS
@given(cases)
def test_distances_use_the_coupling_and_stay_symmetric(case) -> None:
    xa, wa, xb, wb = draw_case(case)
    keep_a, keep_b = wa > 0, wb > 0
    a = EmpiricalMeasure(xa[keep_a, :1], wa[keep_a] / wa[keep_a].sum())
    b = EmpiricalMeasure(xb[keep_b, :1], wb[keep_b] / wb[keep_b].sum())
    assert wasserstein2(a, b) == wasserstein2(b, a)
    assert wasserstein1_1d(a, b) == wasserstein1_1d(b, a)
    want = quantile_coupling_cost(a.atoms[:, 0], a.weights, b.atoms[:, 0], b.weights, 2)
    scale = max(np.abs(a.atoms).max(), np.abs(b.atoms).max()) ** 2
    assert abs(wasserstein2(a, b) ** 2 - want) <= 1e-12 * scale


grouped_cases = st.fixed_dictionaries({
    "atoms": st.integers(1, 6),
    "columns": st.integers(1, 40),
    "values": st.sampled_from(["continuous", "ties", "degenerate"]),
    "N": st.integers(1, 20),
    "seed": st.integers(0, 2**32 - 1),
})


def empirical_weights(rng, N: int, weights: np.ndarray) -> np.ndarray:
    """count/N of N draws from ``weights``: zero counts happen."""
    return rng.multinomial(N, weights) / N


@SETTINGS
@given(grouped_cases)
def test_grouped_coupling_equals_per_column_coupling(case) -> None:
    rng = np.random.default_rng(case["seed"])
    A = case["atoms"]
    x = draw_values(rng, case["values"], A, case["columns"], float(rng.normal()))
    ref = draw_weights(rng, "positive", A)
    emp = empirical_weights(rng, case["N"], ref)
    active = emp > 0
    want = _quantile_coupling_cost(x[active], emp[active], x, ref, 2)
    groups = metrics._OrderGroups(x)
    assert groups.coupling_costs(emp, ref).tobytes() == want.tobytes()
    with mock.patch.object(metrics, "_COUPLING_BLOCK", 1):   # one column per block
        assert groups.coupling_costs(emp, ref).tobytes() == want.tobytes()


def test_order_codes_survive_renumbering() -> None:
    # 40 atoms overflow a plain mixed-radix code after 11 digits
    rng = np.random.default_rng(4)
    x = rng.integers(0, 3, (40, 12)).astype(float)
    x = np.concatenate([x, x[:, ::3]], axis=1)   # repeated orders
    order = np.argsort(x, axis=0, kind="stable")
    code = metrics._order_codes(order)
    for i in range(x.shape[1]):
        for j in range(x.shape[1]):
            assert (code[i] == code[j]) == np.array_equal(order[:, i], order[:, j])


@settings(max_examples=40)
@given(shapes(n=1, homogeneous=True))
def test_reference_distances_equal_per_field_coupling(shape) -> None:
    ctx = MarketContext(*build(shape))
    lat, A, N = ctx.lattice, ctx.atoms.count, ctx.spec.dims.N
    mf = solve_mfg(ctx)
    ref = metrics._ReferenceClouds(ctx, mf)
    flow = lambda name: np.stack([mf.atom_field(name, a) for a in range(A)])
    emp = empirical_weights(np.random.default_rng([shape.seed, 1]), N, ref.weights)
    active = emp > 0
    dist = lambda values: _quantile_coupling_cost(
        values[active, :, 0], emp[active], values[:, :, 0], ref.weights, 2)
    tsl = lat.terminal_slice
    want = {"w2_g": lat.terminal_expectation(dist(ref.g)),
            "w2_rT": lat.terminal_expectation(dist(flow("r")[:, tsl, :])),
            "int_w2_y": lat.running_expectation(dist(ref.y)),
            "int_w2_p": lat.running_expectation(dist(flow("p")))}
    assert ref.distances(emp, N) == want


assignment_cases = st.fixed_dictionaries({
    "atoms": st.integers(1, 4),
    "n": st.sampled_from([2, 3]),
    "N": st.sampled_from([7, 12, 16, 4]),
    "nodes": st.integers(4, 16),
    "ties": st.booleans(),
    "seed": st.integers(0, 2**32 - 1),
})


@settings(max_examples=150)
@given(assignment_cases)
def test_lean_assignment_loop_equals_expanded_clouds(case) -> None:
    rng = np.random.default_rng(case["seed"])
    A, N = case["atoms"], case["N"]
    shape = (A, case["nodes"], case["n"])
    values = (rng.integers(-1, 2, shape).astype(float) if case["ties"]
              else rng.normal(0.0, 1.0, shape))
    ref_counts = 1 + rng.multinomial(N - A, np.full(A, 1.0 / A))   # every atom carried
    emp_counts = rng.multinomial(N, ref_counts / N)                 # zero counts happen
    got = metrics._cloud_distance_sq(values, ref_counts / N, emp_counts / N, N)
    want = [wasserstein2(EmpiricalMeasure(np.repeat(values[:, v], emp_counts, axis=0)),
                         EmpiricalMeasure(np.repeat(values[:, v], ref_counts, axis=0))) ** 2
            for v in range(case["nodes"])]
    assert got.tobytes() == np.array(want).tobytes()
