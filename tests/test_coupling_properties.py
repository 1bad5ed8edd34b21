"""Property tests of the batched one-dimensional quantile coupling.

Each example draws two atom clouds over a few columns (1-12 atoms a side)
with random positive weights or empirical weights count/N that may be zero,
on continuous values, on a coarse integer grid that produces ties, or on
fully degenerate clouds.  The batched breakpoint routine must match the
scalar sweep of ``coupling_oracle`` column by column, for powers 1 and 2.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from marketclear import metrics
from marketclear.metrics import EmpiricalMeasure, wasserstein1_1d, wasserstein2

from coupling_oracle import quantile_coupling_cost

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

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
    got = metrics._quantile_coupling_cost(xa, wa, xb, wb, p)
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
    together = metrics._quantile_coupling_cost(xa, wa, xb, wb, p)
    with mock.patch.object(metrics, "_COUPLING_BLOCK", 1):   # one column per block
        blocked = metrics._quantile_coupling_cost(xa, wa, xb, wb, p)
    alone = [metrics._quantile_coupling_cost(xa[:, v:v + 1], wa, xb[:, v:v + 1], wb, p)[0]
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

