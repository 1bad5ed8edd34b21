"""Property test: a homogeneous finite market is the population limit on its empirical law.

The finite market of N agents whose atom counts are ``counts`` clears at the
price of the population limit whose law puts weight ``counts/N`` on the same
atoms, and the major trader's per-capita flows agree.  Both sides solve the
one cost class of the atoms, with the count weights of the agent groups and
with the law weights; ``test_cost_class_properties`` holds that path to the
coupled system of the groups.
The same price is also the count-weighted average of the atom prices that
the convergence study uses as its basis: the price is affine in the atom
weights for a quadratic major cost, so the test pins that form.

Each example draws a homogeneous market of ``model_strategy`` with count
weights: n, d0, the tree, K <= 3, maturity mode and the coefficients; the
cost gradients may read ci, whose law has at most one atom under count
weights, so that the model's law is the agents' empirical law.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings

from marketclear.finite_market import (MarketContext, make_population,
                                       solve_full_equilibrium)
from marketclear.mean_field import solve_mfg
from marketclear.metrics import _atom_prices
from model_strategy import build, shapes

SETTINGS = settings(max_examples=40)
TOL = 1e-12


def rel_gap(a: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(a - ref)) / max(np.max(np.abs(ref)), 1.0))


@SETTINGS
@given(shapes(homogeneous=True, weights="counts", major="quadratic"))
def test_finite_market_on_its_empirical_law_is_the_population_limit(shape) -> None:
    ctx = MarketContext(*build(shape))
    counts = np.bincount(shape.assignments)
    pop = make_population(ctx, assignments=shape.assignments)
    assert np.array_equal(pop.weights, ctx.atoms.weights)
    eq = solve_full_equilibrium(ctx, pop)
    mf = solve_mfg(ctx)
    assert rel_gap(eq.price.values, mf.price.values) <= TOL
    assert rel_gap(eq.beta_norm.values, mf.beta_norm.values) <= TOL
    basis = ((counts / counts.sum())[:, None, None] * _atom_prices(ctx)).sum(axis=0)
    assert rel_gap(basis, eq.price.values) <= TOL
