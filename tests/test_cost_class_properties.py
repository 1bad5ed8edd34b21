"""Property tests: the cost-class path equals the system of all groups.

``solve_full_equilibrium`` solves a market on its cost classes (the groups
with equal cf and cg): the class means solve the coupled system of the
classes, and each class of several groups adds one deviation family.  The
oracle couples every group in one system, ``build_full_system`` on the
group tables and weights, solved by one ``DirectSolver`` pass (a quadratic
major cost) or by the same affine iteration (a callable one).

Each example draws a market of ``model_strategy``: C in 1..5 cost classes
of 1..3 groups each, one coefficient bundle per agent, the bundles of a
class sharing their cf and cg and differing in the drift, noise loading and
cost intercepts (which may depend on the news and the atom), or a
homogeneous market of unequal atom multiplicities (C = 1).  n, d0, the
tree, maturity mode and a callable major cost are drawn too.  Every field
of the major and of every group, the price and the flow must agree within
a tolerance that scales with the solution's magnitude.

``minor_best_response`` solves the price-taking market on the same classes:
the class means respond to the price and each class's groups deviate from
their mean.  Its oracle is ``build_best_response_system`` on the group
tables, one block-diagonal system of every group, under a random price.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketclear.fbsde import DirectSolver
from marketclear.finite_market import (MarketContext, _alpha_hats, _flow_and_price,
                                       _solve_full_system, build_best_response_system,
                                       build_full_system, make_population,
                                       minor_best_response, solve_full_equilibrium)
from marketclear.scenario import NodeField
from model_strategy import build, shapes

SETTINGS = settings(max_examples=50)


@pytest.mark.parametrize("homogeneous", [False, True])
@SETTINGS
@given(st.data())
def test_class_path_equals_the_coupled_group_system(homogeneous, data) -> None:
    shape = data.draw(shapes(homogeneous=homogeneous))
    ctx = MarketContext(*build(shape))
    pop = make_population(ctx, assignments=shape.assignments)
    system = build_full_system(ctx, ctx.group_tables(pop), pop.weights)
    callable_cost = shape.tanh is not None
    oracle = _solve_full_system(ctx, system) if callable_cost else DirectSolver(system).solve()
    eq = solve_full_equilibrium(ctx, pop)
    assert eq.solution.system.mf == (1 + 2 * len(eq.classes.members)) * shape.n
    scale = max(1.0, float(np.max(np.abs(oracle.forward))),
                float(np.max(np.abs(oracle.backward))))
    tol = (1e-8 if callable_cost else 1e-11) * scale
    pairs = [(oracle.field(name), eq.major_field(name)) for name in ("x0", "p0")]
    pairs += [(oracle.field(f"{name}{g}"), eq.group_field(name, g))
              for g in range(pop.size) for name in "XYRP"]
    b, phi = _flow_and_price(ctx, pop.weights, oracle)
    pairs += [(b[:, 0], eq.beta_norm.values), (phi[:, 0], eq.price.values)]
    for want, got in pairs:
        assert np.max(np.abs(want - got)) <= tol
    assert eq.clearing_residual <= 1e-10 * scale


@pytest.mark.parametrize("homogeneous", [False, True])
@SETTINGS
@given(st.data())
def test_best_response_on_classes_equals_the_group_system(homogeneous, data) -> None:
    shape = data.draw(shapes(homogeneous=homogeneous))
    ctx = MarketContext(*build(shape))
    pop, lat, n = make_population(ctx, assignments=shape.assignments), ctx.lattice, shape.n
    price = np.random.default_rng([shape.seed, 1]).uniform(-1, 1, (lat.num_nodes, n))
    oracle = DirectSolver(build_best_response_system(ctx, ctx.group_tables(pop), price)).solve()
    br = minor_best_response(ctx, NodeField(lat, price), pop)
    # no system wider than the classes: C n forward states, n per deviation family
    assert br.solution.system.mf == len(br.classes.members) * n
    assert all(f.system.mf == n for f in br.deviations if f is not None)
    wants = {name: [oracle.field(f"{name}{g}") for g in range(pop.size)] for name in "XY"}
    wants["alpha"] = _alpha_hats(ctx, [oracle.pre(f"Y{g}") for g in range(pop.size)], price)
    for name, want in wants.items():
        got = br.alpha_hat if name == "alpha" else [br.group_field(name, g)
                                                    for g in range(pop.size)]
        scale = max(float(np.max(np.abs(w))) for w in want)
        for w, v in zip(want, got):
            assert np.max(np.abs(w - v)) <= 1e-12 * scale
