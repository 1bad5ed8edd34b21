"""Property test: the perturbation check along exact lines equals the per-amplitude oracle.

``perturbation_tests`` clears the base control and each direction's end point
once and reads every other amplitude off the line through them.  The public
cost functions ``cost_minor``, ``cost_major`` and ``cost_mfg`` integrate and
clear each control afresh; at every control ``u + eps eta`` of the report
they must give the same cost change.  Every corner of n in {1, 2}, a binary
or trinomial tree, maturity on or off and the three levels runs; hypothesis
draws d0 and a homogeneous model (the limit's level needs one) with a
quadratic major cost (the costs read its primitives) whose constants differ
between atoms (``model_strategy``, ``varied``), the directions' seed and a
direction count that is not a multiple of the nonzero amplitudes of
``EPS_GRID``, so the last batch of end points is a partial one.

The two evaluations differ only in round-off: the line adds ``eps`` times a
difference of two solved fields where the oracle solves the field itself.
Both are sums of products of O(|J|) terms over the tree's nodes, so the
tolerance is ``1e3 * eps_64 * nodes`` relative to the larger of the two
costs, about 2e-13 times the node count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketclear.finite_market import MarketContext, make_population, solve_full_equilibrium
from marketclear.mean_field import solve_mfg
from marketclear.optimality import (EPS_GRID, LEVELS, cost_major, cost_mfg, cost_minor,
                                    perturbation_directions, perturbation_tests)
from marketclear.scenario import NodeField

from model_strategy import build, shapes

SETTINGS = settings(max_examples=3)

corners = pytest.mark.parametrize("n, branching, maturity, level", [
    (n, branching, maturity, level)
    for n in (1, 2) for branching in (2, 3) for maturity in (False, True)
    for level in LEVELS])
draws = st.fixed_dictionaries({
    "seed": st.integers(0, 999),
    "batches": st.integers(0, 1),
    "rest": st.integers(1, 5),
})


def oracle_costs(ctx, level, pop):
    """The base control and the per-call cost of any control at ``level``."""
    lat = ctx.lattice
    if level == "major-mfg":
        base = solve_mfg(ctx).beta_norm.values
        return base, lambda u: cost_mfg(ctx, NodeField(lat, u))
    eq = solve_full_equilibrium(ctx, pop)
    if level == "major-N":
        return (eq.beta_hat.values,
                lambda u: cost_major(ctx, pop, NodeField(lat, u)))
    grp = pop.groups[0]
    return eq.alpha_hat[0], lambda u: cost_minor(
        ctx, eq.price, u, bundle_index=grp.bundle_index, atom_index=grp.atom_index)


@corners
@SETTINGS
@given(draws, st.data())
def test_line_matches_the_per_amplitude_costs(n, branching, maturity, level, draw, data) -> None:
    ctx = MarketContext(*build(data.draw(shapes(n=n, branching=branching, maturity=maturity,
                                                homogeneous=True, major="quadratic",
                                                varied=True))))
    lat = ctx.lattice
    eps = np.asarray(EPS_GRID)
    amplitudes = int(np.count_nonzero(eps))
    directions = draw["batches"] * amplitudes + min(draw["rest"], amplitudes - 1)
    pop = make_population(ctx)
    rep = perturbation_tests(ctx, [level], directions=directions, seed=draw["seed"],
                             population=pop)[level]
    assert not rep.failed
    base, cost = oracle_costs(ctx, level, pop)
    j0 = cost(base)
    tol = 1e3 * np.finfo(float).eps * lat.num_nodes
    etas = perturbation_directions(lat, n, directions, draw["seed"])
    for d, eta in enumerate(etas):
        for j, e in enumerate(eps):
            if e == 0.0:
                assert rep.delta_j[d, j] == 0.0
                continue
            je = cost(base + e * eta)
            assert abs(rep.delta_j[d, j] - (je - j0)) <= tol * max(abs(j0), abs(je)), (d, e)
