"""Property test: the perturbation check along exact lines equals the per-amplitude oracle.

``perturbation_tests`` clears the base control and each direction's end point
once and reads every other amplitude off the line through them.  The public
cost functions ``cost_minor``, ``cost_major`` and ``cost_mfg`` integrate and
clear each control afresh; at every control ``u + eps eta`` of the report
they must give the same cost change.  Every corner of n in {1, 2}, a binary
or trinomial tree, maturity on or off and the three levels runs; hypothesis
draws the model (``random_context``), the depth, the eps grid and a
direction count that is not a multiple of the grid's nonzero amplitudes, so
the last batch of end points is a partial one.

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

from marketclear.finite_market import make_population, solve_full_equilibrium
from marketclear.mean_field import solve_mfg
from marketclear.optimality import (LEVELS, cost_major, cost_mfg, cost_minor,
                                    perturbation_directions, perturbation_tests)
from marketclear.scenario import NodeField

from test_batched_sweep_properties import random_context

SETTINGS = settings(max_examples=3, deadline=None, derandomize=True, database=None)
GRIDS = ((-0.2, -0.1, -0.05, 0.0, 0.05, 0.1, 0.2), (-0.3, -0.1, 0.0, 0.1, 0.3),
         (-0.1, 0.0, 0.1))

corners = pytest.mark.parametrize("n, branching, maturity, level", [
    (n, branching, maturity, level)
    for n in (1, 2) for branching in (2, 3) for maturity in (False, True)
    for level in LEVELS])
draws = st.fixed_dictionaries({
    "K": st.integers(1, 3),
    "seed": st.integers(0, 2**32 - 1),
    "grid": st.sampled_from(GRIDS),
    "batches": st.integers(0, 1),
    "rest": st.integers(1, 5),
})


def oracle_costs(ctx, level, pop):
    """The base control and the per-call cost of any control at ``level``."""
    lat = ctx.lattice
    if level == "major-mfg":
        base = solve_mfg(ctx, check=False).beta_norm.values
        return base, lambda u: cost_mfg(ctx, NodeField(lat, u))
    eq = solve_full_equilibrium(ctx, pop, check=False)
    if level == "major-N":
        return (eq.beta_hat.values,
                lambda u: cost_major(ctx, pop, NodeField(lat, u)))
    grp = pop.groups[0]
    return eq.alpha_hat[0], lambda u: cost_minor(
        ctx, eq.price, u, bundle_index=grp.bundle_index, atom_index=grp.atom_index)


@corners
@SETTINGS
@given(draws)
def test_line_matches_the_per_amplitude_costs(n, branching, maturity, level, draw) -> None:
    ctx, _ = random_context(dict(draw, n=n, d0=1, branching=branching, maturity=maturity))
    lat = ctx.lattice
    eps = np.asarray(draw["grid"])
    amplitudes = int(np.count_nonzero(eps))
    directions = draw["batches"] * amplitudes + min(draw["rest"], amplitudes - 1)
    pop = make_population(ctx)
    rep = perturbation_tests(ctx, [level], directions=directions, eps_grid=eps,
                             seed=draw["seed"] % 1000, population=pop)[level]
    assert not rep.failed
    base, cost = oracle_costs(ctx, level, pop)
    j0 = cost(base)
    tol = 1e3 * np.finfo(float).eps * lat.num_nodes
    etas = perturbation_directions(lat, n, directions, draw["seed"] % 1000)
    for d, eta in enumerate(etas):
        for j, e in enumerate(eps):
            if e == 0.0:
                assert rep.delta_j[d, j] == 0.0
                continue
            je = cost(base + e * eta)
            assert abs(rep.delta_j[d, j] - (je - j0)) <= tol * max(abs(j0), abs(je)), (d, e)
