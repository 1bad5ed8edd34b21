"""Property test: the builders' level tables equal the per-group loop oracle.

Each example draws a model of ``model_strategy`` whose discount may break the
standing assumptions (the blocks are defined all the same, so the context is
forced): one shared bundle or up to 5 cost classes of their own cf and cg,
constant or time-dependent fee and cost matrices, n in {1, 2}, maturity on
or off, a quadratic major cost (the oracle reads its curvatures) and a
small lattice.  The groups are those of the drawn population, with random
weights.  Every level table and the terminal map of the full, clearing,
best-response and deviation systems must equal ``block_oracle`` entry for
entry.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings

import block_oracle as oracle
from marketclear.finite_market import (MarketContext, build_best_response_system,
                                       build_clearing_system, build_deviation_system,
                                       build_full_system, make_population)
from model_strategy import build, shapes

SETTINGS = settings(max_examples=40)


def assert_blocks(system, level, terminal) -> None:
    lat = system.lattice
    K, mf, mb = lat.steps, system.mf, system.mb
    assert system.Afb.shape == (K, mf, mb) and system.Bbf.shape == (K, mb, mf)
    for k in range(K):
        Afb, Bbf = level(k)
        assert np.array_equal(system.Afb[k], Afb)
        assert np.array_equal(system.Bbf[k], Bbf)
    G_oracle, g_oracle = terminal()
    assert system.G.shape == (mb, mf)
    assert np.array_equal(system.G, G_oracle)
    if g_oracle is not None:
        assert system.g.shape[1] == 1
        assert np.array_equal(system.g[:, 0], g_oracle)


@SETTINGS
@given(shapes(major="quadratic", solvable=False))
def test_builder_blocks_equal_the_per_group_oracle(shape) -> None:
    ctx = MarketContext(*build(shape), force=True)  # outside the assumptions too
    tabs = ctx.group_tables(make_population(ctx, assignments=shape.assignments))
    rng = np.random.default_rng([shape.seed, 1])
    w = rng.uniform(0.1, 1.0, len(tabs))
    w /= w.sum()
    assert_blocks(build_full_system(ctx, tabs, w),
                  lambda k: oracle.full_level(ctx, tabs, w, k),
                  lambda: oracle.full_terminal(ctx, tabs, w))
    b = rng.uniform(-1, 1, (ctx.lattice.num_nodes, shape.n))
    assert_blocks(build_clearing_system(ctx, tabs, w, b),
                  lambda k: oracle.clearing_level(ctx, tabs, w, k),
                  lambda: oracle.clearing_terminal(ctx, tabs, w))
    price = rng.uniform(-1, 1, (ctx.lattice.num_nodes, shape.n))
    assert_blocks(build_best_response_system(ctx, tabs, price),
                  lambda k: oracle.best_response_level(ctx, tabs, k),
                  lambda: oracle.best_response_terminal(ctx, tabs, price))
    tab = ctx.minor_tables(0, ctx.atoms.count - 1)
    assert_blocks(build_deviation_system(ctx, [tab], ctx.minor_tables(0, 0)),
                  lambda k: oracle.deviation_level(ctx, tab, k),
                  lambda: (oracle.deviation_terminal(ctx, tab), None))
