"""Property test: the builders' level tables equal the per-group loop oracle.

Each example draws G in 1..5 agent groups with their own time-dependent cost
curvatures cf and cg, n in {1, 2}, time-dependent fee matrices, random
population weights, maturity on or off and a small lattice.  Every level
table and the terminal map of the full, clearing, best-response and
deviation systems must equal ``block_oracle`` entry for entry.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import block_oracle as oracle
from marketclear.finite_market import (MarketContext, build_best_response_system,
                                       build_clearing_system, build_deviation_system,
                                       build_full_system)
from marketclear.model import (CoefficientSpec, Dimensions, DiscreteLaw, MinorBundle,
                               QuadraticMajorCost, make_spec)
from marketclear.scenario import TimeGrid, build_lattice

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

cases = st.fixed_dictionaries({
    "G": st.integers(1, 5),
    "n": st.sampled_from([1, 2]),
    "maturity": st.booleans(),
    "K": st.integers(1, 3),
    "branching": st.sampled_from([2, 3]),
    "seed": st.integers(0, 2**32 - 1),
})


def _sym(rng, n, shift):
    a = rng.uniform(-0.3, 0.3, (n, n))
    return shift * np.eye(n) + 0.5 * (a + a.T)


def _timed(rng, n, shift, name):
    """A matrix coefficient that switches value at a random time in (0, 1)."""
    return CoefficientSpec("time", (n, n), times=[0.0, rng.uniform(0.05, 0.95)],
                           values=[_sym(rng, n, shift), _sym(rng, n, shift)], name=name)


def random_market(case):
    rng = np.random.default_rng(case["seed"])
    n, G = case["n"], case["G"]
    dims = Dimensions(n, 1, 0, G)
    bundles = [MinorBundle.build(dims, cf=_timed(rng, n, 1.0, "cf"),
                                 cg=_timed(rng, n, 1.0, "cg"),
                                 hf=rng.uniform(-1, 1, n), hg=rng.uniform(-1, 1, n))
               for _ in range(G)]
    spec = make_spec(
        dims, delta=rng.uniform(0.0, 0.9), lam=_timed(rng, n, 1.5, "lambda"),
        lam0=_timed(rng, n, 1.0, "lambda0"), minor=bundles,
        major_cost=QuadraticMajorCost.build(dims, c0f=_sym(rng, n, 1.0),
                                            c0g=_sym(rng, n, 1.0)),
        xi_law=DiscreteLaw(rng.uniform(-1, 1, (2, n)), np.array([0.5, 0.5])),
        c0_law=("gaussian_walk", rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                rng.uniform(-1, 1, (n, 1))),
        maturity_mode=case["maturity"])
    lat = build_lattice(TimeGrid(1.0, case["K"]), d0=1, branching=case["branching"])
    ctx = MarketContext(spec, lat)
    tabs = [ctx.minor_tables(g, int(rng.integers(2))) for g in range(G)]
    w = rng.uniform(0.1, 1.0, G)
    return ctx, tabs, w / w.sum(), rng


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
@given(cases)
def test_builder_blocks_equal_the_per_group_oracle(case) -> None:
    ctx, tabs, w, rng = random_market(case)
    assert_blocks(build_full_system(ctx, tabs, w),
                  lambda k: oracle.full_level(ctx, tabs, w, k),
                  lambda: oracle.full_terminal(ctx, tabs, w))
    b = rng.uniform(-1, 1, (ctx.lattice.num_nodes, case["n"]))
    assert_blocks(build_clearing_system(ctx, tabs, w, b),
                  lambda k: oracle.clearing_level(ctx, tabs, w, k),
                  lambda: oracle.clearing_terminal(ctx, tabs, w))
    price = rng.uniform(-1, 1, (ctx.lattice.num_nodes, case["n"]))
    assert_blocks(build_best_response_system(ctx, tabs, price),
                  lambda k: oracle.best_response_level(ctx, tabs, k),
                  lambda: oracle.best_response_terminal(ctx, tabs, price))
    tab = ctx.minor_tables(0, 1)
    assert_blocks(build_deviation_system(ctx, [tab], ctx.minor_tables(0, 0)),
                  lambda k: oracle.deviation_level(ctx, tab, k),
                  lambda: (oracle.deviation_terminal(ctx, tab), None))
