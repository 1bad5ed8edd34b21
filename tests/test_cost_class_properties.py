"""Property tests: the cost-class path equals the system of all groups.

``solve_full_equilibrium`` solves a market on its cost classes (the groups
with equal cf and cg): the class means solve the coupled system of the
classes, and each class of several groups adds one deviation family.  The
oracle couples every group in one system, ``build_full_system`` on the
group tables and weights, solved by one ``DirectSolver`` pass (a quadratic
major cost) or by the same affine iteration (a callable one).

Each example draws a market of C in 1..3 cost classes of 1..3 groups each:
one coefficient bundle per agent, the bundles of a class sharing their
time-dependent cf and cg and differing in the news- and atom-dependent
drift, noise loading and cost intercepts, or a homogeneous market of
unequal atom multiplicities (C = 1).  n in {1, 2}, binary or trinomial
trees, maturity mode and a callable major cost are drawn too.  Every field
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
from marketclear.model import (CallableMajorCost, CoefficientSpec, Dimensions, DiscreteLaw,
                               MinorBundle, QuadraticMajorCost, make_spec)
from marketclear.scenario import NodeField, TimeGrid, build_lattice

SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)

cases = st.fixed_dictionaries({
    "class_sizes": st.lists(st.integers(1, 3), min_size=1, max_size=3),
    "n": st.sampled_from([1, 2]),
    "branching": st.sampled_from([2, 3]),
    "K": st.integers(1, 3),
    "maturity": st.booleans(),
    "callable": st.booleans(),
    "seed": st.integers(0, 2**32 - 1),
})


def _sym(rng, n, shift):
    a = rng.uniform(-0.2, 0.2, (n, n))
    return shift * np.eye(n) + 0.5 * (a + a.T)


def _timed(rng, n, name):
    """A symmetric matrix coefficient that switches value at a random time in (0, 1)."""
    return CoefficientSpec("time", (n, n), times=[0.0, rng.uniform(0.05, 0.95)],
                           values=[_sym(rng, n, 1.0), _sym(rng, n, 1.0)], name=name)


def _affine(rng, n, name):
    """A vector coefficient affine in the common news c0 and the idiosyncratic ci."""
    return CoefficientSpec("affine", (n,), const=rng.uniform(-1, 1, n),
                           c0_mat=rng.uniform(-0.5, 0.5, (n, n)),
                           ci_mat=rng.uniform(-0.5, 0.5, (n, n)), name=name)


def random_market(case):
    """A market of the case's shape and the population to solve it for."""
    rng = np.random.default_rng(case["seed"])
    n, sizes = case["n"], case["class_sizes"]
    N = sum(sizes) if not case["homogeneous"] else int(rng.integers(1, 9))
    dims = Dimensions(n, 1, 0, N)
    bundles = []
    for size in sizes:
        cf, cg = _timed(rng, n, "cf"), _timed(rng, n, "cg")
        bundles += [MinorBundle.build(dims, l=_affine(rng, n, "l"),
                                      sigma0=rng.uniform(-0.4, 0.4, (n, 1)), cf=cf, cg=cg,
                                      hf=_affine(rng, n, "hf"), hg=_affine(rng, n, "hg"))
                    for _ in range(size)]
    # a class's agents are not next to each other in the population
    bundles = [bundles[i] for i in rng.permutation(len(bundles))]
    c0f, c0g = _sym(rng, n, 1.0), _sym(rng, n, 1.0)
    h0f, h0g = rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n)
    if case["callable"]:
        a = rng.uniform(0.05, 0.5)
        major_cost = CallableMajorCost(dfdx=lambda t, x, c: c0f @ x + h0f + a * np.tanh(x),
                                       dgdx=lambda x, c: c0g @ x + h0g + a * np.tanh(x))
    else:
        major_cost = QuadraticMajorCost.build(dims, c0f=c0f, c0g=c0g, h0f=h0f, h0g=h0g)
    A = 3
    spec = make_spec(
        dims, delta=rng.uniform(0.0, 0.4), lam=_sym(rng, n, 1.5), lam0=_sym(rng, n, 1.0),
        minor=bundles[:1] if case["homogeneous"] else bundles, major_cost=major_cost,
        chi0=rng.uniform(-1, 1, n),
        xi_law=DiscreteLaw(rng.uniform(-1, 1, (A, n)), np.full(A, 1 / A)),
        ci_law=DiscreteLaw(rng.uniform(-1, 1, (A, n)), np.full(A, 1 / A)),
        c0_law=("gaussian_walk", rng.uniform(-1, 1, n), rng.uniform(-0.3, 0.3, n),
                rng.uniform(-0.4, 0.4, (n, 1))),
        maturity_mode=case["maturity"])
    lat = build_lattice(TimeGrid(1.0, case["K"]), d0=1, branching=case["branching"])
    ctx = MarketContext(spec, lat)
    pop = make_population(ctx, assignments=rng.integers(A, size=N))
    return spec, lat, ctx, pop


@pytest.mark.parametrize("homogeneous", [False, True])
@SETTINGS
@given(cases)
def test_class_path_equals_the_coupled_group_system(homogeneous, case) -> None:
    case = dict(case, homogeneous=homogeneous)
    spec, lat, ctx, pop = random_market(case)
    system = build_full_system(ctx, ctx.group_tables(pop), pop.weights)
    oracle = (_solve_full_system(ctx, system) if case["callable"]
              else DirectSolver(system).solve())
    eq = solve_full_equilibrium(ctx, pop, check=False)
    assert eq.solution.system.mf == (1 + 2 * len(eq.classes.members)) * spec.dims.n
    scale = max(1.0, float(np.max(np.abs(oracle.forward))),
                float(np.max(np.abs(oracle.backward))))
    tol = (1e-8 if case["callable"] else 1e-11) * scale
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
@given(cases)
def test_best_response_on_classes_equals_the_group_system(homogeneous, case) -> None:
    case = dict(case, homogeneous=homogeneous)
    spec, lat, ctx, pop = random_market(case)
    n = spec.dims.n
    price = np.random.default_rng(case["seed"] + 1).uniform(-1, 1, (lat.num_nodes, n))
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
