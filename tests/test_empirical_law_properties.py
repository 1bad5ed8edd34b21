"""Property test: a homogeneous finite market is the population limit on its empirical law.

When the minor cost gradients do not depend on the idiosyncratic state, the
finite market of N agents whose atom counts are ``counts`` clears at the
price of the population limit whose law puts weight ``counts/N`` on the same
atoms, and the major trader's per-capita flows agree.  Both sides solve the
one cost class of the atoms, with the count weights of the agent groups and
with the law weights; ``test_cost_class_properties`` holds that path to the
coupled system of the groups.
The same price is also the count-weighted average of the atom prices that
the convergence study uses as its basis.

Each example draws n in {1, 2}, d0 in {0, 1}, a binary or trinomial tree with
K <= 3 steps, maturity mode on or off, and 2-3 atoms whose weights are
multiples of 1/N; the coefficients are random but keep every fee and cost
matrix positive definite.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from marketclear.finite_market import (MarketContext, make_population,
                                       solve_full_equilibrium)
from marketclear.mean_field import solve_mfg
from marketclear.metrics import _atom_prices
from marketclear.model import (CoefficientSpec, Dimensions, DiscreteLaw, MajorFlow,
                               MinorBundle, QuadraticMajorCost, make_spec)
from marketclear.scenario import TimeGrid, build_lattice

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
TOL = 1e-12


def spd(rng, n: int, lo: float = 0.5, hi: float = 1.5) -> np.ndarray:
    """A random symmetric matrix with eigenvalues in [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * rng.uniform(lo, hi, n)) @ q.T


@st.composite
def markets(draw):
    n = draw(st.sampled_from([1, 2]))
    d0 = draw(st.sampled_from([0, 1]))
    branching = draw(st.sampled_from([2, 3]))
    K = draw(st.integers(1, 3))
    maturity = draw(st.booleans())
    A = draw(st.integers(2, 3))
    N = draw(st.integers(A, 9))
    cuts = draw(st.lists(st.integers(1, N - 1), min_size=A - 1, max_size=A - 1,
                         unique=True))
    counts = np.diff([0, *sorted(cuts), N])
    seed = draw(st.integers(0, 2**32 - 1))
    return n, d0, branching, K, maturity, counts, seed


def random_spec(n, d0, maturity, counts, rng):
    dims = Dimensions(n=n, d0=d0, d=0, N=int(counts.sum()))
    minor = MinorBundle.build(
        dims, l=rng.uniform(-0.5, 0.5, n), sigma0=rng.uniform(-0.5, 0.5, (n, d0)),
        cf=spd(rng, n),
        cg=np.zeros((n, n)) if maturity else spd(rng, n, 0.0, 1.0),
        hg=rng.uniform(-0.5, 0.5, n))
    # running gradient hf affine in the common news c0
    minor.hf = CoefficientSpec("affine", (n,), const=rng.uniform(-0.5, 0.5, n),
                               c0_mat=rng.uniform(-0.5, 0.5, (n, n)), name="hf")
    if d0:
        c0_law = ("gaussian_walk", rng.uniform(-0.5, 0.5, n), rng.uniform(-0.2, 0.2, n),
                  rng.uniform(-0.5, 0.5, (n, d0)))
    else:
        c0_law = ("constant", rng.uniform(-0.5, 0.5, n))
    return make_spec(
        dims, delta=float(rng.uniform(0.0, 0.6)), lam=spd(rng, n), lam0=spd(rng, n),
        minor=minor,
        major_flow=MajorFlow.build(dims, l0=rng.uniform(-0.5, 0.5, n),
                                   s0=rng.uniform(-0.5, 0.5, (n, d0))),
        major_cost=QuadraticMajorCost.build(dims, c0f=spd(rng, n), h0f=rng.uniform(-0.5, 0.5, n),
                                            c0g=spd(rng, n), h0g=rng.uniform(-0.5, 0.5, n)),
        chi0=rng.uniform(-1.0, 1.0, n),
        xi_law=DiscreteLaw(rng.uniform(-2.0, 2.0, (len(counts), n)), counts / counts.sum()),
        c0_law=c0_law, maturity_mode=maturity)


def rel_gap(a: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(a - ref)) / max(np.max(np.abs(ref)), 1.0))


@SETTINGS
@given(markets())
def test_finite_market_on_its_empirical_law_is_the_population_limit(case) -> None:
    n, d0, branching, K, maturity, counts, seed = case
    rng = np.random.default_rng(seed)
    spec = random_spec(n, d0, maturity, counts, rng)
    lat = build_lattice(TimeGrid(1.0, K), d0=d0, branching=branching)
    ctx = MarketContext(spec, lat)
    pop = make_population(ctx, assignments=np.repeat(np.arange(len(counts)), counts))
    assert np.array_equal(pop.weights, ctx.atoms.weights)
    eq = solve_full_equilibrium(ctx, pop)
    mf = solve_mfg(ctx)
    assert rel_gap(eq.price.values, mf.price.values) <= TOL
    assert rel_gap(eq.beta_norm.values, mf.beta_norm.values) <= TOL
    basis = ((counts / counts.sum())[:, None, None] * _atom_prices(ctx)).sum(axis=0)
    assert rel_gap(basis, eq.price.values) <= TOL
