"""Property tests of the affine iteration for callable major costs.

Each example draws a strongly convex major cost, an affine gradient
C x + h + k c0 with C symmetric positive definite, plus a bounded-curvature
term a tanh(x) (elementwise, curvature in [0, a]) on the running and the
terminal gradient.  With a = 0 the callable cost is the affine twin of a
quadratic cost, and the iteration must reproduce the direct solve of that
quadratic cost; with a > 0 the solution must satisfy the callable cost's own
equation rows to the direct solver's gate.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from marketclear.fbsde import DIRECT_RESIDUAL_GATE
from marketclear.finite_market import MarketContext, make_population, solve_full_equilibrium
from marketclear.model import (CallableMajorCost, CoefficientSpec, Dimensions, DiscreteLaw,
                               QuadraticMajorCost, make_spec)
from marketclear.scenario import TimeGrid, build_lattice

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def spd(rng, n: int) -> np.ndarray:
    """A symmetric matrix with eigenvalues in [0.5, 2]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * rng.uniform(0.5, 2.0, n)) @ q.T


def market(n: int, maturity: bool, major_cost):
    dims = Dimensions(n, 1, 0, 2)
    return make_spec(dims, delta=0.3, major_cost=major_cost, maturity_mode=maturity,
                     chi0=np.full(n, 0.4),
                     xi_law=DiscreteLaw(np.array([np.full(n, 0.5), np.full(n, 1.5)]),
                                        np.array([0.5, 0.5])),
                     c0_law=("gaussian_walk", np.full(n, 0.2), np.full(n, 0.1),
                             np.full((n, 1), 0.3)))


def solve(spec, lat):
    ctx = MarketContext(spec, lat)
    pop = make_population(ctx, assignments=[0, 1])
    return solve_full_equilibrium(ctx, pop)


@SETTINGS
@given(n=st.sampled_from([1, 2]), T=st.sampled_from([1.0, 2.0, 4.0]),
       K=st.sampled_from([2, 3]), maturity=st.booleans(),
       a=st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
       seed=st.integers(0, 2**16))
def test_callable_cost_solves_to_its_twin_or_its_own_rows(n, T, K, maturity, a, seed) -> None:
    rng = np.random.default_rng(seed)
    cf, cg = spd(rng, n), spd(rng, n)
    hf, hg, k = rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n), rng.uniform(-0.3, 0.3)
    callable_cost = CallableMajorCost(
        dfdx=lambda t, x, c0: cf @ x + hf + k * c0 + a * np.tanh(x),
        dgdx=lambda x, c0: cg @ x + hg + k * c0 + a * np.tanh(x))
    lat = build_lattice(TimeGrid(T, K), d0=1)
    eq = solve(market(n, maturity, callable_cost), lat)
    assert eq.diagnostics.converged
    assert eq.diagnostics.max_equation_residual <= DIRECT_RESIDUAL_GATE
    assert eq.clearing_residual <= 1e-10
    if a == 0.0:
        affine = lambda h: CoefficientSpec("affine", (n,), const=h, c0_mat=k * np.eye(n))
        twin = solve(market(n, maturity, QuadraticMajorCost(cf, affine(hf), cg, affine(hg))), lat)
        assert np.max(np.abs(eq.price.values - twin.price.values)) <= 1e-8
        assert np.max(np.abs(eq.beta_hat.values - twin.beta_hat.values)) <= 1e-8
        assert np.max(np.abs(eq.solution.forward - twin.solution.forward)) <= 1e-8


def test_secant_pairs_are_sampled_once_per_solve(monkeypatch) -> None:
    # the assumption checks and the affine twin's curvatures read one sample
    # of each gradient's secant pairs
    from marketclear import model
    calls, real = [], model._secant_range
    monkeypatch.setattr(model, "_secant_range",
                        lambda *args: calls.append(1) or real(*args))
    spec = market(1, False, CallableMajorCost(dfdx=lambda t, x, c0: x + 0.1 * np.tanh(x),
                                              dgdx=lambda x, c0: x))
    lat = build_lattice(TimeGrid(1.0, 2), d0=1)
    eq = solve_full_equilibrium(MarketContext(spec, lat))
    assert eq.diagnostics.converged
    assert len(calls) == 2
