"""Property tests of the affine iteration for callable major costs.

Each example draws a market of ``model_strategy`` with a strongly convex
callable major cost: the gradients C x + h(c0) of a quadratic cost, C
symmetric positive definite and h affine in the common news, plus a
bounded-curvature term a tanh(x) (elementwise, curvature in [0, a]) on the
running and the terminal gradient.  With a = 0 the callable cost is the
affine twin of the quadratic cost, and the iteration must reproduce the
direct solve of that quadratic cost; with a > 0 the solution must satisfy
the callable cost's own equation rows to the direct solver's gate.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings

from marketclear.fbsde import DIRECT_RESIDUAL_GATE
from marketclear.finite_market import MarketContext, make_population, solve_full_equilibrium
from marketclear.model import CallableMajorCost
from marketclear.scenario import TimeGrid, build_lattice

from conftest import scalar_market_spec
from model_strategy import build, shapes

SETTINGS = settings(max_examples=40)


def solve(spec, lat, assignments):
    ctx = MarketContext(spec, lat)
    return solve_full_equilibrium(ctx, make_population(ctx, assignments=assignments))


@SETTINGS
@given(shapes(major="callable"))
def test_callable_cost_solves_to_its_twin_or_its_own_rows(shape) -> None:
    spec, lat = build(shape)
    eq = solve(spec, lat, shape.assignments)
    assert eq.diagnostics.converged
    assert eq.diagnostics.max_equation_residual <= DIRECT_RESIDUAL_GATE
    assert eq.clearing_residual <= 1e-10
    if shape.tanh == 0.0:
        twin = solve(*build(replace(shape, tanh=None)), shape.assignments)
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
    spec = replace(scalar_market_spec(), major_cost=CallableMajorCost(
        dfdx=lambda t, x, c0: x + 0.1 * np.tanh(x), dgdx=lambda x, c0: x))
    lat = build_lattice(TimeGrid(1.0, 2), d0=1)
    eq = solve_full_equilibrium(MarketContext(spec, lat))
    assert eq.diagnostics.converged
    assert len(calls) == 2
