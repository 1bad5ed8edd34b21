from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from marketclear import fbsde
from marketclear.errors import BudgetError, SolverError, ValidationError
from marketclear.fbsde import DirectSolver, FbsdeSystem, residual
from marketclear.finite_market import (MarketContext, build_full_system,
                                       make_population, solve_minor_clearing)
from marketclear.scenario import TimeGrid, build_lattice, constant_field

from conftest import noiseless_unit_spec, scalar_market_spec


def full_system(spec, lattice, seed=0, assignments=None):
    ctx = MarketContext(spec, lattice)
    pop = make_population(ctx, seed=seed, assignments=assignments)
    return build_full_system(ctx, ctx.group_tables(pop), pop.weights)


def one_step_system(g_leaves, bb=0.0, horizon=1.0, Afb=0.0, G=0.0):
    """Scalar one-step binary-tree system with per-leaf terminal constants."""
    lat = build_lattice(TimeGrid(horizon, 1), d0=1)
    zero = np.zeros((1, 1, 1))
    return FbsdeSystem(lattice=lat, forward_slices={"x": slice(0, 1)},
                       backward_slices={"y": slice(0, 1)},
                       Afb=np.full((1, 1, 1), Afb), Bbf=zero,
                       G=np.full((1, 1), G), initial=zero, af=zero, S=np.zeros((1, 1, 1, 1)),
                       bb=np.full((1, 1, 1), bb),
                       g=np.asarray(g_leaves, dtype=float).reshape(-1, 1, 1))


# -- conditional expectation and martingale increments ---------------------------


def test_cond_expect_martingale_identity() -> None:
    lat = build_lattice(TimeGrid(1.0, 1), d0=1)
    assert lat.cond_expect(np.array([[3.0], [3.0]]), 0)[0, 0] == pytest.approx(3.0)
    sol = DirectSolver(one_step_system([3.0, 3.0])).solve()
    assert sol.field("y")[0, 0] == pytest.approx(3.0)
    assert np.allclose(sol.deviations(), 0.0)


def test_cond_expect_two_point_mean() -> None:
    lat = build_lattice(TimeGrid(1.0, 1), d0=1)
    assert lat.cond_expect(np.array([[2.0], [0.0]]), 0)[0, 0] == pytest.approx(1.0)
    sol = DirectSolver(one_step_system([2.0, 0.0])).solve()
    assert sol.pre("y")[0, 0] == pytest.approx(1.0)
    assert sol.deviations()[1:, 0] == pytest.approx([1.0, -1.0])
    assert lat.cond_expect(sol.deviations()[1:], 0)[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_direct_driver_contribution() -> None:
    sol = DirectSolver(one_step_system([2.0, 0.0], bb=3.0, horizon=0.1)).solve()
    assert sol.field("y")[0, 0] == pytest.approx(1.3)


# -- direct solve ---------------------------------------------------------------


def test_zero_model_solves_to_zero() -> None:
    from marketclear.model import Dimensions, DiscreteLaw, make_spec
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    zero = make_spec(Dimensions(1, 1, 0, 2), delta=0.0,
                     xi_law=DiscreteLaw.point([0.0]), chi0=[0.0])
    sol = DirectSolver(full_system(zero, lat)).solve()
    assert np.max(np.abs(sol.forward)) == pytest.approx(0.0, abs=1e-14)
    assert np.max(np.abs(sol.backward)) == pytest.approx(0.0, abs=1e-14)


def test_noiseless_closed_form_reproduced_exactly_on_grid() -> None:
    spec = noiseless_unit_spec()
    lat = build_lattice(TimeGrid(1.0, 64), d0=0)
    eq = solve_minor_clearing(MarketContext(spec, lat), constant_field(lat, np.zeros(1)))
    t = lat.level_of * lat.dt
    y = eq.group_field("Y", 0)[:, 0]
    assert abs(y[0] - 2.0) <= 2e-2
    assert np.max(np.abs(y - (2.0 - t))) <= 1e-10


def price_sup_error(K: int) -> float:
    """Sup error of the solved price against the closed form phi = -(2 - t).

    The discrete price is exact up to the single first-order Euler offset of
    the pre-driver convention, so this measures the scheme's true order.
    """
    spec = noiseless_unit_spec()
    lat = build_lattice(TimeGrid(1.0, K), d0=0)
    eq = solve_minor_clearing(MarketContext(spec, lat), constant_field(lat, np.zeros(1)))
    t = lat.level_of * lat.dt
    return float(np.max(np.abs(eq.price.values[:, 0] + (2.0 - t))))


def test_first_order_euler_error_and_refinement() -> None:
    err64 = price_sup_error(64)
    err128 = price_sup_error(128)
    assert err64 <= 2e-2
    assert 0.4 <= err128 / err64 <= 0.6


def test_direct_residual_below_tolerance() -> None:
    spec = scalar_market_spec()
    lat = build_lattice(TimeGrid(1.0, 4), d0=1)
    system = full_system(spec, lat, assignments=[0, 1])
    sol = DirectSolver(system).solve()
    (diag,) = residual(system, sol)
    assert diag.max_equation_residual <= 1e-10


def test_residual_detects_tampering() -> None:
    from marketclear.model import Dimensions, DiscreteLaw, make_spec
    zero = make_spec(Dimensions(1, 1, 0, 1), delta=0.0,
                     xi_law=DiscreteLaw.point([0.0]))
    lat = build_lattice(TimeGrid(1.0, 2), d0=1)
    system = full_system(zero, lat)
    sol = DirectSolver(system).solve()
    (diag,) = residual(system, sol)
    assert diag.max_equation_residual == pytest.approx(0.0, abs=1e-14)
    sol.backward[3, 0, system.backward_slices["Y0"]] += 1.0
    (diag,) = residual(system, sol)
    assert diag.max_equation_residual >= 0.5 and not diag.converged


def test_singular_level_system_raises_solver_error() -> None:
    # Pbar = G = 1 and dt*Afb = 1, so I - dt*Pbar*Afb is exactly zero at level 0
    system = one_step_system([0.0, 0.0], Afb=1.0, G=1.0)
    with pytest.raises(SolverError, match="level 0"):
        DirectSolver(system)


def counted_inversions(monkeypatch) -> list:
    """Record every matrix inversion, the matrix pass's one per level."""
    calls, inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(1) or inv(a))
    return calls


def test_factor_budget_raises_before_the_matrix_pass(monkeypatch) -> None:
    system = full_system(scalar_market_spec(), build_lattice(TimeGrid(1.0, 3), d0=1))
    mf, mb = system.mf, system.mb
    lat = system.lattice
    need = (lat.steps * (mb * mb + 4 * mb * mf) + lat.num_nodes * (3 * mf + 4 * mb)) * 8
    monkeypatch.setattr(fbsde, "FACTOR_BUDGET_BYTES", need)
    DirectSolver(system)
    monkeypatch.setattr(fbsde, "FACTOR_BUDGET_BYTES", need - 1)
    calls = counted_inversions(monkeypatch)
    with pytest.raises(BudgetError):
        DirectSolver(system)
    assert calls == []


def test_factor_budget_counts_every_flow_of_a_batch(monkeypatch) -> None:
    system = full_system(scalar_market_spec(), build_lattice(TimeGrid(1.0, 3), d0=1))
    lat = system.lattice
    monkeypatch.setattr(fbsde, "FACTOR_BUDGET_BYTES",
                        fbsde.sweep_floats(lat, system.mf, system.mb, 2) * 8)
    solver = DirectSolver(system)
    assert len(solver.solve(af=np.repeat(system.af, 2, axis=1)).diagnostics) == 2
    with pytest.raises(BudgetError):
        solver.solve(af=np.repeat(system.af, 3, axis=1))


def test_resolve_reuses_the_matrix_pass(monkeypatch) -> None:
    # a fresh solver inverts one matrix per level; its solves, with the
    # system's own constants or new ones, invert none
    spec = scalar_market_spec()
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    system = full_system(spec, lat, assignments=[0, 1])
    calls = counted_inversions(monkeypatch)
    solver = DirectSolver(system)
    assert len(calls) == lat.steps
    calls.clear()
    own = solver.solve()
    shifted = solver.solve(af=system.af + 1.0)
    assert calls == []
    assert not np.array_equal(own.forward, shifted.forward)


def test_solve_changes_constants_only() -> None:
    system = one_step_system([0.0, 0.0])
    with pytest.raises(ValidationError, match="Afb"):
        DirectSolver(system).solve(Afb=system.Afb)


def test_flow_counts_must_agree() -> None:
    system = one_step_system([0.0, 0.0])
    with pytest.raises(ValidationError, match="af"):
        replace(system, af=np.zeros((1, 2, 1)), g=np.zeros((2, 3, 1)))


def test_family_is_not_solved_one_system_at_a_time() -> None:
    system = one_step_system([0.0, 0.0])
    # one solve returns every flow of the family, each read by its index
    pair = replace(system, g=np.array([[[0.0], [1.0]], [[0.0], [1.0]]]))
    family = DirectSolver(pair).solve()
    assert family.forward.shape[1] == len(family.diagnostics) == 2
    assert family.field("y", 0)[0, 0] == 0.0 and family.field("y", 1)[0, 0] == 1.0


# -- martingale structure ---------------------------------------------------------


def test_deviations_have_zero_conditional_mean() -> None:
    spec = scalar_market_spec(delta=0.4)
    lat = build_lattice(TimeGrid(1.0, 4), d0=1)
    sol = DirectSolver(full_system(spec, lat, assignments=[0, 1])).solve()
    for k in range(1, lat.steps + 1):
        lo, hi = lat.level_range(k)
        m = lat.nodes_at(k - 1)
        dev = sol.deviations()[lo:hi].reshape(m, lat.fanout, -1)
        weighted = (dev * lat.child_probs[None, :, None]).sum(axis=1)
        assert np.max(np.abs(weighted)) <= 1e-12
