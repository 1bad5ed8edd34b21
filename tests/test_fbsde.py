from __future__ import annotations

import numpy as np
import pytest

from marketclear import fbsde
from marketclear.errors import BudgetError, SolverError
from marketclear.fbsde import (DirectSolver, FbsdeSystem, LevelCoeffs, residual,
                               solve_direct, solve_picard)
from marketclear.finite_market import (MarketContext, build_full_system,
                                       make_population, solve_minor_clearing)
from marketclear.scenario import TimeGrid, build_lattice, constant_field

from conftest import noiseless_unit_spec, scalar_market_spec


def full_system(spec, lattice, seed=0, assignments=None):
    ctx = MarketContext(spec, lattice)
    pop = make_population(spec, ctx.atoms, seed=seed, assignments=assignments)
    return build_full_system(ctx, ctx.group_tables(pop), pop.weights)


def one_step_system(g_leaves, bb=0.0, horizon=1.0, Afb=0.0, G=0.0):
    """Scalar one-step binary-tree system with per-leaf terminal constants."""
    lat = build_lattice(TimeGrid(horizon, 1), d0=1)

    def coeffs(k):
        zero = np.zeros((1, 1, 1))
        return LevelCoeffs(Aff=zero, Afb=np.full((1, 1, 1), Afb), af=np.zeros((1, 1)),
                           S=zero, Bbf=zero, Bbb=zero, bb=np.full((1, 1), bb))

    def terminal():
        return np.full((1, 1, 1), G), np.asarray(g_leaves, dtype=float).reshape(-1, 1)

    return FbsdeSystem(lattice=lat, forward_slices={"x": slice(0, 1)},
                       backward_slices={"y": slice(0, 1)}, initial=np.zeros(1),
                       coeffs=coeffs, terminal=terminal)


# -- conditional expectation and martingale increments ---------------------------


def test_cond_expect_martingale_identity() -> None:
    lat = build_lattice(TimeGrid(1.0, 1), d0=1)
    assert lat.cond_expect(np.array([[3.0], [3.0]]), 0)[0, 0] == pytest.approx(3.0)
    sol = solve_direct(one_step_system([3.0, 3.0]))
    assert sol.backward[0, 0] == pytest.approx(3.0)
    assert np.allclose(sol.deviations, 0.0)


def test_cond_expect_two_point_mean() -> None:
    lat = build_lattice(TimeGrid(1.0, 1), d0=1)
    assert lat.cond_expect(np.array([[2.0], [0.0]]), 0)[0, 0] == pytest.approx(1.0)
    sol = solve_direct(one_step_system([2.0, 0.0]))
    assert sol.pre("y")[0, 0] == pytest.approx(1.0)
    assert sol.deviations[1:, 0] == pytest.approx([1.0, -1.0])
    assert lat.cond_expect(sol.deviations[1:], 0)[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_direct_driver_contribution() -> None:
    sol = solve_direct(one_step_system([2.0, 0.0], bb=3.0, horizon=0.1))
    assert sol.backward[0, 0] == pytest.approx(1.3)


# -- direct solve ---------------------------------------------------------------


def test_zero_model_solves_to_zero() -> None:
    from marketclear.model import Dimensions, DiscreteLaw, make_spec
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    zero = make_spec(Dimensions(1, 1, 0, 2), delta=0.0,
                     xi_law=DiscreteLaw.point([0.0]), chi0=[0.0])
    sol = solve_direct(full_system(zero, lat))
    assert np.max(np.abs(sol.forward)) == pytest.approx(0.0, abs=1e-14)
    assert np.max(np.abs(sol.backward)) == pytest.approx(0.0, abs=1e-14)


def test_noiseless_closed_form_reproduced_exactly_on_grid() -> None:
    spec = noiseless_unit_spec()
    lat = build_lattice(TimeGrid(1.0, 64), d0=0)
    eq = solve_minor_clearing(spec, lat, constant_field(lat, np.zeros(1)))
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
    eq = solve_minor_clearing(spec, lat, constant_field(lat, np.zeros(1)))
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
    sol = solve_direct(system)
    diag = residual(system, sol)
    assert diag.max_equation_residual <= 1e-10


def test_residual_detects_tampering() -> None:
    from marketclear.model import Dimensions, DiscreteLaw, make_spec
    zero = make_spec(Dimensions(1, 1, 0, 1), delta=0.0,
                     xi_law=DiscreteLaw.point([0.0]))
    lat = build_lattice(TimeGrid(1.0, 2), d0=1)
    system = full_system(zero, lat)
    sol = solve_direct(system)
    assert residual(system, sol).max_equation_residual == pytest.approx(0.0, abs=1e-14)
    sol.backward[3, system.backward_slices["Y0"]] += 1.0
    assert residual(system, sol).max_equation_residual >= 0.5


def test_singular_level_system_raises_solver_error() -> None:
    # Pbar = G = 1 and dt*Afb = 1, so I - dt*Pbar*Afb is exactly zero at level 0
    system = one_step_system([0.0, 0.0], Afb=1.0, G=1.0)
    with pytest.raises(SolverError, match="level 0"):
        DirectSolver(system)


def test_factor_budget_raises_before_the_matrix_pass(monkeypatch) -> None:
    system = full_system(scalar_market_spec(), build_lattice(TimeGrid(1.0, 3), d0=1))
    mf, mb = system.mf, system.mb
    lat = system.lattice
    need = (lat.steps * (mb * mb + 4 * mb * mf) + lat.num_nodes * (3 * mf + 5 * mb)) * 8
    monkeypatch.setattr(fbsde, "FACTOR_BUDGET_BYTES", need)
    DirectSolver(system)
    monkeypatch.setattr(fbsde, "FACTOR_BUDGET_BYTES", need - 1)
    calls = []
    coeffs = system.coeffs
    system.coeffs = lambda k: calls.append(k) or coeffs(k)
    with pytest.raises(BudgetError):
        DirectSolver(system)
    assert calls == []


def test_coefficient_calls_per_level() -> None:
    # fresh solve: matrix pass, vector pass, residual; re-solve: the last two
    spec = scalar_market_spec()
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    system = full_system(spec, lat, assignments=[0, 1])
    calls, coeffs = [], system.coeffs

    def counted(k):
        calls.append(k)
        return coeffs(k)

    system.coeffs = counted
    solver = DirectSolver(system)
    solver.solve()
    assert sorted(calls) == sorted(3 * list(range(lat.steps)))
    calls.clear()
    solver.solve(system)
    assert sorted(calls) == sorted(2 * list(range(lat.steps)))


# -- fixed-point solve -----------------------------------------------------------


def test_picard_matches_direct_on_affine_benchmark() -> None:
    spec = scalar_market_spec(delta=0.4)
    lat = build_lattice(TimeGrid(1.0, 4), d0=1)
    system = full_system(spec, lat, assignments=[0, 1])
    direct = solve_direct(system)
    picard = solve_picard(system)
    gap = max(np.max(np.abs(direct.forward - picard.forward)),
              np.max(np.abs(direct.backward - picard.backward)))
    assert gap <= 1e-8


def test_picard_zero_model_converges_immediately() -> None:
    from marketclear.model import Dimensions, DiscreteLaw, make_spec
    zero = make_spec(Dimensions(1, 1, 0, 1), delta=0.0,
                     xi_law=DiscreteLaw.point([0.0]))
    lat = build_lattice(TimeGrid(1.0, 2), d0=1)
    sol = solve_picard(full_system(zero, lat))
    assert sol.diagnostics.iterations == 1
    assert np.max(np.abs(sol.backward)) == pytest.approx(0.0, abs=1e-14)


def test_damping_does_not_move_the_fixed_point() -> None:
    # horizon short enough that the undamped sweep map contracts
    spec = scalar_market_spec(delta=0.3)
    lat = build_lattice(TimeGrid(0.5, 3), d0=1)
    system = full_system(spec, lat, assignments=[0, 1])
    full = solve_picard(system, damping=1.0)
    half = solve_picard(system, damping=0.5)
    gap = max(np.max(np.abs(full.forward - half.forward)),
              np.max(np.abs(full.backward - half.backward)))
    assert gap <= 1e-8


def test_picard_nonconvergence_raises() -> None:
    spec = scalar_market_spec()
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    system = full_system(spec, lat, assignments=[0, 1])
    with pytest.raises(SolverError):
        solve_picard(system, max_iter=1)


# -- martingale structure ---------------------------------------------------------


def test_deviations_have_zero_conditional_mean() -> None:
    spec = scalar_market_spec(delta=0.4)
    lat = build_lattice(TimeGrid(1.0, 4), d0=1)
    sol = solve_direct(full_system(spec, lat, assignments=[0, 1]))
    for k in range(1, lat.steps + 1):
        lo, hi = lat.level_range(k)
        m = lat.nodes_at(k - 1)
        dev = sol.deviations[lo:hi].reshape(m, lat.fanout, -1)
        weighted = (dev * lat.child_probs[None, :, None]).sum(axis=1)
        assert np.max(np.abs(weighted)) <= 1e-12


def test_z_projection_shape_and_noiseless_zero() -> None:
    spec = noiseless_unit_spec()
    lat = build_lattice(TimeGrid(1.0, 8), d0=0)
    eq = solve_minor_clearing(spec, lat, constant_field(lat, np.zeros(1)))
    z = eq.solution.z_projection("Y0")
    assert z.shape == (lat.num_nodes, 1, 0)
