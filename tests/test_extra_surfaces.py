from __future__ import annotations

import warnings

import numpy as np
import pytest

from marketclear.errors import BudgetError, SolverError, UnsupportedModelError
from marketclear.finite_market import (MarketContext, make_population,
                                       solve_full_equilibrium)
from marketclear.mean_field import solve_mfg
from marketclear.metrics import EmpiricalMeasure, price_gap
from marketclear.model import (CallableMajorCost, CoefficientSpec, Dimensions,
                               DiscreteLaw, MinorBundle, QuadraticMajorCost,
                               make_spec)
from marketclear.scenario import TimeGrid, build_lattice, evaluate_exogenous


def test_two_dimensional_common_noise_solves_and_clears() -> None:
    dims = Dimensions(n=2, d0=2, d=0, N=2)
    spec = make_spec(
        dims, delta=0.3, lam=[[1.2, 0.1], [0.1, 1.0]], lam0=1.0,
        minor=MinorBundle.build(dims, sigma0=[[0.3, 0.1], [0.0, 0.2]],
                                cf=[[1.0, 0.2], [0.2, 1.1]]),
        xi_law=DiscreteLaw(np.array([[0.5, 1.0], [1.5, -0.5]]), np.array([0.5, 0.5])),
        c0_law=("gaussian_walk", [0.1, 0.0], [0.0, 0.1], [[0.2, 0.0], [0.0, 0.3]]))
    lat = build_lattice(TimeGrid(1.0, 3), d0=2)
    assert lat.fanout == 4
    ctx = MarketContext(spec, lat)
    pop = make_population(ctx, assignments=[0, 1])
    eq = solve_full_equilibrium(ctx, pop)
    assert eq.clearing_residual <= 1e-10
    assert eq.diagnostics.max_equation_residual <= 1e-10


def test_callable_major_cost_matches_affine_twin() -> None:
    # a callable gradient encoding the same affine law must reproduce the
    # direct affine solve through the affine iteration, at every horizon
    dims = Dimensions(1, 1, 0, 2)
    c0f, h0f, c0g, h0g = 0.9, 0.15, 1.1, 0.05
    affine = make_spec(dims, delta=0.3,
                       major_cost=QuadraticMajorCost.build(dims, c0f=c0f, h0f=h0f,
                                                           c0g=c0g, h0g=h0g),
                       xi_law=DiscreteLaw(np.array([[0.5], [1.5]]), np.array([0.5, 0.5])),
                       c0_law=("constant", [0.1]))
    wrapped = make_spec(dims, delta=0.3,
                        major_cost=CallableMajorCost(
                            dfdx=lambda t, x, c0: c0f * x + h0f,
                            dgdx=lambda x, c0: c0g * x + h0g),
                        xi_law=affine.xi_law, c0_law=affine.c0_law)
    for T in (1.0, 2.0, 4.0, 8.0):
        lat = build_lattice(TimeGrid(T, 3), d0=1)
        ctx_a, ctx_w = MarketContext(affine, lat), MarketContext(wrapped, lat)
        pop_a = make_population(ctx_a, assignments=[0, 1])
        pop_w = make_population(ctx_w, assignments=[0, 1])
        eq_a = solve_full_equilibrium(ctx_a, pop_a)
        eq_w = solve_full_equilibrium(ctx_w, pop_w)
        assert np.max(np.abs(eq_a.price.values - eq_w.price.values)) <= 1e-8, T
        assert np.max(np.abs(eq_a.beta_hat.values - eq_w.beta_hat.values)) <= 1e-8, T


def tanh_spec():
    """The x + 0.1 tanh x running gradient, a quadratic terminal cost, two atoms."""
    return make_spec(Dimensions(1, 1, 0, 4), delta=0.2,
                     major_cost=CallableMajorCost(
                         dfdx=lambda t, x, c0: x + 0.1 * np.tanh(x),
                         dgdx=lambda x, c0: x),
                     xi_law=DiscreteLaw(np.array([[0.0], [2.0]]), np.array([0.5, 0.5])),
                     c0_law=("constant", [0.1]))


def test_callable_major_cost_solves_at_long_horizons() -> None:
    spec = tanh_spec()
    for T in (1.0, 2.0, 4.0, 8.0):
        lat = build_lattice(TimeGrid(T, 6), d0=1)
        ctx = MarketContext(spec, lat)
        pop = make_population(ctx, assignments=[0, 1, 0, 1])
        eq = solve_full_equilibrium(ctx, pop)
        mf = solve_mfg(ctx)
        for diagnostics in (eq.diagnostics, mf.diagnostics):
            assert diagnostics.converged, T
            assert diagnostics.max_equation_residual <= 1e-10, T
            assert 2 <= diagnostics.iterations <= 20, T
        assert eq.clearing_residual <= 1e-10, T


def test_nonlinear_limit_solves_by_fixed_point() -> None:
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    mf = solve_mfg(MarketContext(tanh_spec(), lat))
    assert mf.diagnostics.converged


def test_non_contracting_callable_cost_raises_before_overflow() -> None:
    # secant curvatures in about [-8, 10]: at this horizon the step grows
    spec = make_spec(Dimensions(1, 1, 0, 2), delta=0.2,
                     major_cost=CallableMajorCost(
                         dfdx=lambda t, x, c0: x + 3.0 * np.sin(3.0 * x) + 0.5,
                         dgdx=lambda x, c0: x),
                     xi_law=DiscreteLaw(np.array([[0.0], [2.0]]), np.array([0.5, 0.5])))
    lat = build_lattice(TimeGrid(4.0, 6), d0=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="stopped contracting"):
            solve_full_equilibrium(MarketContext(spec, lat, force=True))


def test_time_dependent_fee_schedule() -> None:
    dims = Dimensions(1, 1, 0, 1)
    lam = CoefficientSpec("time", (1, 1), times=[0.0, 0.5],
                          values=[[[1.0]], [[2.0]]], name="lambda")
    spec = make_spec(dims, lam=lam)
    lat = build_lattice(TimeGrid(1.0, 4), d0=1)
    exo = evaluate_exogenous(lat, spec)
    assert exo.lam.shape == exo.lam_inv.shape == (lat.steps + 1, 1, 1)
    assert np.allclose(exo.lam[1], 1.0)
    assert np.allclose(exo.lam[2], 2.0)
    assert np.allclose(exo.lam_inv[3], 0.5)


def test_idiosyncratic_process_coupling_exact_at_matching_weights() -> None:
    # agents whose empirical atom weights equal the law weights reproduce the
    # population limit exactly, including per-atom flow differences
    dims = Dimensions(1, 1, 0, 2)
    bundle = MinorBundle.build(dims)
    bundle.hf = CoefficientSpec("affine", (1,), const=[0.1], ci_mat=[[0.5]], name="hf")
    bundle.l = CoefficientSpec("affine", (1,), const=[0.0], ci_mat=[[0.3]], name="l")
    spec = make_spec(dims, delta=0.3, minor=bundle,
                     xi_law=DiscreteLaw.point([1.0]),
                     ci_law=DiscreteLaw(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5])),
                     c0_law=("constant", [0.1]))
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    ctx = MarketContext(spec, lat)
    assert ctx.atoms.count == 2
    mf = solve_mfg(ctx)
    pop = make_population(ctx, N=2, assignments=[0, 1])
    eq = solve_full_equilibrium(ctx, pop)
    assert price_gap(eq.price, mf.price, lat) <= 1e-20
    for a in range(2):
        assert np.max(np.abs(eq.group_field("Y", a) - mf.atom_field("y", a))) <= 1e-10
        assert np.max(np.abs(eq.group_field("X", a) - mf.atom_field("x", a))) <= 1e-10


def test_affine_in_news_flow_coefficient_solves() -> None:
    dims = Dimensions(1, 1, 0, 2)
    bundle = MinorBundle.build(dims)
    bundle.l = CoefficientSpec("affine", (1,), const=[0.1], c0_mat=[[0.4]], name="l")
    spec = make_spec(dims, delta=0.3, minor=bundle,
                     xi_law=DiscreteLaw(np.array([[0.5], [1.5]]), np.array([0.5, 0.5])),
                     c0_law=("gaussian_walk", [0.2], [0.0], [[0.5]]))
    lat = build_lattice(TimeGrid(1.0, 4), d0=1)
    eq = solve_full_equilibrium(MarketContext(spec, lat))
    assert eq.clearing_residual <= 1e-10
    assert eq.diagnostics.max_equation_residual <= 1e-10


def test_atom_budget_enforced() -> None:
    with pytest.raises(BudgetError):
        EmpiricalMeasure(np.zeros((5000, 1)))


def test_converge_gate_exit_code(tmp_path) -> None:
    from marketclear.cli import main
    model = tmp_path / "m.model"
    model.write_text("""
[dimensions]
n = 1
d0 = 1
d = 0
N = 4

[laws]
xi_atoms = 0.0 2.0
xi_weights = 0.5 0.5
""")
    # two usable population sizes cannot anchor a slope fit: the gate trips
    code = main(["converge", "--model", str(model), "--out",
                 str(tmp_path / "out"), "--steps", "2", "--n-list", "8,16",
                 "--resamples", "2"])
    assert code == 4


def test_idiosyncratic_brownian_loading_rejected() -> None:
    dims = Dimensions(1, 1, 1, 2)
    spec = make_spec(dims, minor=MinorBundle.build(dims, sigma=[[0.5]]))
    lat = build_lattice(TimeGrid(1.0, 2), d0=1)
    with pytest.raises(UnsupportedModelError):
        MarketContext(spec, lat)
    # zero loading with d > 0 stays inside the solvable class
    ok = make_spec(dims, minor=MinorBundle.build(dims, sigma=[[0.0]]))
    MarketContext(ok, lat)


def test_raw_major_position_accessor() -> None:
    dims = Dimensions(1, 1, 0, 4)
    spec = make_spec(dims, delta=0.3, chi0=[0.5],
                     xi_law=DiscreteLaw(np.array([[0.0], [2.0]]), np.array([0.5, 0.5])),
                     c0_law=("constant", [0.1]))
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    eq = solve_full_equilibrium(MarketContext(spec, lat))
    # the unnormalized major position is N x0, starting at N chi0
    raw = eq.population.N * eq.major_field("x0")
    assert raw[0, 0] == pytest.approx(4 * 0.5)


def test_trinomial_lattice_equilibrium() -> None:
    dims = Dimensions(1, 1, 0, 2)
    spec = make_spec(dims, delta=0.3,
                     xi_law=DiscreteLaw(np.array([[0.5], [1.5]]), np.array([0.5, 0.5])),
                     c0_law=("gaussian_walk", [0.1], [0.0], [[0.2]]))
    lat = build_lattice(TimeGrid(1.0, 3), d0=1, branching=3)
    assert lat.fanout == 3
    ctx = MarketContext(spec, lat)
    pop = make_population(ctx, assignments=[0, 1])
    eq = solve_full_equilibrium(ctx, pop)
    assert eq.clearing_residual <= 1e-10
    assert eq.diagnostics.max_equation_residual <= 1e-10
