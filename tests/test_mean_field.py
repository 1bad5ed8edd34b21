from __future__ import annotations

import numpy as np
import pytest

from marketclear.errors import UnsupportedModelError, ValidationError
from marketclear.finite_market import (ClearingOperator, MarketContext, build_full_system,
                                       make_population, solve_full_equilibrium)
from marketclear.mean_field import limit_classes, solve_mfg
from marketclear.metrics import price_gap
from marketclear.model import (CoefficientSpec, Dimensions, DiscreteLaw,
                               MinorBundle, make_spec)
from marketclear.scenario import TimeGrid, build_lattice

from conftest import homogeneous_study_spec


def tree(K=4, T=1.0):
    return build_lattice(TimeGrid(T, K), d0=1)


def limit_system(spec, lat):
    """The mean system: the full system of the limit's one cost class."""
    ctx = MarketContext(spec, lat)
    classes = limit_classes(ctx)
    return build_full_system(ctx, classes.tables, classes.weights)


def test_reduced_system_has_six_blocks() -> None:
    # the mean system is the full system of one group: (x0, xbar, rbar) and
    # (p0, ybar, pbar) sit in the slices of group 0
    spec = homogeneous_study_spec()
    lat = tree(2)
    system = limit_system(spec, lat)
    assert system.mf == 3 and system.mb == 3
    assert set(system.forward_slices) == {"x0", "X0", "R0"}
    assert set(system.backward_slices) == {"p0", "Y0", "P0"}


def test_point_mass_law_collapses_to_finite_population() -> None:
    dims = Dimensions(1, 1, 0, 4)
    spec = make_spec(dims, delta=0.4, xi_law=DiscreteLaw.point([1.0]),
                     c0_law=("gaussian_walk", [0.2], [0.1], [[0.3]]))
    lat = tree(4)
    ctx = MarketContext(spec, lat)
    mf = solve_mfg(ctx)
    for N in (1, 3, 8):
        eq = solve_full_equilibrium(ctx, make_population(ctx, N=N))
        assert price_gap(eq.price, mf.price, lat) <= 1e-16 * lat.grid.horizon
        assert np.max(np.abs(eq.beta_norm.values - mf.beta_norm.values)) <= 1e-12


def test_unit_population_equivalence_with_two_atoms() -> None:
    # N = 1 finite market and the population limit share the same reduced system
    spec = homogeneous_study_spec(N=1)
    lat = tree(3)
    ctx = MarketContext(spec, lat)
    mf = solve_mfg(ctx)
    gaps = []
    for a in range(ctx.atoms.count):
        pop = make_population(ctx, N=1, assignments=[a])
        eq = solve_full_equilibrium(ctx, pop)
        gaps.append(eq.price.values)
    # the mean of the single-agent prices over atoms is not the limit price,
    # but each degenerate (one-atom) limit equals the matching N=1 market
    for a in range(ctx.atoms.count):
        one = make_spec(spec.dims, delta=spec.delta,
                        xi_law=DiscreteLaw.point(ctx.atoms.xi[a]),
                        c0_law=spec.c0_law)
        mf_one = solve_mfg(MarketContext(one, lat))
        assert np.max(np.abs(mf_one.price.values - gaps[a])) <= 1e-11


def test_zero_discount_terminal_mean_has_no_amplification() -> None:
    spec = homogeneous_study_spec(delta=0.0)
    lat = tree(2)
    system = limit_system(spec, lat)
    ysl = system.backward_slices["Y0"]
    xsl = system.forward_slices["X0"]
    assert np.allclose(system.G[ysl, xsl], 1.0)
    assert np.allclose(system.g[:, :, ysl], 0.0)


def test_deviation_fields_average_to_zero(small_tree) -> None:
    spec = homogeneous_study_spec()
    ctx = MarketContext(spec, small_tree)
    mf = solve_mfg(ctx)
    w = ctx.atoms.weights
    (family,) = mf.deviations  # the limit's one class: one flow per atom
    dx = sum(w[a] * family.field("dx", a) for a in range(len(w)))
    dy = sum(w[a] * family.field("dy", a) for a in range(len(w)))
    assert np.max(np.abs(dx)) <= 1e-12
    assert np.max(np.abs(dy)) <= 1e-12


def test_atom_reconstruction_matches_means(small_tree) -> None:
    spec = homogeneous_study_spec()
    ctx = MarketContext(spec, small_tree)
    mf = solve_mfg(ctx)
    w = ctx.atoms.weights
    for name, mean in (("x", "xbar"), ("y", "ybar")):
        recon = sum(w[a] * mf.atom_field(name, a) for a in range(len(w)))
        assert np.max(np.abs(recon - mf.common_field(mean))) <= 1e-10


def test_flow_and_price_are_common_fields(small_tree) -> None:
    # per-atom flow fields coincide: r and p carry no idiosyncratic source
    spec = homogeneous_study_spec()
    mf = solve_mfg(MarketContext(spec, small_tree))
    assert np.array_equal(mf.atom_field("r", 0), mf.atom_field("r", 1))
    assert np.array_equal(mf.atom_field("p", 0), mf.atom_field("p", 1))


def test_zero_model_limit_is_zero(small_tree) -> None:
    spec = make_spec(Dimensions(1, 1, 0, 4), xi_law=DiscreteLaw.point([0.0]))
    mf = solve_mfg(MarketContext(spec, small_tree))
    assert np.max(np.abs(mf.price.values)) <= 1e-13
    assert np.max(np.abs(mf.beta_norm.values)) <= 1e-13


def test_flow_rule_direct_substitution() -> None:
    from hamiltonian_oracle import minimizer_beta_mfg
    beta = minimizer_beta_mfg(p0=0.0, ybar=2.0, pbar=2.0, lam0=2.0, lam=1.0)
    assert beta == pytest.approx(1.0)
    # induced price -ybar + lam * beta
    assert -2.0 + 1.0 * beta == pytest.approx(-1.0)


def test_non_closing_coefficients_rejected() -> None:
    # a cost curvature that depends on the idiosyncratic state would break the
    # closure of the means; matrix coefficients are refused unless constant or
    # time-dependent, at n = 1 as at n = 2
    for n in (1, 2):
        dims = Dimensions(n, 1, 0, 2)
        bundle = MinorBundle.build(dims)
        bundle.cf = CoefficientSpec("affine", (n,), const=np.ones(n), ci_mat=np.eye(n),
                                    name="cf")
        law = DiscreteLaw(np.array([np.zeros(n), np.ones(n)]), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError, match="cf"):
            make_spec(dims, minor=bundle, ci_law=law)


def test_heterogeneous_population_rejected(small_tree) -> None:
    dims = Dimensions(1, 1, 0, 2)
    spec = make_spec(dims, minor=[MinorBundle.build(dims), MinorBundle.build(dims)])
    with pytest.raises(UnsupportedModelError):
        solve_mfg(MarketContext(spec, small_tree))


# -- maturity -----------------------------------------------------------------


def maturity_spec(c0_law):
    dims = Dimensions(1, 1, 0, 4)
    return make_spec(dims, delta=0.3, maturity_mode=True,
                     minor=MinorBundle.build(dims, cg=0.0),
                     xi_law=DiscreteLaw(np.array([[0.0], [2.0]]), np.array([0.5, 0.5])),
                     c0_law=c0_law)


def test_maturity_constant_payoff_pins_terminal_price(small_tree) -> None:
    mf = solve_mfg(MarketContext(maturity_spec(("constant", [5.0])), small_tree))
    tsl = small_tree.terminal_slice
    assert np.max(np.abs(mf.price.values[tsl] - 5.0)) <= 1e-12


def test_maturity_walk_payoff_matches_nodewise(small_tree) -> None:
    spec = maturity_spec(("gaussian_walk", [0.4], [0.2], [[0.5]]))
    ctx = MarketContext(spec, small_tree)
    mf = solve_mfg(ctx)
    tsl = small_tree.terminal_slice
    assert np.max(np.abs(mf.price.values[tsl] - ctx.exo.c0[tsl])) <= 1e-12


def test_maturity_discount_is_inert(small_tree) -> None:
    prices = []
    for delta in (0.05, 0.8):
        dims = Dimensions(1, 1, 0, 4)
        spec = make_spec(dims, delta=delta, maturity_mode=True,
                         minor=MinorBundle.build(dims, cg=0.0),
                         xi_law=DiscreteLaw.point([1.0]), c0_law=("constant", [2.0]))
        prices.append(solve_mfg(MarketContext(spec, small_tree)).price.values)
    assert np.allclose(prices[0], prices[1], atol=1e-12)


def test_maturity_override_blocks(small_tree) -> None:
    # the maturity terminal map of the mean system pins the backward means
    # to (p0, ybar, pbar)(T) = (-c0, -c0, 0) with no feedback on x
    spec = maturity_spec(("constant", [5.0]))
    system = limit_system(spec, small_tree)
    G, g = system.G, system.g[:, 0]
    assert np.all(G == 0.0)
    assert np.allclose(g[:, system.backward_slices["p0"]], -5.0)
    assert np.allclose(g[:, system.backward_slices["Y0"]], -5.0)
    assert np.allclose(g[:, system.backward_slices["P0"]], 0.0)


def test_mean_clearing_operator_matches_full_limit(small_tree) -> None:
    spec = homogeneous_study_spec()
    ctx = MarketContext(spec, small_tree)
    mf = solve_mfg(ctx)
    classes = limit_classes(ctx)
    op = ClearingOperator(ctx, classes.tables, classes.weights)
    sol, (phi,) = op.solve(mf.beta_norm.values[None])
    assert np.max(np.abs(phi - mf.price.values)) <= 1e-11
    assert np.max(np.abs(sol.field("Y0") - mf.common_field("ybar"))) <= 1e-11
