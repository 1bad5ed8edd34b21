from __future__ import annotations

import numpy as np
import pytest

from marketclear.errors import AssumptionViolationError, BudgetError, ValidationError
from marketclear.fbsde import solve_direct
from marketclear.finite_market import (ClearingOperator, MarketContext,
                                       build_clearing_system,
                                       clearing_residual, make_population,
                                       minor_best_response,
                                       solve_full_equilibrium,
                                       solve_minor_clearing)
from marketclear.model import (Dimensions, DiscreteLaw, MinorBundle,
                               QuadraticMajorCost, make_spec)
from marketclear.scenario import NodeField, TimeGrid, build_lattice, constant_field

from conftest import homogeneous_study_spec, noiseless_unit_spec, scalar_market_spec
from tiny_tree_oracle import TinyTreeOracle


def tree(K=4, T=1.0):
    return build_lattice(TimeGrid(T, K), d0=1)


# -- price and terminal formulas --------------------------------------------------


def test_price_formula_direct_substitution() -> None:
    # Y values (1, 3), unit fee, beta = 4 over N = 2: price -2 + 2 = 0
    mean_y = 0.5 * (1.0 + 3.0)
    lam, beta, N = 1.0, 4.0, 2
    assert -mean_y + lam * beta / N == pytest.approx(0.0)


def test_terminal_condition_mean_amplification() -> None:
    # delta = 1/2 and terminal positions (1, 3): Y_T = ratio*mean + own = (3, 5)
    from marketclear.finite_market import build_clearing_system
    dims = Dimensions(1, 0, 0, 2)
    spec = make_spec(dims, delta=0.5,
                     xi_law=DiscreteLaw(np.array([[1.0], [3.0]]), np.array([0.5, 0.5])))
    lat = build_lattice(TimeGrid(1.0, 1), d0=0)
    ctx = MarketContext(spec, lat)
    pop = make_population(spec, ctx.atoms, assignments=[0, 1])
    system = build_clearing_system(ctx, ctx.group_tables(pop), pop.weights,
                                   np.zeros((lat.num_nodes, 1)))
    G, g = system.terminal()
    x_T = np.array([1.0, 3.0])
    y_T = np.matmul(G, x_T[None, :, None])[..., 0][0] + g[0]
    assert y_T == pytest.approx([3.0, 5.0])


def test_noiseless_clearing_price_near_closed_form() -> None:
    spec = noiseless_unit_spec()
    lat = build_lattice(TimeGrid(1.0, 64), d0=0)
    eq = solve_minor_clearing(spec, lat, constant_field(lat, np.zeros(1)))
    assert abs(eq.price.values[0, 0] + 2.0) <= 2e-2


# -- minor best response -----------------------------------------------------------


def test_best_response_alpha_formula() -> None:
    from marketclear.optimality import minimizer_alpha
    assert minimizer_alpha(1.0, 1.0, 1.0) == pytest.approx(-2.0)
    assert minimizer_alpha(1.0, 1.0, 2.0) == pytest.approx(-1.0)


def test_zero_model_best_response_is_idle() -> None:
    spec = make_spec(Dimensions(1, 1, 0, 1), delta=0.0,
                     xi_law=DiscreteLaw.point([1.0]),
                     minor=MinorBundle.build(Dimensions(1, 1, 0, 1), cf=0.0, cg=0.0))
    lat = tree(3)
    br = minor_best_response(spec, lat, constant_field(lat, np.zeros(1)))
    assert np.max(np.abs(br.alpha_hat[0])) <= 1e-12
    assert np.allclose(br.group_field("X", 0), 1.0)


def test_price_taker_consistency_round_trip() -> None:
    spec = scalar_market_spec(delta=0.4)
    lat = tree(4)
    ctx = MarketContext(spec, lat)
    pop = make_population(spec, ctx.atoms, assignments=[0, 1])
    eq = solve_minor_clearing(spec, lat, constant_field(lat, np.zeros(1)), pop, ctx=ctx)
    br = minor_best_response(spec, lat, eq.price, pop, ctx=ctx)
    for g in range(2):
        assert np.max(np.abs(br.group_field("Y", g) - eq.group_field("Y", g))) <= 1e-9
        assert np.max(np.abs(br.alpha_hat[g] - eq.alpha_hat[g])) <= 1e-9


# -- clearing ----------------------------------------------------------------------


def test_clearing_residual_full_equilibrium() -> None:
    spec = scalar_market_spec(delta=0.4, N=2)
    lat = tree(4)
    ctx = MarketContext(spec, lat)
    pop = make_population(spec, ctx.atoms, assignments=[0, 1])
    eq = solve_full_equilibrium(spec, lat, pop, ctx=ctx)
    assert eq.clearing_residual <= 1e-10


def test_clearing_residual_responds_linearly_to_price_shift() -> None:
    spec = scalar_market_spec(delta=0.4, N=2)
    lat = tree(3)
    ctx = MarketContext(spec, lat)
    pop = make_population(spec, ctx.atoms, assignments=[0, 1])
    eq = solve_full_equilibrium(spec, lat, pop, ctx=ctx)
    lam_inv = ctx.exo.lam_inv[0, 0, 0]
    eq.price.values[0, 0] += 1.0
    eq.alpha_hat[:] = [
        -np.matmul(ctx.exo.lam_inv[lat.level_of], (np.where(
            (np.arange(lat.num_nodes) >= lat.level_range(lat.steps)[0])[:, None],
            eq.solution.field(f"Y{g}"), eq.solution.pre(f"Y{g}"))
            + eq.price.values)[..., None])[..., 0]
        for g in range(pop.size)]
    assert clearing_residual(eq) == pytest.approx(2 * lam_inv, abs=1e-9)


def test_zero_model_equilibrium_is_zero() -> None:
    spec = make_spec(Dimensions(1, 1, 0, 2), delta=0.0, xi_law=DiscreteLaw.point([0.0]))
    lat = tree(3)
    eq = solve_full_equilibrium(spec, lat)
    assert np.max(np.abs(eq.beta_hat.values)) <= 1e-13
    assert np.max(np.abs(eq.price.values)) <= 1e-13
    assert eq.clearing_residual <= 1e-13


def test_flow_rule_direct_substitution() -> None:
    from marketclear.optimality import minimizer_beta
    beta = minimizer_beta(p0=1.0, mean_y=3.0, mean_p=2.0, lam0=2.0, lam=1.0, N=2)
    assert beta == pytest.approx(2.0)


# -- symmetry ---------------------------------------------------------------------


def test_homogeneous_symmetry_collapses_agents() -> None:
    spec = homogeneous_study_spec(N=4)
    lat = tree(3)
    ctx = MarketContext(spec, lat)
    pop_a = make_population(spec, ctx.atoms, N=4, assignments=[0, 0, 1, 1])
    eq = solve_full_equilibrium(spec, lat, pop_a, ctx=ctx)
    # identical agents share a group; fields of agents in one group coincide
    assert pop_a.size == 2
    assert eq.population.groups[0].count == 2


def test_permutation_equivariance() -> None:
    dims = Dimensions(1, 1, 0, 2)
    bundles = [MinorBundle.build(dims, cf=1.0, hf=0.1),
               MinorBundle.build(dims, cf=1.5, hf=-0.2)]
    base = dict(delta=0.3, lam=1.2, lam0=0.8,
                xi_law=DiscreteLaw(np.array([[0.5], [1.5]]), np.array([0.5, 0.5])),
                c0_law=("constant", [0.1]))
    spec = make_spec(dims, minor=bundles, **base)
    swapped = make_spec(dims, minor=bundles[::-1], **base)
    lat = tree(3)
    ctx_a, ctx_b = MarketContext(spec, lat), MarketContext(swapped, lat)
    pop_a = make_population(spec, ctx_a.atoms, assignments=[0, 1])
    pop_b = make_population(swapped, ctx_b.atoms, assignments=[1, 0])
    eq_a = solve_full_equilibrium(spec, lat, pop_a, ctx=ctx_a)
    eq_b = solve_full_equilibrium(swapped, lat, pop_b, ctx=ctx_b)
    for name in ("X", "Y", "R", "P"):
        for g in range(2):
            assert np.allclose(eq_a.group_field(name, g),
                               eq_b.group_field(name, 1 - g), atol=1e-11)
    assert np.allclose(eq_a.price.values, eq_b.price.values, atol=1e-11)
    assert np.allclose(eq_a.beta_hat.values, eq_b.beta_hat.values, atol=1e-11)
    assert np.allclose(eq_a.major_field("x0"), eq_b.major_field("x0"), atol=1e-11)


# -- maturity mode -----------------------------------------------------------------


def maturity_spec(c0_law):
    dims = Dimensions(1, 1, 0, 2)
    return make_spec(dims, delta=0.37, maturity_mode=True,
                     xi_law=DiscreteLaw(np.array([[0.5], [1.5]]), np.array([0.5, 0.5])),
                     minor=MinorBundle.build(dims, cg=0.0),
                     c0_law=c0_law)


@pytest.mark.parametrize("c0_law", [("constant", [5.0]),
                                    ("gaussian_walk", [0.4], [0.2], [[0.5]])])
def test_maturity_terminal_price_equals_payoff(c0_law) -> None:
    spec = maturity_spec(c0_law)
    lat = tree(3)
    ctx = MarketContext(spec, lat)
    pop = make_population(spec, ctx.atoms, assignments=[0, 1])
    eq = solve_full_equilibrium(spec, lat, pop, ctx=ctx)
    tsl = lat.terminal_slice
    assert np.max(np.abs(eq.price.values[tsl] - ctx.exo.c0[tsl])) <= 1e-12
    assert np.max(np.abs(eq.major_field("p0")[tsl] + ctx.exo.c0[tsl])) <= 1e-12
    for g in range(pop.size):
        assert np.max(np.abs(eq.group_field("Y", g)[tsl] + ctx.exo.c0[tsl])) <= 1e-12
        assert np.max(np.abs(eq.group_field("P", g)[tsl])) <= 1e-12


def test_maturity_results_independent_of_discount() -> None:
    vals = []
    for delta in (0.1, 0.7):
        dims = Dimensions(1, 1, 0, 2)
        spec = make_spec(dims, delta=delta, maturity_mode=True,
                         xi_law=DiscreteLaw.point([1.0]),
                         minor=MinorBundle.build(dims, cg=0.0),
                         c0_law=("constant", [2.0]))
        lat = tree(3)
        eq = solve_full_equilibrium(spec, lat)
        vals.append(eq.price.values.copy())
    assert np.allclose(vals[0], vals[1], atol=1e-12)


# -- guards ------------------------------------------------------------------------


def test_nonzero_terminal_beta_rejected() -> None:
    spec = scalar_market_spec()
    lat = tree(2)
    with pytest.raises(ValidationError):
        solve_minor_clearing(spec, lat, constant_field(lat, np.ones(1)))


def test_failing_assumptions_block_solve() -> None:
    # widely spread terminal curvatures: no constant candidate can cancel them
    dims = Dimensions(1, 1, 0, 2)
    spec = make_spec(dims, delta=0.9,
                     minor=[MinorBundle.build(dims, cg=0.05),
                            MinorBundle.build(dims, cg=2.0)])
    lat = tree(2)
    with pytest.raises(AssumptionViolationError):
        solve_full_equilibrium(spec, lat)
    solve_full_equilibrium(spec, lat, force=True)


# -- tiny-tree oracle ---------------------------------------------------------------


ORACLE_PARAMS = dict(delta=0.4, lam=1.3, lam0=0.7, l=0.2, sig0=0.5, cf=1.1,
                     hf=0.3, cg=0.9, hg=-0.2, l0=0.1, s0=0.4, c0f=0.8,
                     h0f=0.15, c0g=1.2, h0g=0.05, chi0=0.3, xi1=0.5, xi2=1.5)


def oracle_spec():
    dims = Dimensions(1, 1, 0, 2)
    p = ORACLE_PARAMS
    return make_spec(
        dims, delta=p["delta"], lam=p["lam"], lam0=p["lam0"], chi0=[p["chi0"]],
        minor=MinorBundle.build(dims, l=p["l"], sigma0=p["sig0"], cf=p["cf"],
                                hf=p["hf"], cg=p["cg"], hg=p["hg"]),
        major_flow=__import__("marketclear.model", fromlist=["MajorFlow"]
                              ).MajorFlow.build(dims, l0=p["l0"], s0=p["s0"]),
        major_cost=QuadraticMajorCost.build(dims, c0f=p["c0f"], h0f=p["h0f"],
                                            c0g=p["c0g"], h0g=p["h0g"]),
        xi_law=DiscreteLaw(np.array([[p["xi1"]], [p["xi2"]]]), np.array([0.5, 0.5])),
        c0_law=("constant", [0.0]))


def test_engine_matches_tiny_tree_oracle() -> None:
    oracle = TinyTreeOracle(K=2, T=1.0, **ORACLE_PARAMS).solve()
    spec = oracle_spec()
    lat = build_lattice(TimeGrid(1.0, 2), d0=1)
    ctx = MarketContext(spec, lat)
    pop = make_population(spec, ctx.atoms, assignments=[0, 1])
    for method in ("direct", "picard"):
        eq = solve_full_equilibrium(spec, lat, pop, ctx=ctx, method=method)
        pairs = [
            (oracle["x0"], eq.major_field("x0")[:, 0]),
            (oracle["p0"], eq.major_field("p0")[:, 0]),
            (oracle["X1"], eq.group_field("X", 0)[:, 0]),
            (oracle["X2"], eq.group_field("X", 1)[:, 0]),
            (oracle["Y1"], eq.group_field("Y", 0)[:, 0]),
            (oracle["Y2"], eq.group_field("Y", 1)[:, 0]),
            (oracle["R1"], eq.group_field("R", 0)[:, 0]),
            (oracle["R2"], eq.group_field("R", 1)[:, 0]),
            (oracle["P1"], eq.group_field("P", 0)[:, 0]),
            (oracle["P2"], eq.group_field("P", 1)[:, 0]),
            (oracle["b"], eq.beta_norm.values[:, 0]),
            (oracle["phi"], eq.price.values[:, 0]),
        ]
        for want, got in pairs:
            assert np.max(np.abs(want - got)) <= 1e-8


def test_clearing_operator_reuses_factorization() -> None:
    spec = scalar_market_spec(delta=0.4)
    lat = tree(3)
    ctx = MarketContext(spec, lat)
    pop = make_population(spec, ctx.atoms, assignments=[0, 1])
    op = ClearingOperator(ctx, ctx.group_tables(pop), pop.weights)
    b = np.full((lat.num_nodes, 1), 0.25)
    b[lat.terminal_slice] = 0.0
    sol_op, phi_op = op.solve(b)
    eq = solve_minor_clearing(spec, lat, NodeField(lat, 2 * b), pop, ctx=ctx)
    assert np.max(np.abs(phi_op - eq.price.values)) <= 1e-11
    assert np.max(np.abs(sol_op.field("Y0") - eq.group_field("Y", 0))) <= 1e-11


@pytest.mark.parametrize("spec, K, assignments", [
    (scalar_market_spec(delta=0.4), 3, [0, 1]),
    (scalar_market_spec(delta=0.3, N=5), 4, [1, 0, 1, 1, 0]),
    (homogeneous_study_spec(N=3), 3, None),
])
def test_clearing_operator_bit_equal_to_fresh_solve(spec, K, assignments) -> None:
    # the shared blocks and matrix pass change nothing: every re-solve on one
    # operator is bit-equal to a fresh solve of the freshly built system
    lat = tree(K)
    ctx = MarketContext(spec, lat)
    pop = make_population(spec, ctx.atoms, seed=2, assignments=assignments)
    tabs = ctx.group_tables(pop)
    op = ClearingOperator(ctx, tabs, pop.weights)
    rng = np.random.default_rng(11)
    for _ in range(4):
        b = rng.normal(size=(lat.num_nodes, spec.dims.n))
        b[lat.terminal_slice] = 0.0
        sol, _ = op.solve(b)
        fresh = solve_direct(build_clearing_system(ctx, tabs, pop.weights, b))
        assert np.array_equal(sol.forward, fresh.forward)
        assert np.array_equal(sol.backward, fresh.backward)
        assert np.array_equal(sol.backward_pre, fresh.backward_pre)
        assert sol.diagnostics.to_dict() == fresh.diagnostics.to_dict()


def test_clearing_operator_shares_read_only_blocks() -> None:
    spec = scalar_market_spec(delta=0.4)
    lat = tree(3)
    ctx = MarketContext(spec, lat)
    pop = make_population(spec, ctx.atoms, assignments=[0, 1])
    op = ClearingOperator(ctx, ctx.group_tables(pop), pop.weights)
    b = np.zeros((lat.num_nodes, 1))
    c1, c2 = op.system(b).coeffs(1), op.system(b + 1.0).coeffs(1)
    assert c1.Afb is c2.Afb and c1.Bbf is c2.Bbf and c1.S is c2.S
    assert not np.array_equal(c1.af, c2.af)
    G, _ = op.system(b).terminal()
    with pytest.raises(ValueError):
        c1.Afb[...] = 0.0
    with pytest.raises(ValueError):
        G[...] = 0.0


def test_clearing_operator_checks_the_budget_before_building_blocks(monkeypatch) -> None:
    from marketclear import fbsde, finite_market
    spec = scalar_market_spec(delta=0.4)
    lat = tree(3)
    ctx = MarketContext(spec, lat)
    pop = make_population(spec, ctx.atoms, assignments=[0, 1])
    calls, build = [], finite_market.build_clearing_system

    def counted(*args):
        system = build(*args)
        coeffs = system.coeffs
        system.coeffs = lambda k: calls.append(k) or coeffs(k)
        return system

    monkeypatch.setattr(finite_market, "build_clearing_system", counted)
    # solver factors and node vectors, plus the kept Bbf per level and S, bb per node
    mf = mb = 2
    need = 8 * (lat.steps * (mb * mb + 5 * mb * mf)
                + lat.num_nodes * (3 * mf + 5 * mb + mf * lat.d0 + mb))
    monkeypatch.setattr(fbsde, "FACTOR_BUDGET_BYTES", need - 1)
    with pytest.raises(BudgetError):
        ClearingOperator(ctx, ctx.group_tables(pop), pop.weights)
    assert calls == []
    monkeypatch.setattr(fbsde, "FACTOR_BUDGET_BYTES", need)
    ClearingOperator(ctx, ctx.group_tables(pop), pop.weights)


def test_group_collapse_matches_ungrouped_per_agent_solve() -> None:
    # identical bundles declared per agent defeat the collapse, so every agent
    # is tracked individually; the grouped homogeneous solve must agree
    dims = Dimensions(1, 1, 0, 4)
    shared = dict(delta=0.3, lam=1.2, lam0=0.8,
                  xi_law=DiscreteLaw(np.array([[0.5], [1.5]]), np.array([0.5, 0.5])),
                  c0_law=("gaussian_walk", [0.2], [0.1], [[0.3]]))
    homo = make_spec(dims, **shared)
    split = make_spec(dims, minor=[MinorBundle.build(dims) for _ in range(4)], **shared)
    lat = tree(3)
    assignments = [0, 1, 0, 1]
    ctx_h, ctx_s = MarketContext(homo, lat), MarketContext(split, lat)
    pop_h = make_population(homo, ctx_h.atoms, assignments=assignments)
    pop_s = make_population(split, ctx_s.atoms, assignments=assignments)
    assert pop_h.size == 2 and pop_s.size == 4
    eq_h = solve_full_equilibrium(homo, lat, pop_h, ctx=ctx_h)
    eq_s = solve_full_equilibrium(split, lat, pop_s, ctx=ctx_s)
    assert np.max(np.abs(eq_h.price.values - eq_s.price.values)) <= 1e-11
    assert np.max(np.abs(eq_h.beta_hat.values - eq_s.beta_hat.values)) <= 1e-11
    for agent in range(4):
        gh, gs = int(pop_h.agent_group[agent]), int(pop_s.agent_group[agent])
        for name in ("X", "Y", "R", "P"):
            assert np.max(np.abs(eq_h.group_field(name, gh)
                                 - eq_s.group_field(name, gs))) <= 1e-11
