from __future__ import annotations

from dataclasses import asdict, fields

import numpy as np
import pytest

from marketclear.errors import AssumptionViolationError, BudgetError, ValidationError
from marketclear.fbsde import DirectSolver
from marketclear.finite_market import (ClearingOperator, MarketContext,
                                       build_clearing_system, build_deviation_system,
                                       clearing_residual,
                                       cost_classes, make_population,
                                       minor_best_response,
                                       solve_full_equilibrium,
                                       solve_minor_clearing)
from marketclear.mean_field import solve_mfg
from marketclear.metrics import convergence_study, stability_gap
from marketclear.model import (CoefficientSpec, Dimensions, DiscreteLaw, MinorBundle,
                               ModelSpec, QuadraticMajorCost, make_spec)
from marketclear.optimality import cost_major, cost_minor, perturbation_tests
from marketclear.scenario import NodeField, TimeGrid, build_lattice

from conftest import (callable_twin, constant_field, deviations, homogeneous_study_spec,
                      noiseless_unit_spec, scalar_market_spec)
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
    pop = make_population(ctx, assignments=[0, 1])
    system = build_clearing_system(ctx, ctx.group_tables(pop), pop.weights,
                                   np.zeros((lat.num_nodes, 1)))
    x_T = np.array([1.0, 3.0])
    y_T = system.G @ x_T + system.g[0, 0]
    assert y_T == pytest.approx([3.0, 5.0])


def test_noiseless_clearing_price_near_closed_form() -> None:
    spec = noiseless_unit_spec()
    lat = build_lattice(TimeGrid(1.0, 64), d0=0)
    eq = solve_minor_clearing(MarketContext(spec, lat), constant_field(lat, np.zeros(1)))
    assert abs(eq.price.values[0, 0] + 2.0) <= 2e-2


# -- minor best response -----------------------------------------------------------


def test_best_response_alpha_formula() -> None:
    from hamiltonian_oracle import minimizer_alpha
    assert minimizer_alpha(1.0, 1.0, 1.0) == pytest.approx(-2.0)
    assert minimizer_alpha(1.0, 1.0, 2.0) == pytest.approx(-1.0)


def test_zero_model_best_response_is_idle() -> None:
    spec = make_spec(Dimensions(1, 1, 0, 1), delta=0.0,
                     xi_law=DiscreteLaw.point([1.0]),
                     minor=MinorBundle.build(Dimensions(1, 1, 0, 1), cf=0.0, cg=0.0))
    lat = tree(3)
    br = minor_best_response(MarketContext(spec, lat, force=True),  # cf = cg = 0: degenerate
                             constant_field(lat, np.zeros(1)))
    assert np.max(np.abs(br.alpha_hat[0])) <= 1e-12
    assert np.allclose(br.group_field("X", 0), 1.0)


def two_class_spec():
    """Four agents in two cost classes of two, the members of a class differing in l and hf."""
    dims = Dimensions(n=1, d0=1, d=0, N=4)
    bundles = [MinorBundle.build(dims, cf=cf, cg=cg, l=l, hf=hf, sigma0=[[0.2]])
               for cf, cg, l, hf in ((1.0, 0.5, 0.1, 0.0), (1.6, 0.8, -0.2, 0.3),
                                     (1.0, 0.5, 0.4, -0.1), (1.6, 0.8, 0.0, 0.2))]
    return make_spec(dims, delta=0.4, lam=1.3, lam0=0.7, minor=bundles, chi0=[0.3],
                     xi_law=DiscreteLaw(np.array([[0.5], [1.5]]), np.array([0.5, 0.5])),
                     c0_law=("gaussian_walk", [0.2], [0.1], [[0.3]]))


def test_price_taker_consistency_round_trip() -> None:
    # one homogeneous class of two atoms; two heterogeneous classes of two agents each
    lat = tree(4)
    for spec, assignments, classes in ((scalar_market_spec(delta=0.4), [0, 1], [[0, 1]]),
                                       (two_class_spec(), [0, 1, 1, 0], [[0, 2], [1, 3]])):
        ctx = MarketContext(spec, lat)
        pop = make_population(ctx, assignments=assignments)
        eq = solve_minor_clearing(ctx, constant_field(lat, np.zeros(1)), pop)
        br = minor_best_response(ctx, eq.price, pop)
        assert br.classes.members == classes
        for g in range(pop.size):
            assert np.max(np.abs(br.group_field("Y", g) - eq.group_field("Y", g))) <= 1e-9
            assert np.max(np.abs(br.alpha_hat[g] - eq.alpha_hat[g])) <= 1e-9


def test_homogeneous_best_response_is_one_class_system() -> None:
    # eight one-atom groups: one n-state class system and one family of eight flows
    dims = Dimensions(n=1, d0=1, d=0, N=8)
    spec = make_spec(dims, delta=0.3, c0_law=("constant", [0.1]),
                     xi_law=DiscreteLaw(np.linspace(0.0, 2.0, 8)[:, None], np.full(8, 1 / 8)))
    lat = tree(3)
    ctx = MarketContext(spec, lat)
    pop = make_population(ctx, assignments=np.arange(8))
    price = NodeField(lat, np.random.default_rng(3).uniform(-1, 1, (lat.num_nodes, 1)))
    br = minor_best_response(ctx, price, pop)
    assert br.solution.system.mf == br.solution.system.mb == dims.n
    (family,) = br.deviations
    assert len(family.diagnostics) == 8 and family.system.mf == dims.n


@pytest.mark.parametrize("shape", [(2,), ()])
def test_best_response_refuses_a_price_of_another_shape(shape) -> None:
    spec = scalar_market_spec()
    lat = tree(2)
    price = NodeField(lat, np.zeros((lat.num_nodes,) + shape))
    with pytest.raises(ValidationError, match="price must be an n-vector node field"):
        minor_best_response(MarketContext(spec, lat), price)


# -- clearing ----------------------------------------------------------------------


def test_clearing_residual_full_equilibrium() -> None:
    spec = scalar_market_spec(delta=0.4, N=2)
    lat = tree(4)
    ctx = MarketContext(spec, lat)
    pop = make_population(ctx, assignments=[0, 1])
    eq = solve_full_equilibrium(ctx, pop)
    assert eq.clearing_residual <= 1e-10


def test_clearing_residual_responds_linearly_to_price_shift() -> None:
    spec = scalar_market_spec(delta=0.4, N=2)
    lat = tree(3)
    ctx = MarketContext(spec, lat)
    pop = make_population(ctx, assignments=[0, 1])
    eq = solve_full_equilibrium(ctx, pop)
    lam_inv = ctx.exo.lam_inv[0, 0, 0]
    eq.price.values[0, 0] += 1.0
    eq.alpha_hat[:] = [
        -np.matmul(ctx.exo.lam_inv[lat.level_of], (np.where(
            (np.arange(lat.num_nodes) >= lat.level_range(lat.steps)[0])[:, None],
            eq.group_field("Y", g), eq.group_pre("Y", g))
            + eq.price.values)[..., None])[..., 0]
        for g in range(pop.size)]
    assert clearing_residual(eq) == pytest.approx(2 * lam_inv, abs=1e-9)


def test_zero_model_equilibrium_is_zero() -> None:
    spec = make_spec(Dimensions(1, 1, 0, 2), delta=0.0, xi_law=DiscreteLaw.point([0.0]))
    lat = tree(3)
    eq = solve_full_equilibrium(MarketContext(spec, lat))
    assert np.max(np.abs(eq.beta_hat.values)) <= 1e-13
    assert np.max(np.abs(eq.price.values)) <= 1e-13
    assert eq.clearing_residual <= 1e-13


def test_flow_rule_direct_substitution() -> None:
    from hamiltonian_oracle import minimizer_beta
    beta = minimizer_beta(p0=1.0, mean_y=3.0, mean_p=2.0, lam0=2.0, lam=1.0, N=2)
    assert beta == pytest.approx(2.0)


def test_solved_equilibrium_obeys_the_oracle_minimizers() -> None:
    # the builders encode the pointwise minimizers as blocks; at every
    # interior node the solved rates and flow equal the oracle's minimizers
    # of the Hamiltonians at the solved pre-driver states
    from hamiltonian_oracle import minimizer_alpha, minimizer_beta
    spec = scalar_market_spec(delta=0.4, N=3)
    lat = tree(3)
    eq = solve_full_equilibrium(MarketContext(spec, lat))
    sol, pop = eq.solution, eq.population
    lam, lam0 = spec.lambda_minor.value, spec.lambda_major.value
    weights = [grp.count / pop.N for grp in pop.groups]
    mean_y = sum(w * eq.group_pre("Y", g) for g, w in enumerate(weights))
    mean_p = sum(w * eq.group_pre("P", g) for g, w in enumerate(weights))
    for v in range(lat.level_range(lat.steps)[0]):
        beta = minimizer_beta(sol.pre("p0")[v], mean_y[v], mean_p[v], lam0, lam, N=pop.N)
        assert beta == pytest.approx(eq.beta_hat.values[v], rel=1e-12, abs=1e-12)
        for g in range(pop.size):
            alpha = minimizer_alpha(eq.group_pre("Y", g)[v], eq.price.values[v], lam)
            assert alpha == pytest.approx(eq.alpha_hat[g][v], rel=1e-12, abs=1e-12)


# -- symmetry ---------------------------------------------------------------------


def test_homogeneous_symmetry_collapses_agents() -> None:
    spec = homogeneous_study_spec(N=4)
    lat = tree(3)
    ctx = MarketContext(spec, lat)
    pop_a = make_population(ctx, N=4, assignments=[0, 0, 1, 1])
    eq = solve_full_equilibrium(ctx, pop_a)
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
    pop_a = make_population(ctx_a, assignments=[0, 1])
    pop_b = make_population(ctx_b, assignments=[1, 0])
    eq_a = solve_full_equilibrium(ctx_a, pop_a)
    eq_b = solve_full_equilibrium(ctx_b, pop_b)
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
    pop = make_population(ctx, assignments=[0, 1])
    eq = solve_full_equilibrium(ctx, pop)
    tsl = lat.terminal_slice
    assert np.max(np.abs(eq.price.values[tsl] - ctx.exo.c0[tsl])) <= 1e-12
    assert np.max(np.abs(eq.major_field("p0")[tsl] + ctx.exo.c0[tsl])) <= 1e-12
    for g in range(pop.size):
        assert np.max(np.abs(eq.group_field("Y", g)[tsl] + ctx.exo.c0[tsl])) <= 1e-12
        assert np.max(np.abs(eq.group_field("P", g)[tsl])) <= 1e-12


def test_maturity_terminal_values_are_exact_for_any_class_weights() -> None:
    # class weights 1/7, 2/7 and 4/7: the groups share the payoff table, so
    # their class mean and every deviation's terminal constant are exact
    dims = Dimensions(1, 1, 0, 7)
    spec = make_spec(dims, delta=0.37, maturity_mode=True,
                     xi_law=DiscreteLaw(np.array([[0.5], [1.5], [2.0]]), np.ones(3) / 3),
                     minor=MinorBundle.build(dims, cg=0.0),
                     c0_law=("gaussian_walk", [0.4], [0.2], [[0.5]]))
    lat = tree(6)
    ctx = MarketContext(spec, lat)
    pop = make_population(ctx, assignments=[0, 1, 1, 2, 2, 2, 2])
    eq = solve_full_equilibrium(ctx, pop)
    tsl = lat.terminal_slice
    assert np.array_equal(eq.price.values[tsl], ctx.exo.c0[tsl])
    for g in range(pop.size):
        assert np.array_equal(eq.group_field("Y", g)[tsl], -ctx.exo.c0[tsl])


def test_cost_class_keeps_equal_tables_exactly() -> None:
    # class weights 1/7, 2/7 and 4/7: the groups hold equal constant tables in
    # separate arrays, and a re-weighted mean of them would be off by
    # round-off, so the class mean is each group's table and the deviation
    # family has no source
    dims = Dimensions(1, 1, 0, 7)
    spec = make_spec(dims, xi_law=DiscreteLaw(np.array([[0.0], [1.0], [2.0]]), np.ones(3) / 3),
                     minor=MinorBundle.build(dims, hf=0.3, l=0.1, sigma0=0.2))
    lat = tree(4)
    ctx = MarketContext(spec, lat)
    pop = make_population(ctx, assignments=[0, 1, 1, 2, 2, 2, 2])
    tabs = ctx.group_tables(pop)
    (mean,) = cost_classes(tabs, pop.weights).tables
    assert all(t.hf is not tabs[0].hf for t in tabs[1:])
    for t in tabs:
        for name in ("l", "sig0", "hf", "hg_T"):
            assert np.array_equal(getattr(mean, name), getattr(t, name)), name
    system = build_deviation_system(ctx, tabs, mean)
    assert not system.bb.any() and not system.af.any() and not system.S.any()


def test_maturity_results_independent_of_discount() -> None:
    vals = []
    for delta in (0.1, 0.7):
        dims = Dimensions(1, 1, 0, 2)
        spec = make_spec(dims, delta=delta, maturity_mode=True,
                         xi_law=DiscreteLaw.point([1.0]),
                         minor=MinorBundle.build(dims, cg=0.0),
                         c0_law=("constant", [2.0]))
        lat = tree(3)
        eq = solve_full_equilibrium(MarketContext(spec, lat))
        vals.append(eq.price.values.copy())
    assert np.allclose(vals[0], vals[1], atol=1e-12)


def _solved_fields(spec, lat):
    """Every field, price and cost of the market's four solves, by name.

    The context is forced: the maturity twin's zero terminal curvatures are
    outside the assumptions outside maturity mode.
    """
    ctx = MarketContext(spec, lat, force=True)
    pop = make_population(ctx, assignments=[0, 1, 1, 0])
    eq = solve_full_equilibrium(ctx, pop)
    mf = solve_mfg(ctx)
    cl = solve_minor_clearing(ctx, eq.beta_hat, pop)
    br = minor_best_response(ctx, eq.price, pop)
    out = {"price": eq.price.values, "beta": eq.beta_hat.values, "x0": eq.major_field("x0"),
           "p0": eq.major_field("p0"), "price_mfg": mf.price.values,
           "beta_mfg": mf.beta_norm.values, "price_clearing": cl.price.values,
           "cost_minor": cost_minor(ctx, eq.price, eq.alpha_hat[0]),
           "cost_major": cost_major(ctx, pop, eq.beta_hat)}
    for g in range(pop.size):
        out |= {f"eq {name}{g}": eq.group_field(name, g) for name in "XYRP"}
        out |= {f"clearing {name}{g}": cl.group_field(name, g) for name in "XY"}
        out |= {f"best response {name}{g}": br.group_field(name, g) for name in "XY"}
        out[f"alpha{g}"] = eq.alpha_hat[g]
    for a in range(ctx.atoms.count):
        out |= {f"mfg {name}{a}": mf.atom_field(name, a) for name in "xyrp"}
    return out


def test_maturity_mode_is_its_terminal_data() -> None:
    # at maturity every terminal cost is -<c0(T), x_T>: the normal terminal
    # form with delta = 0, cg = c0g = 0 and hg = h0g = -c0.  The twin's groups
    # carry equal hg tables of their own, whose class mean is exact for the
    # equal weights used here.
    dims = Dimensions(2, 1, 0, 4)
    cf = [[1.1, 0.1], [0.1, 0.9]]
    payoff = CoefficientSpec("affine", (2,), c0_mat=-np.eye(2), name="payoff")
    common = dict(xi_law=DiscreteLaw(np.array([[0.5, -0.2], [1.5, 0.3]]), np.array([0.5, 0.5])),
                  c0_law=("gaussian_walk", [0.4, 0.1], [0.2, 0.0], [[0.5], [0.3]]),
                  lam0=[[0.8, -0.1], [-0.1, 0.9]])
    mature = make_spec(dims, delta=0.37, maturity_mode=True,
                       minor=MinorBundle.build(dims, cf=cf, cg=0.8, hg=0.3, l=0.1),
                       major_cost=QuadraticMajorCost.build(dims, c0g=1.2, h0g=0.2), **common)
    twin = make_spec(dims, delta=0.0,
                     minor=MinorBundle.build(dims, cf=cf, cg=0.0, hg=payoff, l=0.1),
                     major_cost=QuadraticMajorCost.build(dims, c0g=0.0, h0g=payoff), **common)
    lat = tree(4)
    got, want = _solved_fields(mature, lat), _solved_fields(twin, lat)
    assert got.keys() == want.keys()
    for name in got:
        assert np.asarray(got[name]).tobytes() == np.asarray(want[name]).tobytes(), name


# -- guards ------------------------------------------------------------------------


def test_nonzero_terminal_beta_rejected() -> None:
    spec = scalar_market_spec()
    lat = tree(2)
    with pytest.raises(ValidationError):
        solve_minor_clearing(MarketContext(spec, lat), constant_field(lat, np.ones(1)))


def test_failing_assumptions_block_solve() -> None:
    # the context is the gate: a running cost that is not convex is refused
    # before any entry point can run, and a forced context runs every one,
    # the studies included
    dims = Dimensions(1, 1, 0, 4)
    spec = make_spec(dims, delta=0.3, minor=MinorBundle.build(dims, cf=-0.05),
                     xi_law=DiscreteLaw(np.array([[0.0], [2.0]]), np.array([0.5, 0.5])),
                     c0_law=("constant", [0.1]))
    lat = tree(4)
    with pytest.raises(AssumptionViolationError) as raised:
        MarketContext(spec, lat)
    report = raised.value.report
    assert not report.all_passed and not report.passed["minor_A_iv"]
    assert any("cf not strictly convex" in failure for failure in report.failures)
    ctx = MarketContext(spec, lat, force=True)
    assert convergence_study(ctx, [8, 16, 32], 2, 0).slope is not None
    levels = ["minor", "major-N", "major-mfg"]
    assert list(perturbation_tests(ctx, levels, directions=2, seed=0)) == levels
    assert stability_gap(ctx, ctx, seed=0).delta_total == 0.0


@pytest.mark.parametrize("past_end", [False, True])
def test_population_refuses_atoms_outside_the_law(past_end) -> None:
    # atom -1 would read as the last atom and atom A past the tables' end
    ctx = MarketContext(homogeneous_study_spec(N=4), tree(2))
    A = ctx.atoms.count
    atom = A if past_end else -1
    with pytest.raises(ValidationError, match=rf"agent 2 is assigned atom {atom}, outside \[0, {A}\)"):
        make_population(ctx, assignments=[0, 1, atom, 0])


# -- one market handle ------------------------------------------------------------


MARKET_ENTRY_POINTS = ("make_population", "solve_full_equilibrium", "solve_minor_clearing",
                       "minor_best_response", "solve_mfg", "cost_minor", "cost_major",
                       "cost_mfg", "perturbation_tests", "convergence_study", "stability_gap")


def test_every_entry_point_takes_one_market_context() -> None:
    # the model and its tree arrive once, as the context built on them
    import inspect
    import marketclear
    for name in MARKET_ENTRY_POINTS:
        first, *rest = inspect.signature(getattr(marketclear, name)).parameters.values()
        assert (first.name, first.annotation) == ("ctx", "MarketContext"), name
        assert not {"spec", "lattice", "ctx", "check", "force"} & {p.name for p in rest}, name
    for name, fn in inspect.getmembers(marketclear, inspect.isfunction):
        names = set(inspect.signature(fn).parameters)
        assert "ctx" not in names or not {"spec", "lattice"} & names, name
    assert not hasattr(marketclear, "perturbation_test")
    # the context is the one gate of the standing assumptions
    _, _, force = inspect.signature(marketclear.MarketContext).parameters.values()
    assert (force.name, force.kind, force.default) == ("force", force.KEYWORD_ONLY, False)


def test_every_solved_market_holds_its_price_and_no_copy_of_the_market() -> None:
    # the model and the tree live in the context; a result reads its tree off its solve
    ctx = MarketContext(homogeneous_study_spec(N=4, delta=0.4), tree(3))
    pop = make_population(ctx, assignments=[0, 1, 1, 0])
    eq = solve_full_equilibrium(ctx, pop)
    results = {"full": eq, "limit": solve_mfg(ctx),
               "clearing": solve_minor_clearing(ctx, eq.beta_hat, pop),
               "best response": minor_best_response(ctx, eq.price, pop)}
    for name, result in results.items():
        assert isinstance(result.price, NodeField), name
        assert result.lattice is ctx.lattice, name
        for f in fields(result):
            assert not isinstance(getattr(result, f.name), (ModelSpec, MarketContext)), \
                (name, f.name)
    assert np.shares_memory(eq.x0, eq.solution.forward)  # the class solve's own x0
    assert np.array_equal(eq.x0, eq.solution.field("x0"))
    clearing = results["clearing"]
    assert clearing.x0.shape == (ctx.lattice.num_nodes, 1)
    assert np.array_equal(clearing.major_field("x0"), clearing.x0)


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
    pop = make_population(ctx, assignments=[0, 1])
    # the quadratic cost by one direct solve, its callable twin by the affine iteration
    for model in (spec, callable_twin(spec)):
        eq = solve_full_equilibrium(MarketContext(model, lat), pop)
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
    pop = make_population(ctx, assignments=[0, 1])
    op = ClearingOperator(ctx, ctx.group_tables(pop), pop.weights)
    b = np.full((lat.num_nodes, 1), 0.25)
    b[lat.terminal_slice] = 0.0
    sol_op, (phi_op,) = op.solve(b[None])
    eq = solve_minor_clearing(ctx, NodeField(lat, 2 * b), pop)
    assert np.max(np.abs(phi_op - eq.price.values)) <= 1e-11
    assert np.max(np.abs(sol_op.field("Y0") - eq.group_field("Y", 0))) <= 1e-11


@pytest.mark.parametrize("spec, K, assignments", [
    (scalar_market_spec(delta=0.4), 3, [0, 1]),
    (scalar_market_spec(delta=0.3, N=5), 4, [1, 0, 1, 1, 0]),
    (homogeneous_study_spec(N=3), 3, None),
])
def test_clearing_operator_bit_equal_to_fresh_solve(spec, K, assignments) -> None:
    # the shared blocks, matrix pass and batched vector pass change nothing:
    # every flow of one batched re-solve is bit-equal to a fresh solve of the
    # freshly built system
    lat = tree(K)
    ctx = MarketContext(spec, lat)
    pop = make_population(ctx, seed=2, assignments=assignments)
    tabs = ctx.group_tables(pop)
    op = ClearingOperator(ctx, tabs, pop.weights)
    rng = np.random.default_rng(11)
    flows = rng.normal(size=(4, lat.num_nodes, spec.dims.n))
    flows[:, lat.terminal_slice] = 0.0
    family, _ = op.solve(flows)
    for j, b in enumerate(flows):
        fresh = DirectSolver(build_clearing_system(ctx, tabs, pop.weights, b)).solve()
        for name in ("forward", "backward"):
            assert np.array_equal(getattr(family, name)[:, j], getattr(fresh, name)[:, 0])
        for name in family.system.backward_slices:
            assert np.array_equal(family.pre(name, j), fresh.pre(name)), name
        assert asdict(family.diagnostics[j]) == asdict(fresh.diagnostics[0])


def test_clearing_operator_batch_equals_fresh_minor_clearing() -> None:
    # one batched re-solve of B flows gives, byte for byte, the states and
    # prices of B separate solve_minor_clearing calls
    spec = scalar_market_spec(delta=0.3, N=5)
    lat = tree(3)
    ctx = MarketContext(spec, lat)
    pop = make_population(ctx, assignments=[1, 0, 1, 1, 0])
    classes = cost_classes(ctx.group_tables(pop), pop.weights)
    op = ClearingOperator(ctx, classes.tables, classes.weights)
    betas = np.random.default_rng(5).normal(size=(3, lat.num_nodes, 1))
    betas[:, lat.terminal_slice] = 0.0
    family, phis = op.solve(betas / pop.N)
    for j, (beta, phi) in enumerate(zip(betas, phis)):
        eq = solve_minor_clearing(ctx, NodeField(lat, beta), pop)
        for name in ("forward", "backward"):
            assert np.array_equal(getattr(family, name)[:, j],
                                  getattr(eq.solution, name)[:, 0]), name
        for name in family.system.backward_slices:
            assert np.array_equal(family.pre(name, j), eq.solution.pre(name)), name
        assert np.array_equal(deviations(family, j), deviations(eq.solution))
        assert asdict(family.diagnostics[j]) == asdict(eq.solution.diagnostics[0])
        assert np.array_equal(phi, eq.price.values)


def test_clearing_operator_checks_the_budget_before_building_blocks(monkeypatch) -> None:
    from marketclear import fbsde, finite_market
    spec = scalar_market_spec(delta=0.4)
    lat = tree(3)
    ctx = MarketContext(spec, lat)
    pop = make_population(ctx, assignments=[0, 1])
    calls, build = [], finite_market.build_clearing_system
    monkeypatch.setattr(finite_market, "build_clearing_system",
                        lambda *args: calls.append(1) or build(*args))
    # solver factors and node vectors, plus the kept Bbf per level and S, bb per node
    mf = mb = 2
    need = 8 * (lat.steps * (mb * mb + 5 * mb * mf)
                + lat.num_nodes * (3 * mf + 4 * mb + mf * lat.d0 + mb))
    monkeypatch.setattr(fbsde, "FACTOR_BUDGET_BYTES", need - 1)
    with pytest.raises(BudgetError):
        ClearingOperator(ctx, ctx.group_tables(pop), pop.weights)
    assert calls == []
    monkeypatch.setattr(fbsde, "FACTOR_BUDGET_BYTES", need)
    ClearingOperator(ctx, ctx.group_tables(pop), pop.weights)
    assert calls == [1]


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
    pop_h = make_population(ctx_h, assignments=assignments)
    pop_s = make_population(ctx_s, assignments=assignments)
    assert pop_h.size == 2 and pop_s.size == 4
    eq_h = solve_full_equilibrium(ctx_h, pop_h)
    eq_s = solve_full_equilibrium(ctx_s, pop_s)
    assert np.max(np.abs(eq_h.price.values - eq_s.price.values)) <= 1e-11
    assert np.max(np.abs(eq_h.beta_hat.values - eq_s.beta_hat.values)) <= 1e-11
    for agent in range(4):
        gh, gs = int(pop_h.agent_group[agent]), int(pop_s.agent_group[agent])
        for name in ("X", "Y", "R", "P"):
            assert np.max(np.abs(eq_h.group_field(name, gh)
                                 - eq_s.group_field(name, gs))) <= 1e-11


def test_homogeneous_groups_solve_one_class_system() -> None:
    # eight groups of one cost class: the coupled system holds the major and
    # the class means only, and the groups are one deviation family
    dims = Dimensions(1, 1, 0, 8)
    spec = make_spec(dims, delta=0.3, xi_law=DiscreteLaw(np.linspace(0.0, 2.0, 8)[:, None],
                                                         np.full(8, 1 / 8)),
                     c0_law=("gaussian_walk", [0.2], [0.1], [[0.3]]))
    lat = tree(3)
    ctx = MarketContext(spec, lat)
    pop = make_population(ctx, assignments=np.arange(8))
    eq = solve_full_equilibrium(ctx, pop)
    assert pop.size == 8
    assert eq.solution.system.mf == eq.solution.system.mb == 3 * dims.n
    (family,) = eq.deviations
    assert len(family.diagnostics) == 8
    assert eq.clearing_residual <= 1e-12
