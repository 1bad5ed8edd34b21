from __future__ import annotations

import math

import numpy as np
import pytest

from marketclear.errors import UnsupportedModelError, ValidationError
from marketclear.finite_market import (ClearingOperator, MarketContext,
                                       make_population, solve_full_equilibrium)
from marketclear.model import Dimensions, DiscreteLaw, MinorBundle, make_spec
from marketclear.optimality import EPS_GRID, LEVELS, perturbation_directions, perturbation_tests
from marketclear.scenario import NodeField, TimeGrid, build_lattice

from conftest import (constant_field, homogeneous_study_spec, noiseless_unit_spec,
                      scalar_market_spec)
from cost_oracle import cost_major, cost_mfg, cost_minor
from hamiltonian_oracle import (hamiltonian_mfg, hamiltonian_minor, hamiltonian_system,
                                minimizer_alpha, minimizer_beta)


def tree(K=4, T=1.0):
    return build_lattice(TimeGrid(T, K), d0=1)


def perturb(ctx, level, **kwargs):
    """The report of one level of ``perturbation_tests``."""
    return perturbation_tests(ctx, [level], **kwargs)[level]


# -- cost functionals --------------------------------------------------------


def test_zero_model_zero_cost() -> None:
    dims = Dimensions(1, 1, 0, 1)
    spec = make_spec(dims, xi_law=DiscreteLaw.point([0.0]),
                     minor=MinorBundle.build(dims, cf=0.0, cg=0.0))
    lat = tree(3)
    J = cost_minor(MarketContext(spec, lat, force=True),  # cf = cg = 0: degenerate
                   constant_field(lat, np.zeros(1)), np.zeros((lat.num_nodes, 1)))
    assert J == pytest.approx(0.0, abs=1e-15)


def test_pure_fee_cost_is_half() -> None:
    # phi = 0, unit fee, unit rate over [0, 1]: only the fee term remains
    dims = Dimensions(1, 1, 0, 1)
    spec = make_spec(dims, xi_law=DiscreteLaw.point([0.0]),
                     minor=MinorBundle.build(dims, cf=0.0, cg=0.0))
    lat = tree(4)
    J = cost_minor(MarketContext(spec, lat, force=True),  # cf = cg = 0: degenerate
                   constant_field(lat, np.zeros(1)), np.ones((lat.num_nodes, 1)))
    assert J == pytest.approx(0.5)


def test_solved_minor_control_beats_perturbations() -> None:
    spec = noiseless_unit_spec()
    lat = build_lattice(TimeGrid(1.0, 16), d0=0)
    ctx = MarketContext(spec, lat)
    eq = solve_full_equilibrium(ctx)
    base = cost_minor(ctx, eq.price, eq.alpha_hat[0])
    rng = np.random.default_rng(5)
    for trial in range(10):
        eta = rng.standard_normal((lat.num_nodes, 1))
        eta[lat.terminal_slice] = 0.0
        bumped = cost_minor(ctx, eq.price, eq.alpha_hat[0] + 0.1 * eta)
        assert bumped > base


def hand_assembled_major_cost(K: int) -> float:
    """Literal transcription of the discrete cost chain at constant unit flow.

    Noiseless one-agent market, unit coefficients, zero discount: X carries
    drift -b, Y integrates X backward, the price is the pre-driver mean plus
    the fee, and the major cost accumulates <b, phi> + .5 lam0 b^2.
    """
    dt = 1.0 / K
    lam0 = 1.0
    b = 1.0
    X = [0.0] * (K + 1)
    X[0] = 1.0
    for k in range(K):
        X[k + 1] = X[k] + dt * (-b)
    Y = [0.0] * (K + 1)
    Y[K] = X[K]
    for k in range(K - 1, -1, -1):
        Y[k] = Y[k + 1] + dt * X[k]
    x0 = [0.0] * (K + 1)
    for k in range(K):
        x0[k + 1] = x0[k] + dt * b
    J = 0.0
    for k in range(K):
        phi = -Y[k + 1] + 1.0 * b   # pre-driver price at a noiseless node
        J += dt * (b * phi + 0.5 * lam0 * b * b)
    return J


def test_major_cost_matches_hand_assembly() -> None:
    dims = Dimensions(1, 0, 0, 1)
    from marketclear.model import QuadraticMajorCost
    spec = make_spec(dims, delta=0.0, xi_law=DiscreteLaw.point([1.0]),
                     major_cost=QuadraticMajorCost.build(dims, c0f=0.0, h0f=0.0,
                                                         c0g=0.0, h0g=0.0))
    K = 64
    lat = build_lattice(TimeGrid(1.0, K), d0=0)
    ctx = MarketContext(spec, lat, force=True)  # c0f = c0g = 0: degenerate
    pop = make_population(ctx)
    beta = constant_field(lat, np.ones(1))
    beta.values[lat.terminal_slice] = 0.0
    J = cost_major(ctx, pop, beta)
    assert J == pytest.approx(hand_assembled_major_cost(K), abs=1e-12)
    # continuous chain: X = 1-t, Y = (1-t)^2/2, phi = 1 - (1-t)^2/2, J = 4/3
    assert abs(J - 4.0 / 3.0) <= 5e-2


def test_cost_at_equilibrium_flow_matches_reports() -> None:
    spec = scalar_market_spec(delta=0.4)
    lat = tree(4)
    ctx = MarketContext(spec, lat)
    pop = make_population(ctx, assignments=[0, 1])
    eq = solve_full_equilibrium(ctx, pop)
    op = ClearingOperator(ctx, ctx.group_tables(pop), pop.weights)
    # the re-solve path must reproduce the coupled solve's own fields
    sol, (phi,) = op.solve(eq.beta_norm.values[None])
    assert np.max(np.abs(phi - eq.price.values)) <= 1e-8
    for g in range(pop.size):
        assert np.max(np.abs(sol.field(f"Y{g}") - eq.group_field("Y", g))) <= 1e-8


def zeros(lat, n=1):
    return NodeField(lat, np.zeros((lat.num_nodes, n)))


def rate(ctx, rows=0, n=1):
    return np.zeros((ctx.lattice.num_nodes + rows, n))


def on_the_leaves(ctx):
    return NodeField(ctx.lattice, np.ones((ctx.lattice.num_nodes, 1)))


# calls of the cost functionals on an n = 1 market over tree(3) with one field
# that is not an (nodes, n) field of that tree, or a flow that trades at the horizon
FOREIGN_FIELDS = {
    "minor, short rate": lambda ctx, pop: cost_minor(ctx, zeros(ctx.lattice), rate(ctx, rows=-1)),
    "minor, rate of two securities": lambda ctx, pop: cost_minor(ctx, zeros(ctx.lattice),
                                                                 rate(ctx, n=2)),
    "minor, price of a deeper tree": lambda ctx, pop: cost_minor(ctx, zeros(tree(4)), rate(ctx)),
    "minor, price of a longer horizon": lambda ctx, pop: cost_minor(ctx, zeros(tree(3, T=2.0)),
                                                                    rate(ctx)),
    "major, flow of two securities": lambda ctx, pop: cost_major(ctx, pop, zeros(ctx.lattice, 2)),
    "major, flow of a deeper tree": lambda ctx, pop: cost_major(ctx, pop, zeros(tree(4))),
    "major, flow of a longer horizon": lambda ctx, pop: cost_major(ctx, pop,
                                                                   zeros(tree(3, T=2.0))),
    "major, flow on the leaves": lambda ctx, pop: cost_major(ctx, pop, on_the_leaves(ctx)),
    "mfg, flow of two securities": lambda ctx, pop: cost_mfg(ctx, zeros(ctx.lattice, 2)),
    "mfg, flow of a deeper tree": lambda ctx, pop: cost_mfg(ctx, zeros(tree(4))),
    "mfg, flow of a longer horizon": lambda ctx, pop: cost_mfg(ctx, zeros(tree(3, T=2.0))),
    "mfg, flow on the leaves": lambda ctx, pop: cost_mfg(ctx, on_the_leaves(ctx)),
}


@pytest.mark.parametrize("case", list(FOREIGN_FIELDS))
def test_cost_functionals_refuse_fields_foreign_to_the_market(case) -> None:
    ctx = MarketContext(homogeneous_study_spec(N=2, delta=0.4), tree(3))
    with pytest.raises(ValidationError, match="node field on this lattice|vanish on terminal"):
        FOREIGN_FIELDS[case](ctx, make_population(ctx))


def two_bundle_spec():
    """The two-atom study model with one bundle per agent, the second more curved."""
    dims = Dimensions(n=1, d0=1, d=0, N=2)
    spec = homogeneous_study_spec(N=2, delta=0.4)
    return make_spec(dims, delta=0.4, minor=[MinorBundle.build(dims),
                                             MinorBundle.build(dims, cf=1.5)],
                     xi_law=spec.xi_law, c0_law=spec.c0_law)


@pytest.mark.parametrize("bundles", [1, 2], ids=["homogeneous", "heterogeneous"])
@pytest.mark.parametrize("name, value", [("bundle", -1), ("bundle", "count"), ("atom", -1),
                                         ("atom", "count")])
def test_cost_minor_refuses_an_index_outside_its_range(bundles, name, value) -> None:
    spec = homogeneous_study_spec(N=2, delta=0.4) if bundles == 1 else two_bundle_spec()
    assert len(spec.minor) == bundles
    ctx = MarketContext(spec, tree(3))
    if value == "count":  # one past the last bundle or atom
        value = bundles if name == "bundle" else ctx.atoms.count
    with pytest.raises(ValidationError, match=f"{name} index {value} is outside"):
        cost_minor(ctx, zeros(ctx.lattice), rate(ctx), **{f"{name}_index": value})
    assert not ctx._minor_cache


# -- perturbation reports -----------------------------------------------------


def test_zero_amplitude_row_is_exactly_zero() -> None:
    spec = scalar_market_spec(delta=0.4)
    lat = tree(3)
    rep = perturb(MarketContext(spec, lat), "major-N", directions=3, seed=1)
    zero_col = rep.eps_grid.index(0.0)
    assert np.all(rep.delta_j[:, zero_col] == 0.0)


def test_quadratic_symmetry_at_stationary_point() -> None:
    spec = scalar_market_spec(delta=0.4)
    lat = tree(3)
    rep = perturb(MarketContext(spec, lat), "major-N", directions=5, seed=2)
    eps = np.asarray(rep.eps_grid)
    for j, e in enumerate(eps):
        if e <= 0:
            continue
        jneg = int(np.where(eps == -e)[0][0])
        assert np.max(np.abs(rep.delta_j[:, j] - rep.delta_j[:, jneg])) <= 1e-8


@pytest.mark.parametrize("level", ["minor", "major-N", "major-mfg"])
def test_optimality_gates(level) -> None:
    spec = homogeneous_study_spec(N=2, delta=0.4)
    lat = tree(4)
    rep = perturb(MarketContext(spec, lat), level, directions=8, seed=3)
    assert not rep.failed
    assert rep.min_delta_j >= -1e-9
    assert rep.gradient_norm <= 1e-6
    assert rep.min_curvature > 0


def test_shared_solve_changes_no_byte() -> None:
    # the levels asked for together report, byte for byte, what each reports alone
    ctx = MarketContext(scalar_market_spec(delta=0.3, N=3), tree(3))
    pop = make_population(ctx, seed=1)
    shared = perturbation_tests(ctx, LEVELS, directions=3, seed=4, population=pop)
    assert list(shared) == list(LEVELS)
    for level in LEVELS:
        alone = perturb(ctx, level, directions=3, seed=4, population=pop)
        assert np.array_equal(alone.delta_j, shared[level].delta_j), level
        assert np.array_equal(alone.quadratic_fit, shared[level].quadratic_fit), level


@pytest.mark.parametrize("market, kwargs, error, match", [
    ("homogeneous", {"directions": 0}, ValidationError, "at least one"),
    ("homogeneous", {"levels": ["minor", "major"]}, ValidationError,
     "unknown perturbation level"),
    ("heterogeneous", {}, UnsupportedModelError,
     "population limit needs a homogeneous market: one coefficient bundle"),
], ids=["no direction", "unknown level", "no population limit"])
def test_bad_requests_fail_before_any_solve(monkeypatch, market, kwargs, error, match) -> None:
    # a heterogeneous market has no population limit, so "major-mfg" on it
    # is refused before the finite levels solve
    import marketclear.optimality as optimality

    def no_solve(*args, **kw):
        raise AssertionError("solved a request that is invalid")

    monkeypatch.setattr(optimality, "solve_full_equilibrium", no_solve)
    monkeypatch.setattr(optimality, "solve_class_system", no_solve)
    args = {"levels": LEVELS, **kwargs}
    spec = scalar_market_spec() if market == "homogeneous" else two_bundle_spec()
    with pytest.raises(error, match=match):
        perturbation_tests(MarketContext(spec, tree(2)), **args)


def test_clearing_batches_stay_within_the_amplitude_count(monkeypatch) -> None:
    # every clearing solve of a perturbation check takes at most as many flows
    # as the grid has nonzero amplitudes, and a major level makes at most
    # 1 + ceil(directions / amplitudes) of them: its base, then its end points
    real, calls = ClearingOperator.solve, []

    def solve(self, beta_norms):
        calls.append((self, len(beta_norms)))
        return real(self, beta_norms)

    monkeypatch.setattr(ClearingOperator, "solve", solve)
    directions = 13
    amplitudes = sum(e != 0.0 for e in EPS_GRID)
    perturbation_tests(MarketContext(scalar_market_spec(delta=0.3, N=3), tree(3)), LEVELS,
                       directions=directions, seed=4)
    assert max(flows for _, flows in calls) <= amplitudes
    operators = {op for op, _ in calls}
    assert len(operators) == 2  # major-N and major-mfg
    for op in operators:
        flows = [f for o, f in calls if o is op]
        assert len(flows) <= 1 + math.ceil(directions / amplitudes)
        assert sum(flows) == 1 + directions


def test_costs_are_taken_at_the_outer_amplitudes_only(monkeypatch) -> None:
    # each level costs its base once and every direction at -m and +m, in
    # stacks of at most as many flows as the grid has nonzero amplitudes
    import marketclear.optimality as optimality
    stacks = []
    for name in ("_minor_costs", "_major_costs"):
        real = getattr(optimality, name)

        def spy(*args, _real=real):
            out = _real(*args)
            stacks.append(len(out))
            return out

        monkeypatch.setattr(optimality, name, spy)
    directions = 13
    amplitudes = sum(e != 0.0 for e in EPS_GRID)
    perturbation_tests(MarketContext(scalar_market_spec(delta=0.3, N=3), tree(3)), LEVELS,
                       directions=directions, seed=4)
    assert max(stacks) <= amplitudes
    assert sum(stacks) == len(LEVELS) * (1 + 2 * directions)


def failing_batches(monkeypatch, exc, fail=lambda call: call > 1):
    """Raise ``exc`` from the clearing solves whose call number ``fail`` picks.

    Call 1 clears the base control and call 2 the end points of the first
    batch of directions (up to six, the grid's nonzero amplitudes).  After a
    failed batch, the next calls clear its directions one at a time.
    """
    real, calls = ClearingOperator.solve, []

    def solve(self, beta_norms):
        calls.append(1)
        if fail(len(calls)):
            raise exc
        return real(self, beta_norms)

    monkeypatch.setattr(ClearingOperator, "solve", solve)


def test_perturbation_counts_solver_failures_as_failed_directions(monkeypatch) -> None:
    from marketclear.errors import SolverError
    failing_batches(monkeypatch, SolverError("singular"))
    rep = perturb(MarketContext(scalar_market_spec(), tree(2)), "major-N", directions=2, seed=0)
    assert rep.failed == [0, 1]
    assert np.all(np.isnan(rep.delta_j)) and np.all(np.isnan(rep.quadratic_fit))


def only_failed(monkeypatch, directions, failing, calls) -> None:
    """Failing the clearing solves numbered ``calls`` fails direction ``failing`` alone."""
    from marketclear.errors import SolverError
    ctx = MarketContext(scalar_market_spec(), tree(2))
    clean = perturb(ctx, "major-N", directions=directions, seed=0)
    failing_batches(monkeypatch, SolverError("flow singular"), fail=lambda call: call in calls)
    rep = perturb(ctx, "major-N", directions=directions, seed=0)
    assert rep.failed == [failing]
    assert np.all(np.isnan(rep.delta_j[failing]))
    assert np.all(np.isnan(rep.quadratic_fit[failing]))
    for d in range(directions):
        if d != failing:
            assert np.array_equal(rep.delta_j[d], clean.delta_j[d])
            assert np.array_equal(rep.quadratic_fit[d], clean.quadratic_fit[d])


def test_one_failed_batch_fails_only_its_direction(monkeypatch) -> None:
    # call 2 is the batch of all three end points; calls 3-5 clear them alone
    only_failed(monkeypatch, directions=3, failing=1, calls=(2, 4))


def test_failure_in_the_middle_of_a_full_batch(monkeypatch) -> None:
    # call 2 is the batch of directions 0-5; calls 3-8 clear them alone, and
    # call 9 is the batch of directions 6 and 7
    only_failed(monkeypatch, directions=8, failing=3, calls=(2, 6))


def test_perturbation_propagates_programming_errors(monkeypatch) -> None:
    failing_batches(monkeypatch, TypeError("bad operand"))
    with pytest.raises(TypeError, match="bad operand"):
        perturb(MarketContext(scalar_market_spec(), tree(2)), "major-N", directions=2, seed=0)


# -- Hamiltonians ---------------------------------------------------------------


def test_minor_hamiltonian_zero_case() -> None:
    assert hamiltonian_minor(0.0, 0.0, 0.0, 1.0) == 0.0


def test_minor_hamiltonian_vertex_on_grid() -> None:
    # y = 1, phi = 1, unit fee: the minimizer -2 beats a fine control grid
    best = minimizer_alpha(1.0, 1.0, 1.0)
    assert best == pytest.approx(-2.0)
    h_best = hamiltonian_minor(1.0, best, 1.0, 1.0)
    grid = np.arange(-4.0, 0.0 + 1e-9, 0.01)
    values = [hamiltonian_minor(1.0, a, 1.0, 1.0) for a in grid]
    assert h_best <= min(values) + 1e-12
    assert min(values) == pytest.approx(h_best, abs=1e-4)


def test_system_hamiltonian_zero_case() -> None:
    dims = Dimensions(1, 1, 0, 2)
    from marketclear.model import QuadraticMajorCost
    spec = make_spec(dims, minor=MinorBundle.build(dims, cf=0.0, hf=0.0),
                     major_cost=QuadraticMajorCost.build(dims, c0f=0.0, h0f=0.0))
    val = hamiltonian_system(spec, 0.0, [0.0], [[0.0]] * 2, [[0.0]] * 2,
                             [0.0], [[0.0]] * 2, [[0.0]] * 2, [0.0])
    assert val == 0.0


def test_system_hamiltonian_minimized_by_flow_rule() -> None:
    spec = scalar_market_spec(N=2)
    rng = np.random.default_rng(17)
    x0, p0 = rng.normal(size=1), rng.normal(size=1)
    xs, ys = [rng.normal(size=1) for _ in range(2)], [rng.normal(size=1) for _ in range(2)]
    ps, rs = [rng.normal(size=1) for _ in range(2)], [rng.normal(size=1) for _ in range(2)]
    lam = spec.lambda_minor.value
    lam0 = spec.lambda_major.value
    best = minimizer_beta(p0, np.mean(ys, axis=0), np.mean(ps, axis=0),
                          lam0, lam, N=2)
    h0 = hamiltonian_system(spec, 0.0, x0, xs, ys, p0, ps, rs, best)
    for trial in range(100):
        v = rng.normal(size=1)
        assert h0 <= hamiltonian_system(spec, 0.0, x0, xs, ys, p0, ps, rs,
                                        best + v) + 1e-12


def test_mfg_hamiltonian_flow_rule_example() -> None:
    spec = homogeneous_study_spec()
    rng = np.random.default_rng(23)
    args = dict(x0=rng.normal(size=1), x1=rng.normal(size=1), y1=rng.normal(size=1),
                ybar=rng.normal(size=1), p0=rng.normal(size=1), p1=rng.normal(size=1),
                pbar=rng.normal(size=1), r1=rng.normal(size=1))
    best = minimizer_beta(args["p0"], args["ybar"], args["pbar"],
                          spec.lambda_major.value, spec.lambda_minor.value)
    h0 = hamiltonian_mfg(spec, 0.0, beta=best, **args)
    for trial in range(100):
        v = rng.normal(size=1)
        assert h0 <= hamiltonian_mfg(spec, 0.0, beta=best + v, **args) + 1e-12
