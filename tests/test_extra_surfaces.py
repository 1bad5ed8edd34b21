from __future__ import annotations

import inspect
import warnings

import numpy as np
import pytest

import marketclear
from marketclear.errors import SolverError, UnsupportedModelError
from marketclear.finite_market import (MarketContext, make_population,
                                       solve_full_equilibrium, solve_mfg)
from marketclear.metrics import price_gap
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
    # the model is refused where it is built, so no entry point can take it
    dims = Dimensions(1, 1, 1, 2)
    with pytest.raises(UnsupportedModelError):
        make_spec(dims, minor=MinorBundle.build(dims, sigma=[[0.5]]))
    # zero loading with d > 0 stays inside the solvable class
    ok = make_spec(dims, minor=MinorBundle.build(dims, sigma=[[0.0]]))
    MarketContext(ok, build_lattice(TimeGrid(1.0, 2), d0=1))


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


EXPORTS = [
    "AgentGroup", "AgentPopulation", "AssumptionReport", "AssumptionViolationError",
    "BudgetError", "CallableMajorCost", "ClassSolution", "ClearingOperator",
    "CoefficientSpec", "ConvergenceReport", "Dimensions", "DirectSolver", "DiscreteLaw",
    "EquilibriumSolution", "FamilySolution", "FbsdeSystem", "IdiosyncraticAtoms", "MajorFlow",
    "MarketClearError", "MarketContext", "MfgSolution", "MinorBundle", "ModelSpec", "NodeField",
    "NoiseLattice", "PerturbationReport", "QuadraticMajorCost", "SolveDiagnostics",
    "SolverError", "StabilityReport", "TimeGrid", "UnsupportedModelError", "ValidationError",
    "build_lattice", "check_all_assumptions", "clearing_residual", "convergence_study",
    "cost_classes", "epsilon_rate",
    "evaluate_exogenous", "idiosyncratic_atoms", "limit_classes", "load_model", "loads_model",
    "make_population", "make_spec", "perturbation_tests", "price_gap",
    "residual", "sample_idiosyncratic", "solve_full_equilibrium", "solve_mfg",
    "solve_minor_clearing", "stability_gap", "stream_rng", "write_lattice_csv",
]

# the parameter names of every exported callable, in order; None for an error type
# that takes the arguments of ``Exception``
PARAMETERS = {
    "AgentGroup": ("bundle_index", "atom_index", "count"),
    "AgentPopulation": ("groups", "agent_group"),
    "AssumptionReport": (
        "passed", "gamma_f", "gamma_g", "gamma0_f", "gamma0_g", "a_const", "lambda_bounds",
        "combo_bounds", "beta1", "mu1", "gamma0_f_scaled", "gamma0_g_scaled", "skipped",
        "inconclusive", "failures"),
    "AssumptionViolationError": ("message", "report"),
    "BudgetError": None,
    "CallableMajorCost": ("dfdx", "dgdx"),
    "ClassSolution": ("solution", "classes", "deviations", "price"),
    "ClearingOperator": ("ctx", "tabs", "w"),
    "CoefficientSpec": (
        "kind", "shape", "value", "times", "values", "const", "c0_mat", "ci_mat", "name"),
    "ConvergenceReport": (
        "n_list", "resamples", "seed", "rows", "per_n", "slope", "intercept", "slope_stderr",
        "fitted_ns", "excluded_ns", "fitted_constant", "ratio_spread", "degenerate"),
    "Dimensions": ("n", "d0", "d", "N"),
    "DirectSolver": ("system",),
    "DiscreteLaw": ("atoms", "weights"),
    "EquilibriumSolution": (
        "solution", "classes", "deviations", "price", "population", "alpha_hat", "beta_hat",
        "beta_norm", "clearing_residual", "x0"),
    "FamilySolution": ("system", "forward", "backward", "diagnostics"),
    "FbsdeSystem": (
        "lattice", "forward_slices", "backward_slices", "Afb", "Bbf", "G", "initial", "af", "S",
        "bb", "g"),
    "IdiosyncraticAtoms": ("xi", "ci", "weights"),
    "MajorFlow": ("l0", "s0"),
    "MarketClearError": None,
    "MarketContext": ("spec", "lattice", "force"),
    "MfgSolution": ("solution", "classes", "deviations", "price", "beta_norm"),
    "MinorBundle": ("l", "sigma0", "sigma", "cf", "hf", "cg", "hg"),
    "ModelSpec": (
        "dims", "delta", "lambda_minor", "lambda_major", "minor", "major_flow", "major_cost",
        "chi0", "xi_law", "ci_law", "c0_law", "maturity_mode"),
    "NodeField": ("lattice", "values"),
    "NoiseLattice": ("grid", "d0", "branching"),
    "PerturbationReport": (
        "level", "eps_grid", "directions", "delta_j", "quadratic_fit", "failed"),
    "QuadraticMajorCost": ("c0f", "h0f", "c0g", "h0g"),
    "SolveDiagnostics": (
        "method", "iterations", "max_equation_residual", "terminal_mismatch", "converged"),
    "SolverError": ("message", "diagnostics"),
    "StabilityReport": ("lhs_hetero", "lhs_homogeneous", "delta_terms", "w2_terms"),
    "TimeGrid": ("horizon", "steps"),
    "UnsupportedModelError": None,
    "ValidationError": None,
    "build_lattice": ("grid", "d0", "branching"),
    "check_all_assumptions": ("spec",),
    "clearing_residual": ("solution",),
    "convergence_study": ("ctx", "n_list", "resamples", "seed"),
    "cost_classes": ("tabs", "w"),
    "epsilon_rate": ("N", "n"),
    "evaluate_exogenous": ("lattice", "spec"),
    "idiosyncratic_atoms": ("spec",),
    "limit_classes": ("ctx",),
    "load_model": ("path",),
    "loads_model": ("text",),
    "make_population": ("ctx", "N", "seed", "assignments"),
    "make_spec": (
        "dims", "delta", "lam", "lam0", "minor", "major_flow", "major_cost", "chi0", "xi_law",
        "ci_law", "c0_law", "maturity_mode"),
    "perturbation_tests": ("ctx", "levels", "directions", "seed", "population"),
    "price_gap": ("phi_a", "phi_b", "lattice"),
    "residual": ("system", "family"),
    "sample_idiosyncratic": ("law", "count", "seed"),
    "solve_full_equilibrium": ("ctx", "population"),
    "solve_mfg": ("ctx",),
    "solve_minor_clearing": ("ctx", "beta", "population"),
    "stability_gap": ("ctx", "reference", "seed", "assignments"),
    "stream_rng": ("seed", "stream"),
    "write_lattice_csv": ("lattice", "path"),
}


def test_exported_names_are_pinned() -> None:
    # adding or dropping an export is a reviewed change of this list
    assert len(EXPORTS) == 56
    assert sorted(marketclear.__all__) == EXPORTS
    assert [n for n in dir(marketclear) if not n.startswith("_")] == EXPORTS
    for name in EXPORTS:
        value = getattr(marketclear, name)
        assert value.__module__.startswith("marketclear.") and value.__name__ == name
    with pytest.raises(AttributeError):
        marketclear.EmpiricalMeasure


def test_settable_parameters_are_pinned() -> None:
    # adding a keyword or an argument to an exported callable is a reviewed change
    # of ``PARAMETERS``
    assert sorted(PARAMETERS) == EXPORTS
    for name, params in PARAMETERS.items():
        value = getattr(marketclear, name)
        if params is None:
            with pytest.raises(ValueError):
                inspect.signature(value)
        else:
            assert tuple(inspect.signature(value).parameters) == params, name
