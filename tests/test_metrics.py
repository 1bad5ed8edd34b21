from __future__ import annotations

from dataclasses import replace
from math import factorial
from pathlib import Path

import numpy as np
import pytest

import marketclear.finite_market as finite_market
import marketclear.metrics as metrics
from marketclear.errors import UnsupportedModelError, ValidationError
from marketclear.fbsde import DirectSolver
from marketclear.finite_market import (MarketContext, make_population,
                                       solve_full_equilibrium)
from marketclear.mean_field import solve_mfg
from marketclear.metrics import (_ReferenceClouds, convergence_study, derive_seed,
                                 epsilon_rate, fit_loglog, price_gap, stability_gap)
from marketclear.model import (CallableMajorCost, CoefficientSpec, Dimensions, DiscreteLaw,
                               MinorBundle, make_spec)
from marketclear.modelfile import load_model
from marketclear.scenario import TimeGrid, build_lattice, sample_idiosyncratic

from conftest import constant_field, homogeneous_study_spec
from coupling_oracle import (EmpiricalMeasure, _quantile_coupling_cost, wasserstein1_1d,
                             wasserstein2)

MODELS = Path(__file__).resolve().parent.parent / "models"


def cloud(points):
    return EmpiricalMeasure(np.asarray(points, dtype=float))


# -- transport distances ---------------------------------------------------------


def test_sorted_coupling_example() -> None:
    assert wasserstein2(cloud([[0.0], [2.0]]), cloud([[1.0], [1.0]])) == pytest.approx(1.0)


def test_identical_clouds_distance_zero() -> None:
    pts = np.random.default_rng(1).normal(size=(16, 3))
    assert wasserstein2(EmpiricalMeasure(pts), EmpiricalMeasure(pts.copy())) == 0.0


def test_two_dimensional_assignment_example() -> None:
    a = cloud([[0.0, 0.0], [1.0, 1.0]])
    b = cloud([[1.0, 0.0], [0.0, 1.0]])
    assert wasserstein2(a, b) == pytest.approx(1.0)


def test_symmetry_exact_and_triangle_inequality() -> None:
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 9))
        a, b, c = (EmpiricalMeasure(rng.normal(size=(m, n))) for _ in range(3))
        dab, dba = wasserstein2(a, b), wasserstein2(b, a)
        assert dab == dba
        assert dab <= wasserstein2(a, c) + wasserstein2(c, b) + 1e-12


def test_sort_path_agrees_with_assignment_path() -> None:
    rng = np.random.default_rng(11)
    for trial in range(50):
        m = int(rng.integers(2, 40))
        xa, xb = rng.normal(size=(m, 1)), rng.normal(size=(m, 1))
        by_sort = wasserstein2(EmpiricalMeasure(xa), EmpiricalMeasure(xb))
        diff = xa[:, None, 0] - xb[None, :, 0]
        from scipy.optimize import linear_sum_assignment
        r, c = linear_sum_assignment(diff**2)
        by_assignment = float(np.sqrt((diff**2)[r, c].mean()))
        assert by_sort == pytest.approx(by_assignment, abs=1e-12)


def test_mean_difference_bounded_by_distances() -> None:
    rng = np.random.default_rng(13)
    for trial in range(100):
        ma, mb = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        a = EmpiricalMeasure(rng.normal(size=(ma, 1)))
        b = EmpiricalMeasure(rng.normal(size=(mb, 1)))
        gap = abs(float(a.mean()[0] - b.mean()[0]))
        w1 = wasserstein1_1d(a, b)
        w2 = wasserstein2(a, b)
        assert gap <= w1 + 1e-12
        assert w1 <= w2 + 1e-12


def test_weighted_quantile_path_handles_unequal_counts() -> None:
    emp = EmpiricalMeasure(np.array([[0.0], [0.0], [1.0], [1.0]]))
    law = EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    assert wasserstein2(emp, law) == pytest.approx(0.0, abs=1e-15)


def test_multidimensional_unequal_counts_rejected() -> None:
    with pytest.raises(UnsupportedModelError):
        wasserstein2(cloud([[0.0, 0.0]]), cloud([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(UnsupportedModelError):
        wasserstein2(EmpiricalMeasure(np.zeros((2, 2)), np.array([0.3, 0.7])),
                     cloud([[0.0, 0.0], [1.0, 1.0]]))


# -- rate and gap -----------------------------------------------------------------


def test_epsilon_rate_reference_values() -> None:
    assert epsilon_rate(16, 1) == pytest.approx(0.25)
    assert epsilon_rate(100, 1) == pytest.approx(0.1)
    assert epsilon_rate(10_000, 6) == pytest.approx(0.046415888, abs=1e-9)
    # literal log factor at N = 4
    assert epsilon_rate(4, 1) == pytest.approx(0.5 * (1 + np.log(4.0)))


def test_price_gap_examples() -> None:
    lat = build_lattice(TimeGrid(2.0, 4), d0=1)
    a = constant_field(lat, np.array([0.7]))
    assert price_gap(a, a, lat) == 0.0
    b = constant_field(lat, np.array([1.7]))
    assert price_gap(a, b, lat) == pytest.approx(2.0)


def test_price_gap_rejects_other_lattice() -> None:
    lat = build_lattice(TimeGrid(1.0, 2), d0=1)
    other = build_lattice(TimeGrid(1.0, 3), d0=1)
    with pytest.raises(ValidationError):
        price_gap(constant_field(lat, np.zeros(1)), constant_field(other, np.zeros(1)), lat)


def test_fit_loglog_recovers_power_law() -> None:
    ns = [8, 16, 32, 64]
    vals = [2.0 * N**-0.5 for N in ns]
    slope, intercept, stderr, used = fit_loglog(ns, vals)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert used == ns


def test_study_keeps_n4_out_of_its_fit() -> None:
    # N = 4 stays out of fits: the study drops it before it fits the others
    ctx = MarketContext(homogeneous_study_spec(), build_lattice(TimeGrid(1.0, 3), d0=1))
    report = convergence_study(ctx, [4, 8, 16, 32], resamples=4, seed=3)
    assert report.fitted_ns == [8, 16, 32] and report.excluded_ns == [4]
    slope, *_ = fit_loglog([8, 16, 32], [report.per_n[N]["mean_price_gap"] for N in (8, 16, 32)])
    assert report.slope == slope


# -- convergence study --------------------------------------------------------------


def test_point_mass_study_is_degenerate() -> None:
    spec = make_spec(Dimensions(1, 1, 0, 4), delta=0.3, xi_law=DiscreteLaw.point([1.0]),
                     c0_law=("constant", [0.1]))
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    report = convergence_study(MarketContext(spec, lat), [2, 4, 8], resamples=3, seed=5)
    assert report.degenerate
    assert report.slope is None


def test_study_reproducible() -> None:
    spec = homogeneous_study_spec()
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    a = convergence_study(MarketContext(spec, lat), [4, 8], resamples=4, seed=3)
    b = convergence_study(MarketContext(spec, lat), [4, 8], resamples=4, seed=3)
    assert a.rows == b.rows


def test_doubling_resamples_shrinks_standard_error() -> None:
    ctx = MarketContext(homogeneous_study_spec(), build_lattice(TimeGrid(1.0, 3), d0=1))
    small = convergence_study(ctx, [8], resamples=64, seed=9)
    big = convergence_study(ctx, [8], resamples=128, seed=9)
    ratio = big.per_n[8]["stderr_price_gap"] / small.per_n[8]["stderr_price_gap"]
    assert 0.5 <= ratio <= 1.0


def test_study_requires_homogeneous_population() -> None:
    dims = Dimensions(1, 1, 0, 2)
    spec = make_spec(dims, minor=[MinorBundle.build(dims), MinorBundle.build(dims)])
    lat = build_lattice(TimeGrid(1.0, 2), d0=1)
    with pytest.raises(UnsupportedModelError):
        convergence_study(MarketContext(spec, lat), [2], resamples=1, seed=0)


def three_atom_spec():
    """Scalar model with common noise and a three-atom law of unequal weights."""
    dims = Dimensions(n=1, d0=1, d=0, N=5)
    return make_spec(dims, delta=0.3, lam=1.3, lam0=0.7, chi0=[0.3],
                     xi_law=DiscreteLaw(np.array([[0.0], [1.0], [2.5]]),
                                        np.array([0.2, 0.3, 0.5])),
                     c0_law=("gaussian_walk", [0.2], [0.1], [[0.3]]))


def test_study_rows_match_full_finite_solves() -> None:
    spec = three_atom_spec()
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    ctx = MarketContext(spec, lat)
    report = convergence_study(ctx, [2, 5, 10], resamples=4, seed=1)
    mf = solve_mfg(ctx)
    ref = _ReferenceClouds(ctx, mf)
    flow = lambda name: np.stack([mf.atom_field(name, a) for a in range(ctx.atoms.count)])
    tsl = lat.terminal_slice
    for row in report.rows:
        N = row["N"]
        draw = sample_idiosyncratic(ctx.atoms, N, derive_seed(1, N, row["resample"]))
        pop = make_population(ctx, N=N, assignments=draw)
        eq = solve_full_equilibrium(ctx, pop)
        assert row["price_gap"] == pytest.approx(price_gap(eq.price, mf.price, lat),
                                                 rel=1e-12, abs=1e-14)
        emp_w = np.bincount(draw, minlength=3) / N
        active = emp_w > 0
        dist = lambda values: _quantile_coupling_cost(values[active, :, 0], emp_w[active],
                                                      values[:, :, 0], ref.weights, 2)
        assert row["w2_g"] == lat.terminal_expectation(dist(ref.g))
        assert row["w2_rT"] == lat.terminal_expectation(dist(flow("r")[:, tsl, :]))
        assert row["int_w2_y"] == lat.running_expectation(dist(ref.y))
        assert row["int_w2_p"] == lat.running_expectation(dist(flow("p")))
        assert row["epsilon_N"] == epsilon_rate(N, 1)


def test_expected_gap_is_the_multinomial_mean() -> None:
    spec = three_atom_spec()
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    ctx = MarketContext(spec, lat)
    N = 5
    report = convergence_study(ctx, [N], resamples=1, seed=0)
    mf = solve_mfg(ctx)
    w = ctx.atoms.weights
    mean = 0.0
    for c0 in range(N + 1):
        for c1 in range(N + 1 - c0):
            counts = np.array([c0, c1, N - c0 - c1])
            prob = factorial(N) * np.prod(w ** counts) / np.prod(
                [factorial(int(c)) for c in counts])
            pop = make_population(ctx, N=N, assignments=np.repeat(np.arange(3), counts))
            eq = solve_full_equilibrium(ctx, pop)
            mean += prob * price_gap(eq.price, mf.price, lat)
    assert report.per_n[N]["expected_price_gap"] == pytest.approx(mean, rel=1e-12)


def test_study_solves_the_atom_basis_once(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("the study must not solve a finite market")

    for module in (finite_market, metrics):
        monkeypatch.setattr(module, "solve_full_equilibrium", refuse)
        monkeypatch.setattr(module, "make_population", refuse)
    passes, batches = [], []
    init, solve = DirectSolver.__init__, DirectSolver.solve
    monkeypatch.setattr(DirectSolver, "__init__",
                        lambda self, system: (passes.append(1), init(self, system))[1])
    monkeypatch.setattr(DirectSolver, "solve",
                        lambda self, **constants: batches.append(solve(self, **constants))
                        or batches[-1])
    ctx = MarketContext(three_atom_spec(), build_lattice(TimeGrid(1.0, 3), d0=1))
    solve_mfg(ctx)
    mfg_passes, mfg_batches = len(passes), len(batches)
    convergence_study(ctx, [2, 4, 8, 16], resamples=8, seed=3)
    # the limit's own solves plus one matrix pass and one batch of A = 3 systems
    assert len(passes) - mfg_passes == mfg_passes + 1
    assert len(batches) - mfg_batches == mfg_batches + 1
    assert len(batches[-1].diagnostics) == 3


def test_maturity_study_has_no_terminal_distance() -> None:
    # at maturity every atom's terminal gradient is -c0, whatever cg: w2_g is
    # zero and every row equals that of the same model without curvature
    spec = replace(load_model(MODELS / "benchmark.model"), maturity_mode=True)
    flat = replace(spec, minor=[replace(spec.minor[0],
                                        cg=CoefficientSpec.constant(0.0, (1, 1), "cg"))])
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    report = convergence_study(MarketContext(spec, lat), [8, 16, 32], 6, seed=0)
    assert [row["w2_g"] for row in report.rows] == [0.0] * len(report.rows)
    assert report.rows == convergence_study(MarketContext(flat, lat), [8, 16, 32], 6,
                                            seed=0).rows


def test_study_needs_an_affine_major_cost() -> None:
    dims = Dimensions(1, 1, 0, 4)
    spec = make_spec(dims, major_cost=CallableMajorCost(
        dfdx=lambda t, x, c0: x + 0.1 * np.tanh(x), dgdx=lambda x, c0: x),
        xi_law=DiscreteLaw(np.array([[0.0], [2.0]]), np.array([0.5, 0.5])))
    lat = build_lattice(TimeGrid(1.0, 2), d0=1)
    with pytest.raises(UnsupportedModelError):
        convergence_study(MarketContext(spec, lat), [2, 4], resamples=2, seed=0)


@pytest.mark.parametrize("n_list, resamples", [([0, 8], 2), ([-4, 8], 2), ([], 2),
                                               ([8], 0), ([8], -2), ([8, 8, 16, 32], 2)])
def test_study_rejects_empty_sizes_and_resamples(n_list, resamples) -> None:
    ctx = MarketContext(homogeneous_study_spec(), build_lattice(TimeGrid(1.0, 2), d0=1))
    with pytest.raises(ValidationError):
        convergence_study(ctx, n_list, resamples, seed=0)


# -- stability ----------------------------------------------------------------------


def hetero_from(base, eps, pattern):
    dims = base.dims
    bundles = []
    for i in range(dims.N):
        bundles.append(MinorBundle.build(dims, l=eps * pattern[i],
                                         cf=1.0, hf=0.0, cg=1.0, hg=0.0))
    return make_spec(dims, delta=base.delta, minor=bundles,
                     xi_law=base.xi_law, c0_law=base.c0_law)


def test_zero_heterogeneity_gives_identical_prices() -> None:
    base = homogeneous_study_spec(N=4)
    hetero = hetero_from(base, 0.0, [1.0] * 4)
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    report = stability_gap(MarketContext(hetero, lat), MarketContext(base, lat), seed=2)
    assert report.lhs_hetero == pytest.approx(report.lhs_homogeneous, abs=1e-12)
    assert report.delta_total == pytest.approx(0.0, abs=1e-14)


def test_maturity_stability_has_no_terminal_terms() -> None:
    # bundles that differ only in cg: at maturity no terminal cost sees cg, so
    # the terminal terms vanish and both markets are one cost class alike
    base = replace(homogeneous_study_spec(N=4), maturity_mode=True,
                   c0_law=("gaussian_walk", [0.4], [0.2], [[0.5]]))
    hetero = make_spec(base.dims, delta=base.delta, maturity_mode=True,
                       minor=[MinorBundle.build(base.dims, cg=cg) for cg in (0.6, 0.9, 1.2, 1.5)],
                       xi_law=base.xi_law, c0_law=base.c0_law)
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    report = stability_gap(MarketContext(hetero, lat), MarketContext(base, lat), seed=2)
    assert report.delta_terms["dg_terminal"] == 0.0
    assert report.delta_terms["dcg_r_terminal"] == 0.0
    assert report.w2_terms["w2_g"] == 0.0
    assert report.lhs_hetero == report.lhs_homogeneous


def test_constant_flow_shift_ingredient_equals_horizon() -> None:
    # dl_i = 1 for every agent: the flow-difference ingredient is exactly T
    base = make_spec(Dimensions(1, 1, 0, 3), delta=0.2, xi_law=DiscreteLaw.point([1.0]),
                     c0_law=("constant", [0.0]))
    hetero = hetero_from(base, 1.0, [1.0, 1.0, 1.0])
    T = 2.0
    lat = build_lattice(TimeGrid(T, 4), d0=1)
    report = stability_gap(MarketContext(hetero, lat), MarketContext(base, lat), seed=2)
    assert report.delta_terms["dl"] == pytest.approx(T)


def test_stability_gap_refuses_markets_on_different_lattices() -> None:
    base = homogeneous_study_spec(N=4)
    with pytest.raises(ValidationError, match="share a lattice"):
        stability_gap(MarketContext(base, build_lattice(TimeGrid(1.0, 3), d0=1)),
                      MarketContext(base, build_lattice(TimeGrid(1.0, 2), d0=1)))


def test_small_flow_perturbation_is_second_order() -> None:
    base = make_spec(Dimensions(1, 1, 0, 4), delta=0.2, xi_law=DiscreteLaw.point([1.0]),
                     c0_law=("constant", [0.0]))
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    reference = MarketContext(base, lat)
    pattern = [(i + 1) / 4 for i in range(4)]
    eps_list = [0.02, 0.04, 0.08]
    lhs = []
    for eps in eps_list:
        report = stability_gap(MarketContext(hetero_from(base, eps, pattern), lat), reference,
                               seed=2)
        lhs.append(report.lhs_hetero - report.lhs_homogeneous)
    slope, *_ = fit_loglog(eps_list, lhs)
    assert slope == pytest.approx(2.0, abs=0.2)
