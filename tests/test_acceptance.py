"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines alongside the pytest verdicts.
"""

from __future__ import annotations

import numpy as np

from marketclear.cli import main as cli_main
from marketclear.fbsde import DirectSolver
from marketclear.finite_market import (MarketContext, build_full_system,
                                       make_population, solve_full_equilibrium,
                                       solve_mfg, solve_minor_clearing)
from marketclear.metrics import (convergence_study, epsilon_rate, fit_loglog, price_gap,
                                 stability_gap)
from marketclear.model import (Dimensions, DiscreteLaw, MajorFlow, MinorBundle,
                               QuadraticMajorCost, make_spec)
from marketclear.optimality import perturbation_tests
from marketclear.scenario import TimeGrid, build_lattice, stream_rng

from conftest import (callable_twin, constant_field, homogeneous_study_spec,
                      noiseless_unit_spec)
from coupling_oracle import EmpiricalMeasure, wasserstein1_1d, wasserstein2

def gate(label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {label}: {verdict}{suffix}")
    assert ok, f"{label}: {detail}"


# -- LQ benchmark suite (criteria 1 and 2) -----------------------------------


def suite_spec(n: int, N: int):
    if n == 1:
        dims = Dimensions(1, 1, 0, N)
        return make_spec(
            dims, delta=0.3, lam=1.2, lam0=0.8, chi0=[0.3],
            xi_law=DiscreteLaw(np.array([[0.4], [1.6]]), np.array([0.5, 0.5])),
            c0_law=("gaussian_walk", [0.2], [0.1], [[0.3]]))
    dims = Dimensions(2, 1, 0, N)
    minor = MinorBundle.build(
        dims, l=[0.1, -0.2], sigma0=[[0.3], [0.2]],
        cf=[[1.1, 0.1], [0.1, 0.9]], hf=[0.2, 0.0],
        cg=[[1.0, 0.2], [0.2, 1.3]], hg=[0.1, -0.1])
    return make_spec(
        dims, delta=0.3,
        lam=[[1.2, 0.2], [0.2, 1.0]], lam0=[[0.8, -0.1], [-0.1, 0.9]],
        minor=minor,
        major_flow=MajorFlow.build(dims, l0=[0.1, 0.0], s0=[[0.2], [0.1]]),
        major_cost=QuadraticMajorCost.build(
            dims, c0f=[[0.9, 0.0], [0.0, 1.1]], h0f=[0.1, 0.0],
            c0g=[[1.2, 0.1], [0.1, 1.0]], h0g=[0.0, 0.05]),
        chi0=[0.3, -0.2],
        xi_law=DiscreteLaw(np.array([[0.4, 1.2], [1.6, 0.2]]), np.array([0.5, 0.5])),
        c0_law=("gaussian_walk", [0.2, 0.0], [0.1, 0.0], [[0.3], [0.2]]))


def lq_cases():
    return [(n, N, K) for n in (1, 2) for N in (1, 2, 4, 8) for K in (2, 4, 6)]


_solved = {}


def solved_case(n, N, K):
    key = (n, N, K)
    if key not in _solved:
        spec = suite_spec(n, N)
        lattice = build_lattice(TimeGrid(1.0, K), d0=1)
        ctx = MarketContext(spec, lattice)
        pop = make_population(ctx, N=N, assignments=[i % 2 for i in range(N)])
        system = build_full_system(ctx, ctx.group_tables(pop), pop.weights)
        direct = DirectSolver(system).solve()
        eq = solve_full_equilibrium(ctx, pop)
        _solved[key] = (spec, lattice, ctx, pop, system, direct, eq)
    return _solved[key]


def test_criterion_01_market_clearing() -> None:
    worst = 0.0
    for (n, N, K) in lq_cases():
        eq = solved_case(n, N, K)[6]
        worst = max(worst, eq.clearing_residual)
    gate("criterion 01 market clearing", worst <= 1e-10,
         f"max |sum alpha + beta| = {worst:.3e}")


def group_state_gap(direct, eq) -> float:
    """Largest gap between the solved coupled group system and an equilibrium's fields."""
    gaps = [direct.field(name) - eq.major_field(name) for name in ("x0", "p0")]
    gaps += [direct.field(f"{name}{g}") - eq.group_field(name, g)
             for g in range(eq.population.size) for name in "XYRP"]
    return max(float(np.max(np.abs(gap))) for gap in gaps)


def test_criterion_02_oracle_equivalence() -> None:
    # the callable twin's affine iteration on the cost classes against one
    # direct solve of the coupled group system
    worst = 0.0
    for (n, N, K) in lq_cases():
        spec, lattice, _, pop, _, direct, _ = solved_case(n, N, K)
        twin = callable_twin(spec)
        iterated = solve_full_equilibrium(MarketContext(twin, lattice), pop)
        worst = max(worst, group_state_gap(direct, iterated))
    # independently assembled dense oracle on the 2-step scalar two-agent market
    from tiny_tree_oracle import TinyTreeOracle
    from test_finite_market import ORACLE_PARAMS, oracle_spec
    oracle = TinyTreeOracle(K=2, T=1.0, **ORACLE_PARAMS).solve()
    spec = oracle_spec()
    lattice = build_lattice(TimeGrid(1.0, 2), d0=1)
    ctx = MarketContext(spec, lattice)
    pop = make_population(ctx, assignments=[0, 1])
    oracle_worst = 0.0
    for model in (spec, callable_twin(spec)):
        eq = solve_full_equilibrium(MarketContext(model, lattice), pop)
        checks = [
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
        for want, got in checks:
            oracle_worst = max(oracle_worst, float(np.max(np.abs(want - got))))
    gate("criterion 02 oracle equivalence",
         worst <= 1e-8 and oracle_worst <= 1e-8,
         f"callable twin-direct {worst:.3e}, oracle {oracle_worst:.3e}")


def closed_form_errors(K: int):
    spec = noiseless_unit_spec()
    lattice = build_lattice(TimeGrid(1.0, K), d0=0)
    eq = solve_minor_clearing(MarketContext(spec, lattice), constant_field(lattice, np.zeros(1)))
    t = lattice.level_of * lattice.dt
    y_err = float(np.max(np.abs(eq.group_field("Y", 0)[:, 0] - (2.0 - t))))
    phi_err = float(np.max(np.abs(eq.price.values[:, 0] + (2.0 - t))))
    return y_err, phi_err


def test_criterion_03_closed_form_benchmark() -> None:
    y64, phi64 = closed_form_errors(64)
    y128, phi128 = closed_form_errors(128)
    err64, err128 = max(y64, phi64), max(y128, phi128)
    ratio = err128 / err64
    gate("criterion 03 closed-form benchmark",
         err64 <= 2e-2 and 0.4 <= ratio <= 0.6,
         f"err(64) = {err64:.4f}, ratio = {ratio:.3f}")


def test_criterion_04_optimality() -> None:
    spec = homogeneous_study_spec(N=2, delta=0.4)
    lattice = build_lattice(TimeGrid(1.0, 6), d0=1)
    ctx = MarketContext(spec, lattice)
    pop = make_population(ctx, assignments=[0, 1])
    worst_dj, worst_grad = np.inf, 0.0
    reports = perturbation_tests(ctx, ("minor", "major-N", "major-mfg"), directions=20,
                                 seed=101, population=pop)
    for rep in reports.values():
        assert not rep.failed
        worst_dj = min(worst_dj, rep.min_delta_j)
        worst_grad = max(worst_grad, rep.gradient_norm)
    gate("criterion 04 optimality",
         worst_dj >= -1e-9 and worst_grad <= 1e-6,
         f"min dJ = {worst_dj:.3e}, max |a1| = {worst_grad:.3e}")


def test_criterion_05_mean_field_consistency() -> None:
    dims = Dimensions(1, 1, 0, 8)
    spec = make_spec(dims, delta=0.4, xi_law=DiscreteLaw.point([1.0]),
                     c0_law=("gaussian_walk", [0.2], [0.1], [[0.3]]))
    lattice = build_lattice(TimeGrid(1.0, 5), d0=1)
    ctx = MarketContext(spec, lattice)
    mf = solve_mfg(ctx)
    worst = 0.0
    for N in (1, 2, 4, 8):
        pop = make_population(ctx, N=N)
        eq = solve_full_equilibrium(ctx, pop)
        worst = max(worst, price_gap(eq.price, mf.price, lattice))
    gate("criterion 05 mean-field consistency",
         worst <= 1e-16 * lattice.grid.horizon,
         f"max point-mass price gap = {worst:.3e}")


def test_criterion_06_convergence_rate() -> None:
    spec = homogeneous_study_spec(N=8, delta=0.3)
    lattice = build_lattice(TimeGrid(1.0, 6), d0=1)
    report = convergence_study(MarketContext(spec, lattice), [8, 16, 32, 64], resamples=64,
                               seed=2024)
    rhs_ok = all(report.per_n[N]["mean_rhs"] > 0 for N in report.n_list)
    shape_ok = rhs_ok and report.ratio_spread is not None and report.ratio_spread <= 10.0
    bound_ok = all(report.per_n[N]["mean_price_gap"]
                   <= report.fitted_constant * report.per_n[N]["mean_rhs"] + 1e-15
                   for N in report.n_list)
    gate("criterion 06 convergence rate",
         report.slope is not None and report.slope <= -0.35 and shape_ok and bound_ok,
         f"slope = {report.slope:.3f} (theory reference -0.5), "
         f"C = {report.fitted_constant:.3g}, ratio spread = {report.ratio_spread:.2f}")


def test_criterion_07_empirical_measure_rate() -> None:
    law_atoms = np.array([[0.0], [1.0]])
    law = EmpiricalMeasure(law_atoms, np.array([0.5, 0.5]))
    cdf = np.array([0.5, 1.0])
    ns = [8, 16, 32, 64, 128, 256, 512]
    resamples = 400
    means = []
    for N in ns:
        total = 0.0
        for r in range(resamples):
            u = stream_rng(777, N, r).random(N)
            idx = np.searchsorted(cdf, u, side="right")
            emp = EmpiricalMeasure(law_atoms[idx])
            total += wasserstein2(emp, law) ** 2
        means.append(total / resamples)
    slope, _, _, used = fit_loglog(ns, means)
    gate("criterion 07 empirical-measure rate",
         slope is not None and slope <= -0.35,
         f"slope = {slope:.3f} over N in {used} (reference rate "
         f"{np.log(epsilon_rate(512, 1) / epsilon_rate(8, 1)) / np.log(512 / 8):.2f})")


def _maturity_spec(c0_law):
    dims = Dimensions(1, 1, 0, 4)
    return make_spec(dims, delta=0.37, maturity_mode=True,
                     minor=MinorBundle.build(dims, cg=0.0),
                     xi_law=DiscreteLaw(np.array([[0.0], [2.0]]), np.array([0.5, 0.5])),
                     c0_law=c0_law)


def test_criterion_08_maturity_mode() -> None:
    worst = 0.0
    for c0_law in (("constant", [5.0]), ("gaussian_walk", [0.4], [0.2], [[0.5]])):
        spec = _maturity_spec(c0_law)
        lattice = build_lattice(TimeGrid(1.0, 4), d0=1)
        ctx = MarketContext(spec, lattice)
        pop = make_population(ctx, assignments=[0, 1, 0, 1])
        eq = solve_full_equilibrium(ctx, pop)
        tsl = lattice.terminal_slice
        c0T = ctx.exo.c0[tsl]
        worst = max(worst, float(np.max(np.abs(eq.price.values[tsl] - c0T))))
        worst = max(worst, float(np.max(np.abs(eq.major_field("p0")[tsl] + c0T))))
        for g in range(pop.size):
            worst = max(worst, float(np.max(np.abs(eq.group_field("Y", g)[tsl] + c0T))))
            worst = max(worst, float(np.max(np.abs(eq.group_field("P", g)[tsl]))))
        mf = solve_mfg(ctx)
        worst = max(worst, float(np.max(np.abs(mf.price.values[tsl] - c0T))))
    gate("criterion 08 maturity mode", worst <= 1e-12,
         f"max terminal mismatch = {worst:.3e}")


def test_criterion_09_stability() -> None:
    dims = Dimensions(1, 1, 0, 4)
    base = make_spec(dims, delta=0.2, xi_law=DiscreteLaw.point([1.0]),
                     c0_law=("constant", [0.0]))
    lattice = build_lattice(TimeGrid(1.0, 4), d0=1)

    def hetero(eps):
        pattern = [(i + 1) / 4 for i in range(4)]
        bundles = [MinorBundle.build(dims, l=eps * pattern[i]) for i in range(4)]
        return make_spec(dims, delta=0.2, minor=bundles,
                         xi_law=base.xi_law, c0_law=base.c0_law)

    # zero heterogeneity: node-wise identical prices
    ctx_he = MarketContext(hetero(0.0), lattice)
    ctx_ho = MarketContext(base, lattice)
    pop_he = make_population(ctx_he, assignments=[0, 0, 0, 0])
    pop_ho = make_population(ctx_ho, assignments=[0, 0, 0, 0])
    eq_he = solve_full_equilibrium(ctx_he, pop_he)
    eq_ho = solve_full_equilibrium(ctx_ho, pop_ho)
    ident = float(np.max(np.abs(eq_he.price.values - eq_ho.price.values)))

    lhs = []
    eps_list = [0.02, 0.04, 0.08]
    for eps in eps_list:
        rep = stability_gap(MarketContext(hetero(eps), lattice), ctx_ho,
                            assignments=np.zeros(4, int))
        lhs.append(rep.lhs_hetero - rep.lhs_homogeneous)
    slope, *_ = fit_loglog(eps_list, lhs)
    gate("criterion 09 stability",
         ident <= 1e-12 and slope is not None and abs(slope - 2.0) <= 0.2,
         f"zero-heterogeneity mismatch = {ident:.3e}, perturbation slope = {slope:.3f}")


def test_criterion_10_metric_properties() -> None:
    rng = np.random.default_rng(31)
    sym_exact = True
    tri_worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 9))
        a, b, c = (EmpiricalMeasure(rng.normal(size=(m, n))) for _ in range(3))
        dab, dba = wasserstein2(a, b), wasserstein2(b, a)
        sym_exact = sym_exact and (dab == dba)
        tri_worst = max(tri_worst, dab - (wasserstein2(a, c) + wasserstein2(c, b)))
    sort_vs_assign = 0.0
    from scipy.optimize import linear_sum_assignment
    for _ in range(50):
        m = int(rng.integers(2, 33))
        xa, xb = rng.normal(size=(m, 1)), rng.normal(size=(m, 1))
        by_sort = wasserstein2(EmpiricalMeasure(xa), EmpiricalMeasure(xb))
        cost = (xa[:, None, 0] - xb[None, :, 0]) ** 2
        r, ccol = linear_sum_assignment(cost)
        sort_vs_assign = max(sort_vs_assign,
                             abs(by_sort - float(np.sqrt(cost[r, ccol].mean()))))
    mean_ok = True
    for _ in range(100):
        ma, mb = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        a = EmpiricalMeasure(rng.normal(size=(ma, 1)))
        b = EmpiricalMeasure(rng.normal(size=(mb, 1)))
        gap = abs(float(a.mean()[0] - b.mean()[0]))
        w1 = wasserstein1_1d(a, b)
        mean_ok = mean_ok and gap <= w1 + 1e-12 and w1 <= wasserstein2(a, b) + 1e-12
    gate("criterion 10 metric properties",
         sym_exact and tri_worst <= 1e-12 and sort_vs_assign <= 1e-12 and mean_ok,
         f"triangle excess = {tri_worst:.2e}, sort-assignment gap = {sort_vs_assign:.2e}")


def test_criterion_11_determinism(tmp_path) -> None:
    model = tmp_path / "model.txt"
    model.write_text("""
[dimensions]
n = 1
d0 = 1
d = 0
N = 8

[constants]
delta = 0.3

[noise]
c0 = constant
c0_value = 0.1

[laws]
xi_atoms = 0.0 2.0
xi_weights = 0.5 0.5
""")
    payloads = []
    for threads in (1, 4):
        out = tmp_path / f"run{threads}"
        code = cli_main(["converge", "--model", str(model), "--out", str(out),
                         "--steps", "4", "--n-list", "8,16,32",
                         "--resamples", "12", "--seed", "9",
                         "--threads", str(threads)])
        assert code == 0
        solve_out = tmp_path / f"solve{threads}"
        code = cli_main(["solve-n", "--model", str(model), "--out", str(solve_out),
                         "--steps", "4", "--seed", "9", "--threads", str(threads)])
        assert code == 0
        payloads.append(((out / "convergence.csv").read_bytes(),
                         (solve_out / "equilibrium.csv").read_bytes()))
    gate("criterion 11 determinism", payloads[0] == payloads[1],
         "byte-identical CSVs across thread counts")
