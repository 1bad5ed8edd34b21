from __future__ import annotations

import numpy as np
import pytest

from marketclear.errors import UnsupportedModelError, ValidationError
from marketclear.metrics import (EmpiricalMeasure, convergence_study, epsilon_rate,
                                 fit_loglog, price_gap, stability_gap,
                                 wasserstein1_1d, wasserstein2)
from marketclear.model import Dimensions, DiscreteLaw, MinorBundle, make_spec
from marketclear.scenario import TimeGrid, build_lattice, constant_field

from conftest import homogeneous_study_spec


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
    # N = 4 stays out of fits
    slope4, *_ = fit_loglog([4] + ns, [100.0] + vals)
    assert slope4 == pytest.approx(-0.5, abs=1e-12)


# -- convergence study --------------------------------------------------------------


def test_point_mass_study_is_degenerate() -> None:
    spec = make_spec(Dimensions(1, 1, 0, 4), delta=0.3, xi_law=DiscreteLaw.point([1.0]),
                     c0_law=("constant", [0.1]))
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    report = convergence_study(spec, lat, [2, 4, 8], resamples=3, seed=5)
    assert report.degenerate
    assert report.slope is None


def test_study_reproducible() -> None:
    spec = homogeneous_study_spec()
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    a = convergence_study(spec, lat, [4, 8], resamples=4, seed=3)
    b = convergence_study(spec, lat, [4, 8], resamples=4, seed=3)
    assert a.rows == b.rows


def test_doubling_resamples_shrinks_standard_error() -> None:
    spec = homogeneous_study_spec()
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    small = convergence_study(spec, lat, [8], resamples=64, seed=9)
    big = convergence_study(spec, lat, [8], resamples=128, seed=9)
    ratio = big.per_n[8]["stderr_price_gap"] / small.per_n[8]["stderr_price_gap"]
    assert 0.5 <= ratio <= 1.0


def test_study_requires_homogeneous_population() -> None:
    dims = Dimensions(1, 1, 0, 2)
    spec = make_spec(dims, minor=[MinorBundle.build(dims), MinorBundle.build(dims)])
    lat = build_lattice(TimeGrid(1.0, 2), d0=1)
    with pytest.raises(UnsupportedModelError):
        convergence_study(spec, lat, [2], resamples=1, seed=0)


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
    report = stability_gap(hetero, base, lat, seed=2)
    assert report.lhs_hetero == pytest.approx(report.lhs_homogeneous, abs=1e-12)
    assert report.delta_total == pytest.approx(0.0, abs=1e-14)


def test_constant_flow_shift_ingredient_equals_horizon() -> None:
    # dl_i = 1 for every agent: the flow-difference ingredient is exactly T
    base = make_spec(Dimensions(1, 1, 0, 3), delta=0.2, xi_law=DiscreteLaw.point([1.0]),
                     c0_law=("constant", [0.0]))
    hetero = hetero_from(base, 1.0, [1.0, 1.0, 1.0])
    T = 2.0
    lat = build_lattice(TimeGrid(T, 4), d0=1)
    report = stability_gap(hetero, base, lat, seed=2)
    assert report.delta_terms["dl"] == pytest.approx(T)


def test_small_flow_perturbation_is_second_order() -> None:
    base = make_spec(Dimensions(1, 1, 0, 4), delta=0.2, xi_law=DiscreteLaw.point([1.0]),
                     c0_law=("constant", [0.0]))
    lat = build_lattice(TimeGrid(1.0, 3), d0=1)
    pattern = [(i + 1) / 4 for i in range(4)]
    eps_list = [0.02, 0.04, 0.08]
    lhs = []
    for eps in eps_list:
        report = stability_gap(hetero_from(base, eps, pattern), base, lat, seed=2)
        lhs.append(report.lhs_hetero - report.lhs_homogeneous)
    slope, *_ = fit_loglog(eps_list, lhs, exclude=())
    assert slope == pytest.approx(2.0, abs=0.2)
