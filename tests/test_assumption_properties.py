"""Property tests: the assumption checks see every value the matrix coefficients take.

Each example draws piecewise-constant time tables for ``lambda``,
``lambda0`` and one or two bundles' ``cf`` and ``cg`` (n in {1, 2}, each
table with up to three breakpoints on multiples of 1/8 in (0, 2)).  The
oracle evaluates every table at every time of a 16-step grid on [0, 2] with
``scenario.level_table``, which meets every breakpoint, and takes the
eigenvalues of each matrix one at a time: the reported fee bounds and cost
convexity floors must be its extremes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from marketclear.model import (CoefficientSpec, Dimensions, MinorBundle,
                               check_all_assumptions, make_spec)
from marketclear.scenario import TimeGrid, build_lattice, level_table

SETTINGS = settings(max_examples=60)

breakpoints = st.sets(st.integers(1, 15), max_size=3).map(sorted)

cases = st.fixed_dictionaries({
    "n": st.sampled_from([1, 2]),
    "bundles": st.integers(1, 2),
    "tables": st.lists(breakpoints, min_size=6, max_size=6),
    "seed": st.integers(0, 2**32 - 1),
})


def _table(rng, n, eighths, name):
    """A symmetric, possibly indefinite, matrix table switching at the given eighths."""
    times = [0.0] + [k / 8 for k in eighths]
    mats = rng.uniform(-2.0, 2.0, (len(times), n, n)) + rng.uniform(0.0, 2.0) * np.eye(n)
    return CoefficientSpec("time", (n, n), times=times,
                           values=0.5 * (mats + np.swapaxes(mats, 1, 2)), name=name)


def _eigen_range(tables):
    """Smallest and largest eigenvalue over a list of (levels, n, n) symmetric stacks."""
    eigs = np.concatenate([np.linalg.eigvalsh(mat) for table in tables for mat in table])
    return eigs.min(), eigs.max()


@SETTINGS
@given(cases)
def test_checks_meet_the_extremes_of_a_level_scan(case) -> None:
    n, count, rng = case["n"], case["bundles"], np.random.default_rng(case["seed"])
    lam, lam0, *costs = (_table(rng, n, eighths, f"table {i}")
                         for i, eighths in enumerate(case["tables"]))
    dims = Dimensions(n=n, d0=1, d=0, N=count)
    bundles = [MinorBundle.build(dims, cf=costs[2 * b], cg=costs[2 * b + 1])
               for b in range(count)]
    rep = check_all_assumptions(make_spec(dims, lam=lam, lam0=lam0, minor=bundles))

    lat = build_lattice(TimeGrid(2.0, 16), d0=0)
    scan = lambda *coefficients: [level_table(lat, c) for c in coefficients]
    assert rep.lambda_bounds == _eigen_range(scan(lam))
    combo = level_table(lat, lam0) + 2.0 * level_table(lat, lam)
    assert rep.combo_bounds == _eigen_range([combo])
    assert rep.gamma_f == _eigen_range(scan(*(b.cf for b in bundles)))[0]
    assert rep.gamma_g == _eigen_range(scan(*(b.cg for b in bundles)))[0]
    assert rep.passed["minor_A_i"] == (rep.lambda_bounds[0] > 0.0)
    assert rep.passed["major_i"] == (rep.combo_bounds[0] > 0.0)
