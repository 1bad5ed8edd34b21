"""Property test: a batched solve equals the per-system vector pass, flow by flow.

Every corner of n in {1, 2}, d0 in {0, 1, 2}, a binary or trinomial tree, a
batch of B in {1, 2, 6} flows and a family kind runs, with maturity on or
off, the depth and the homogeneous model drawn by ``model_strategy``.  The
kinds are the clearing system for a stack of random major flows, the
per-atom deviation systems of the population limit's cost class, or the
full market system whose groups draw different atoms per flow
(``stack_tables``).  The model's drift, cost gradients and terminal gains
depend on the atoms' idiosyncratic values and on the common news
(``varied``), so the flows of a family differ in every constant.
Every flow of one ``DirectSolver.solve`` call must equal
``sweep_oracle.solve`` exactly: its forward, backward, pre-driver and
increment arrays and its residuals.  The solve's diagnostics are those of
``residual``, and its gate names the flow whose residual fails.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sweep_oracle as oracle
from marketclear.errors import SolverError
from marketclear import fbsde
from marketclear.fbsde import DIRECT_RESIDUAL_GATE, DirectSolver, residual
from marketclear.finite_market import (ClearingOperator, MarketContext, build_clearing_system,
                                       build_deviation_system, build_full_system, stack_tables)
from marketclear.mean_field import limit_classes
from model_strategy import Shape, build, shapes

SETTINGS = settings(max_examples=3)

# every corner of the shape space is run; hypothesis draws the model within it
corners = pytest.mark.parametrize("n, d0, branching, B, kind", [
    (n, d0, branching, B, kind)
    for n in (1, 2) for d0 in (0, 1, 2) for branching in (2, 3) for B in (1, 2, 6)
    for kind in ("clearing", "deviation", "full")])


def family(shape, B, kind):
    """A family of B sibling systems of the kind and the solver of its matrix pass."""
    ctx, rng = MarketContext(*build(shape)), np.random.default_rng([shape.seed, 1])
    lat, n = ctx.lattice, ctx.spec.dims.n
    A = ctx.atoms.count
    # flow b takes the atom b places after flow 0's: atoms are ordered by xi,
    # then ci, so neighbouring flows differ in ci and in every constant
    shifts = np.arange(B)[:, None]
    if kind == "clearing":
        tabs = [ctx.minor_tables(0, a) for a in rng.integers(A, size=2)]
        w = rng.uniform(0.2, 1.0, 2)
        flows = rng.uniform(-1, 1, (B, lat.num_nodes, n))
        flows[:, lat.terminal_slice] = 0.0
        system = build_clearing_system(ctx, tabs, w / w.sum(), flows)
    elif kind == "deviation":
        mean = limit_classes(ctx).tables[0]
        system = build_deviation_system(
            ctx, [ctx.minor_tables(0, int(a)) for a in (rng.integers(A) + shifts[:, 0]) % A],
            mean)
    else:
        w = rng.uniform(0.2, 1.0, 2)
        atoms = (rng.integers(A, size=2) + shifts) % A
        groups = [stack_tables([ctx.minor_tables(0, int(a)) for a in atoms[:, g]])
                  for g in range(2)]
        system = build_full_system(ctx, groups, w / w.sum())
    return DirectSolver(system), system


@corners
@SETTINGS
@given(st.data())
def test_batched_solve_equals_the_per_system_oracle(n, d0, branching, B, kind, data) -> None:
    shape = data.draw(shapes(n=n, d0=d0, branching=branching, homogeneous=True,
                             varied=True))
    solver, system = family(shape, B, kind)
    solved = solver.solve()
    assert solved.system is system and len(solved.diagnostics) == system.flows == B
    for b, diagnostics in enumerate(solved.diagnostics):
        want = oracle.solve(solver, system, b)
        got = {"forward": solved.forward[:, b], "backward": solved.backward[:, b],
               "backward_pre": solved.backward_pre[:, b], "deviations": solved.deviations(b)}
        for name, values in got.items():
            assert values.flags.c_contiguous
            assert np.array_equal(values, want[name]), name
        assert diagnostics.max_equation_residual == want["max_equation_residual"]
        assert diagnostics.terminal_mismatch == want["terminal_mismatch"]
        assert diagnostics.converged


@pytest.mark.parametrize("kind", ["clearing", "deviation", "full"])
@SETTINGS
@given(shapes(n=2, d0=1, branching=2, homogeneous=True, varied=True),
       st.sampled_from([1, 2, 6]), st.data())
def test_solve_gates_every_flow_on_its_residual(kind, shape, B, data) -> None:
    # a solve's diagnostics are residual's, field by field, and a flow whose
    # residual is pushed over the gate is the flow the error names
    solver, system = family(shape, B, kind)
    solved = solver.solve()
    assert ([asdict(d) for d in solved.diagnostics]
            == [asdict(d) for d in residual(system, solved)])
    bad = data.draw(st.integers(0, B - 1))
    gaps = fbsde._equation_gaps

    def pushed(*args):
        worst, terminal_mismatch = gaps(*args)
        worst[bad] += 2 * DIRECT_RESIDUAL_GATE
        return worst, terminal_mismatch

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fbsde, "_equation_gaps", pushed)
        with pytest.raises(SolverError, match=f"in flow {bad} exceeds") as failure:
            solver.solve()
    assert failure.value.diagnostics.max_equation_residual > DIRECT_RESIDUAL_GATE
    assert not failure.value.diagnostics.converged


def test_non_finite_flow_is_named() -> None:
    ctx = MarketContext(*build(Shape(n=2, d0=1, branching=3, steps=2, seed=7)))
    rng = np.random.default_rng(7)
    lat = ctx.lattice
    op = ClearingOperator(ctx, [ctx.minor_tables(0, 0), ctx.minor_tables(0, 1)],
                          np.array([0.5, 0.5]))
    flows = rng.uniform(-1, 1, (3, lat.num_nodes, 2))
    flows[:, lat.terminal_slice] = 0.0
    flows[2, 1, 0] = np.nan
    with pytest.raises(SolverError, match="non-finite values in flow 2"):
        op.solve(flows)
    flows[2, 1, 0] = 0.0
    assert len(op.solve(flows)[0].diagnostics) == 3
