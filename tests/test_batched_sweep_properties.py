"""Property test: a batched solve equals the per-system vector pass, flow by flow.

Every corner of n in {1, 2}, d0 in {0, 1, 2}, a binary or trinomial tree, a
batch of B in {1, 2, 6} flows and a family kind runs, with maturity on or
off, the depth and the model drawn by hypothesis.  The kinds are the
clearing system for a stack of random major flows, the per-atom deviation
systems of the population limit's cost class, or the full market system
whose groups draw different atoms per flow (``stack_tables``).  The model's drift, cost
gradients and terminal gains depend on the atoms' idiosyncratic values and
on the common news, so the flows of a family differ in every constant.
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
from marketclear.model import (CoefficientSpec, Dimensions, DiscreteLaw, MajorFlow,
                               MinorBundle, QuadraticMajorCost, make_spec)
from marketclear.scenario import TimeGrid, build_lattice

SETTINGS = settings(max_examples=3, deadline=None, derandomize=True, database=None)
MAX_NODES = 200

# every corner of the shape space is run; hypothesis draws the model within it
corners = pytest.mark.parametrize("n, d0, branching, B, kind", [
    (n, d0, branching, B, kind)
    for n in (1, 2) for d0 in (0, 1, 2) for branching in (2, 3) for B in (1, 2, 6)
    for kind in ("clearing", "deviation", "full")])
draws = st.fixed_dictionaries({
    "maturity": st.booleans(),
    "K": st.integers(1, 3),
    "seed": st.integers(0, 2**32 - 1),
})


def _sym(rng, n, shift):
    a = rng.uniform(-0.3, 0.3, (n, n))
    return shift * np.eye(n) + 0.5 * (a + a.T)


def _affine(rng, n, name):
    """A vector coefficient affine in the common news c0 and the idiosyncratic ci."""
    return CoefficientSpec("affine", (n,), const=rng.uniform(-1, 1, n),
                           c0_mat=rng.uniform(-0.5, 0.5, (n, n)),
                           ci_mat=rng.uniform(-0.5, 0.5, (n, n)), name=name)


def random_context(case):
    rng = np.random.default_rng(case["seed"])
    n, d0 = case["n"], case["d0"]
    dims = Dimensions(n, d0, 0, 2)
    bundle = MinorBundle.build(dims, l=_affine(rng, n, "l"), sigma0=rng.uniform(-0.5, 0.5, (n, d0)),
                               cf=_sym(rng, n, 1.0), hf=_affine(rng, n, "hf"),
                               cg=_sym(rng, n, 1.0), hg=_affine(rng, n, "hg"))
    c0_law = (("gaussian_walk", rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
               rng.uniform(-0.5, 0.5, (n, d0))) if d0 else ("constant", rng.uniform(-1, 1, n)))
    spec = make_spec(
        dims, delta=rng.uniform(0.0, 0.6), lam=_sym(rng, n, 1.5), lam0=_sym(rng, n, 1.0),
        minor=bundle,
        major_flow=MajorFlow.build(dims, l0=rng.uniform(-1, 1, n),
                                   s0=rng.uniform(-0.5, 0.5, (n, d0))),
        major_cost=QuadraticMajorCost.build(dims, c0f=_sym(rng, n, 1.0), c0g=_sym(rng, n, 1.0),
                                            h0f=rng.uniform(-1, 1, n), h0g=rng.uniform(-1, 1, n)),
        chi0=rng.uniform(-1, 1, n),
        xi_law=DiscreteLaw(rng.uniform(-1, 1, (3, n)), np.full(3, 1 / 3)),
        ci_law=DiscreteLaw(rng.uniform(-1, 1, (2, n)), np.array([0.4, 0.6])),
        c0_law=c0_law, maturity_mode=case["maturity"])
    fanout = case["branching"] ** d0
    K = case["K"]
    while K > 1 and sum(fanout**k for k in range(K + 1)) > MAX_NODES:
        K -= 1
    lat = build_lattice(TimeGrid(1.0, K), d0=d0, branching=case["branching"])
    return MarketContext(spec, lat), rng


def family(case):
    """A family of B sibling systems of the case's kind and the solver of its matrix pass."""
    ctx, rng = random_context(case)
    lat, n, B = ctx.lattice, ctx.spec.dims.n, case["B"]
    A = ctx.atoms.count
    if case["kind"] == "clearing":
        tabs = [ctx.minor_tables(0, a) for a in rng.integers(A, size=2)]
        w = rng.uniform(0.2, 1.0, 2)
        flows = rng.uniform(-1, 1, (B, lat.num_nodes, n))
        flows[:, lat.terminal_slice] = 0.0
        system = build_clearing_system(ctx, tabs, w / w.sum(), flows)
    elif case["kind"] == "deviation":
        mean = limit_classes(ctx).tables[0]
        system = build_deviation_system(
            ctx, [ctx.minor_tables(0, int(a)) for a in rng.integers(A, size=B)], mean)
    else:
        w = rng.uniform(0.2, 1.0, 2)
        atoms = rng.integers(A, size=(B, 2))
        groups = [stack_tables([ctx.minor_tables(0, int(a)) for a in atoms[:, g]])
                  for g in range(2)]
        system = build_full_system(ctx, groups, w / w.sum())
    return DirectSolver(system), system


@corners
@SETTINGS
@given(draws)
def test_batched_solve_equals_the_per_system_oracle(n, d0, branching, B, kind, draw) -> None:
    solver, system = family(dict(draw, n=n, d0=d0, branching=branching, B=B, kind=kind))
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
@given(draws, st.sampled_from([1, 2, 6]), st.data())
def test_solve_gates_every_flow_on_its_residual(kind, draw, B, data) -> None:
    # a solve's diagnostics are residual's, field by field, and a flow whose
    # residual is pushed over the gate is the flow the error names
    solver, system = family(dict(draw, n=2, d0=1, branching=2, B=B, kind=kind))
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
    case = {"n": 2, "d0": 1, "branching": 3, "maturity": False, "B": 6,
            "kind": "clearing", "K": 2, "seed": 7}
    ctx, rng = random_context(case)
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
