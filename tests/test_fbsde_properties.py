"""Property tests of the decoupling-field sweep on random small affine systems.

Each example draws a lattice (binary or trinomial, d0 in {0,1,2}, K <= 3),
state dimensions mf, mb in {1,2,3}, level tables of matrix blocks, and
constants that are either shared by every node or given per node.  The sweep
must agree with a dense solve of the node-by-node equations written out
below, and a re-solve with a sibling's constants (same blocks) must equal a
fresh solve of that sibling.  A table or a constant of the wrong shape is
refused when the system is built.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sweep_oracle
from marketclear.errors import ValidationError
from marketclear.fbsde import DirectSolver, FbsdeSystem
from marketclear.scenario import TimeGrid, build_lattice

MAX_NODES = 100
SETTINGS = settings(max_examples=60)


def draw(rng, share: bool, m: int, shape: tuple, scale: float) -> np.ndarray:
    return rng.uniform(-scale, scale, ((1 if share else m),) + shape)


def random_blocks(rng, lat, mf, mb) -> dict:
    K = lat.steps
    return {"Afb": rng.uniform(-0.2, 0.2, (K, mf, mb)),
            "Bbf": rng.uniform(-0.5, 0.5, (K, mb, mf)),
            "G": rng.uniform(-0.5, 0.5, (mb, mf))}


def random_constants(rng, lat, mf, mb, shared) -> dict:
    """One system's constants, node axis first and a flow axis of length 1."""
    I = lat.level_range(lat.steps)[0]
    return {"af": draw(rng, shared["af"], I, (1, mf), 1.0),
            "S": draw(rng, shared["S"], I, (1, mf, lat.d0), 1.0),
            "bb": draw(rng, shared["bb"], I, (1, mb), 1.0),
            "g": draw(rng, shared["g"], lat.nodes_at(lat.steps), (1, mb), 1.0),
            "initial": rng.uniform(-1.0, 1.0, (1, 1, mf))}


def make_system(lat, blocks, constants) -> FbsdeSystem:
    mf, mb = constants["initial"].shape[-1], constants["g"].shape[-1]
    return FbsdeSystem(lattice=lat, forward_slices={"x": slice(0, mf)},
                       backward_slices={"y": slice(0, mb)}, **blocks, **constants)


def dense_solve(system: FbsdeSystem):
    """Assemble every node's equations into one dense matrix and solve it."""
    lat = system.lattice
    mf, mb = system.mf, system.mb
    M = mf + mb
    dt = lat.dt
    A = np.zeros((lat.num_nodes * M, lat.num_nodes * M))
    rhs = np.zeros(lat.num_nodes * M)

    def fwd(v):
        return slice(v * M, v * M + mf)

    def bwd(v):
        return slice(v * M + mf, (v + 1) * M)

    A[fwd(0), fwd(0)] = np.eye(mf)
    rhs[fwd(0)] = sweep_oracle.initial(system)
    for k in range(lat.steps):
        c = sweep_oracle.level(system, k)
        lo, hi = lat.level_range(k)
        for v in range(lo, hi):
            def at(arr):
                return arr[0] if arr.shape[0] == 1 else arr[v - lo]
            kids = np.flatnonzero(lat.parent == v)
            # u_B(v) = sum_j q_j u_B(c_j) + dt (Bbf u_F(v) + bb)
            A[bwd(v), bwd(v)] += np.eye(mb)
            A[bwd(v), fwd(v)] -= dt * at(c.Bbf)
            for j in kids:
                A[bwd(v), bwd(j)] -= lat.edge_prob[j] * np.eye(mb)
            rhs[bwd(v)] = dt * at(c.bb)
            # u_F(c) = u_F(v) + dt (Afb sum_j q_j u_B(c_j) + af) + S dW(c)
            for child in kids:
                A[fwd(child), fwd(child)] += np.eye(mf)
                A[fwd(child), fwd(v)] -= np.eye(mf)
                for j in kids:
                    A[fwd(child), bwd(j)] -= dt * lat.edge_prob[j] * at(c.Afb)
                rhs[fwd(child)] = dt * at(c.af) + at(c.S) @ lat.dW[child]
    G, g = sweep_oracle.terminal(system)
    lo, hi = lat.level_range(lat.steps)
    for v in range(lo, hi):
        A[bwd(v), bwd(v)] += np.eye(mb)
        A[bwd(v), fwd(v)] -= G[0]
        rhs[bwd(v)] = g[0] if g.shape[0] == 1 else g[v - lo]
    x = np.linalg.solve(A, rhs).reshape(lat.num_nodes, M)
    return x[:, :mf], x[:, mf:]


CONSTANT_NAMES = ("af", "S", "bb", "g")

cases = st.fixed_dictionaries({
    "mf": st.integers(1, 3),
    "mb": st.integers(1, 3),
    "d0": st.integers(0, 2),
    "branching": st.sampled_from([2, 3]),
    "K": st.integers(1, 3),
    "shared": st.fixed_dictionaries({name: st.booleans() for name in CONSTANT_NAMES}),
    "seed": st.integers(0, 2**32 - 1),
})


def lattice_and_blocks(case):
    lat = build_lattice(TimeGrid(0.5, case["K"]), d0=case["d0"], branching=case["branching"])
    assume(lat.num_nodes <= MAX_NODES)
    rng = np.random.default_rng(case["seed"])
    blocks = random_blocks(rng, lat, case["mf"], case["mb"])
    return lat, rng, blocks


@SETTINGS
@given(cases)
def test_sweep_matches_dense_node_by_node_solve(case) -> None:
    lat, rng, blocks = lattice_and_blocks(case)
    system = make_system(lat, blocks, random_constants(rng, lat, case["mf"], case["mb"],
                                                       case["shared"]))
    sol = DirectSolver(system).solve()
    uf, ub = dense_solve(system)
    scale = max(1.0, float(np.max(np.abs(uf))), float(np.max(np.abs(ub))))
    assert np.max(np.abs(sol.forward[:, 0] - uf)) <= 1e-10 * scale
    assert np.max(np.abs(sol.backward[:, 0] - ub)) <= 1e-10 * scale


@SETTINGS
@given(cases)
def test_resolve_of_sibling_equals_fresh_solve(case) -> None:
    lat, rng, blocks = lattice_and_blocks(case)
    mf, mb, shared = case["mf"], case["mb"], case["shared"]
    solver = DirectSolver(make_system(lat, blocks, random_constants(rng, lat, mf, mb, shared)))
    sibling = random_constants(rng, lat, mf, mb, shared)
    resolved = solver.solve(**sibling)
    fresh = DirectSolver(make_system(lat, blocks, sibling)).solve()
    assert np.array_equal(resolved.forward, fresh.forward)
    assert np.array_equal(resolved.backward, fresh.backward)


@SETTINGS
@given(cases, st.sampled_from(["Afb", "Bbf", "G", "initial", "af", "S", "bb", "g"]))
def test_wrong_shaped_table_is_refused(case, name) -> None:
    # a leading axis longer than any level, node or state count of the case
    lat, rng, blocks = lattice_and_blocks(case)
    constants = random_constants(rng, lat, case["mf"], case["mb"], case["shared"])
    wrong = {**blocks, **constants}
    wrong[name] = np.zeros((lat.num_nodes + 4,) + wrong[name].shape[1:])
    with pytest.raises(ValidationError, match=name):
        make_system(lat, {k: wrong[k] for k in blocks}, {k: wrong[k] for k in constants})


@SETTINGS
@given(st.integers(0, 40), st.integers(1, 6), st.sampled_from([(), (1,), (4,), (2, 3)]),
       st.booleans(), st.integers(0, 2**32 - 1))
@example(0, 1, (4,), False, 0)
@example(0, 6, (4,), True, 0)
@example(729, 1, (4,), False, 1)
@example(729, 6, (4,), False, 2)
def test_flow_max_reads_every_layout(m, B, tail, flows_first, seed) -> None:
    # node-major (C-ordered) and flows-first (m, B, ...) gaps both give each
    # flow's own max |entry|, 0 for no nodes
    from marketclear.fbsde import _flow_max
    values = np.random.default_rng(seed).standard_normal((B, m) + tail)
    gap = (np.moveaxis(values, 0, 1) if flows_first
           else np.ascontiguousarray(np.moveaxis(values, 0, 1)))
    want = [np.max(np.abs(values[b]), initial=0.0) for b in range(B)]
    assert np.array_equal(_flow_max(gap), want)


def level_cond_expect(lat, child_values, k):
    """``cond_expect`` as one weighted temporary summed child by child, level by level."""
    vals = child_values.reshape((lat.nodes_at(k), lat.fanout) + child_values.shape[1:])
    weighted = vals * lat.child_probs.reshape((1, lat.fanout) + (1,) * (vals.ndim - 2))
    out = weighted[:, 0]
    for j in range(1, lat.fanout):
        out = out + weighted[:, j]
    return out


@SETTINGS
@given(st.sampled_from([2, 3]), st.integers(0, 2), st.integers(1, 4), st.integers(1, 3),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_whole_tree_pre_driver_pass_matches_the_level_loop(branching, d0, K, B, dim,
                                                           seed) -> None:
    # uB~ and the martingale increments by one whole-tree reshape equal their
    # level-by-level forms bit for bit, on flows-first (nodes, B, dim) states
    from types import SimpleNamespace

    from marketclear.fbsde import FamilySolution, _pre
    lat = build_lattice(TimeGrid(1.0, K), d0=d0, branching=branching)
    assume(lat.num_nodes <= MAX_NODES)
    ub = np.random.default_rng(seed).standard_normal((B, lat.num_nodes, dim)).transpose(1, 0, 2)
    pre = np.zeros_like(ub)
    dev = np.zeros_like(ub)
    pre[lat.terminal_slice] = ub[lat.terminal_slice]
    for k in range(lat.steps):
        lo, hi = lat.level_range(k)
        clo, chi = lat.level_range(k + 1)
        pre[lo:hi] = level_cond_expect(lat, ub[clo:chi], k)
        assert np.array_equal(lat.cond_expect(ub[clo:chi], k), pre[lo:hi])
        dev[clo:chi] = ub[clo:chi] - lat.repeat_to_children(pre[lo:hi])
    assert np.array_equal(_pre(lat, ub), pre)
    family = FamilySolution(system=SimpleNamespace(lattice=lat), forward=None,
                            backward=ub, backward_pre=pre, diagnostics=[])
    for b in range(B):
        assert np.array_equal(family.deviations(b), dev[:, b])
