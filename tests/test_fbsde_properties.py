"""Property tests of the decoupling-field sweep on random small affine systems.

Each example draws a lattice (binary or trinomial, d0 in {0,1,2}, K <= 3),
state dimensions mf, mb in {1,2,3}, and affine blocks that are either shared
by a level or given per node.  The sweep must agree with a dense solve of the
node-by-node equations written out below, and a re-solve of a sibling system
(same blocks, new constants) must equal a fresh solve of that sibling.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from marketclear.fbsde import DirectSolver, FbsdeSystem, LevelCoeffs, solve_direct
from marketclear.scenario import TimeGrid, build_lattice

MAX_NODES = 100
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def draw(rng, share: bool, m: int, shape: tuple, scale: float) -> np.ndarray:
    return rng.uniform(-scale, scale, ((1 if share else m),) + shape)


def random_blocks(rng, lat, mf, mb, shared):
    levels = []
    for k in range(lat.steps):
        m = lat.nodes_at(k)
        levels.append({
            "Aff": draw(rng, shared["Aff"], m, (mf, mf), 0.5),
            "Afb": draw(rng, shared["Afb"], m, (mf, mb), 0.2),
            "Bbf": draw(rng, shared["Bbf"], m, (mb, mf), 0.5),
            "Bbb": draw(rng, shared["Bbb"], m, (mb, mb), 0.5),
        })
    G = draw(rng, shared["G"], lat.nodes_at(lat.steps), (mb, mf), 0.5)
    return levels, G


def random_constants(rng, lat, mf, mb, shared):
    levels = []
    for k in range(lat.steps):
        m = lat.nodes_at(k)
        levels.append({
            "af": draw(rng, shared["af"], m, (mf,), 1.0),
            "S": draw(rng, shared["S"], m, (mf, lat.d0), 1.0),
            "bb": draw(rng, shared["bb"], m, (mb,), 1.0),
        })
    g = draw(rng, False, lat.nodes_at(lat.steps), (mb,), 1.0)
    return levels, g, rng.uniform(-1.0, 1.0, mf)


def make_system(lat, blocks, constants) -> FbsdeSystem:
    block_levels, G = blocks
    const_levels, g, initial = constants
    mf, mb = len(initial), g.shape[1]

    def coeffs(k):
        return LevelCoeffs(**block_levels[k], **const_levels[k])

    return FbsdeSystem(lattice=lat, forward_slices={"x": slice(0, mf)},
                       backward_slices={"y": slice(0, mb)}, initial=initial,
                       coeffs=coeffs, terminal=lambda: (G, g))


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
    rhs[fwd(0)] = system.initial
    for k in range(lat.steps):
        c = system.coeffs(k)
        lo, hi = lat.level_range(k)
        for v in range(lo, hi):
            def at(arr):
                return arr[0] if arr.shape[0] == 1 else arr[v - lo]
            kids = np.flatnonzero(lat.parent == v)
            # u_B(v) = sum_j q_j u_B(c_j) + dt (Bbf u_F(v) + Bbb sum_j q_j u_B(c_j) + bb)
            A[bwd(v), bwd(v)] += np.eye(mb)
            A[bwd(v), fwd(v)] -= dt * at(c.Bbf)
            for j in kids:
                A[bwd(v), bwd(j)] -= lat.edge_prob[j] * (np.eye(mb) + dt * at(c.Bbb))
            rhs[bwd(v)] = dt * at(c.bb)
            # u_F(c) = u_F(v) + dt (Aff u_F(v) + Afb sum_j q_j u_B(c_j) + af) + S dW(c)
            for child in kids:
                A[fwd(child), fwd(child)] += np.eye(mf)
                A[fwd(child), fwd(v)] -= np.eye(mf) + dt * at(c.Aff)
                for j in kids:
                    A[fwd(child), bwd(j)] -= dt * lat.edge_prob[j] * at(c.Afb)
                rhs[fwd(child)] = dt * at(c.af) + at(c.S) @ lat.dW[child]
    G, g = system.terminal()
    lo, hi = lat.level_range(lat.steps)
    for v in range(lo, hi):
        Gv = G[0] if G.shape[0] == 1 else G[v - lo]
        A[bwd(v), bwd(v)] += np.eye(mb)
        A[bwd(v), fwd(v)] -= Gv
        rhs[bwd(v)] = g[v - lo]
    x = np.linalg.solve(A, rhs).reshape(lat.num_nodes, M)
    return x[:, :mf], x[:, mf:]


BLOCK_NAMES = ("Aff", "Afb", "Bbf", "Bbb", "G", "af", "S", "bb")

cases = st.fixed_dictionaries({
    "mf": st.integers(1, 3),
    "mb": st.integers(1, 3),
    "d0": st.integers(0, 2),
    "branching": st.sampled_from([2, 3]),
    "K": st.integers(1, 3),
    "shared": st.fixed_dictionaries({name: st.booleans() for name in BLOCK_NAMES}),
    "seed": st.integers(0, 2**32 - 1),
})


def lattice_and_blocks(case):
    lat = build_lattice(TimeGrid(0.5, case["K"]), d0=case["d0"], branching=case["branching"])
    assume(lat.num_nodes <= MAX_NODES)
    rng = np.random.default_rng(case["seed"])
    blocks = random_blocks(rng, lat, case["mf"], case["mb"], case["shared"])
    return lat, rng, blocks


@SETTINGS
@given(cases)
def test_sweep_matches_dense_node_by_node_solve(case) -> None:
    lat, rng, blocks = lattice_and_blocks(case)
    system = make_system(lat, blocks, random_constants(rng, lat, case["mf"], case["mb"],
                                                       case["shared"]))
    sol = solve_direct(system)
    uf, ub = dense_solve(system)
    scale = max(1.0, float(np.max(np.abs(uf))), float(np.max(np.abs(ub))))
    assert np.max(np.abs(sol.forward - uf)) <= 1e-10 * scale
    assert np.max(np.abs(sol.backward - ub)) <= 1e-10 * scale


@SETTINGS
@given(cases)
def test_resolve_of_sibling_equals_fresh_solve(case) -> None:
    lat, rng, blocks = lattice_and_blocks(case)
    mf, mb, shared = case["mf"], case["mb"], case["shared"]
    solver = DirectSolver(make_system(lat, blocks, random_constants(rng, lat, mf, mb, shared)))
    sibling = make_system(lat, blocks, random_constants(rng, lat, mf, mb, shared))
    resolved = solver.solve(sibling)
    fresh = solve_direct(sibling)
    assert np.array_equal(resolved.forward, fresh.forward)
    assert np.array_equal(resolved.backward, fresh.backward)
