"""Per-system vector pass of the decoupling sweep, one system at a time.

This is the direct solver's vector pass, packaging and residual as they were
before families of sibling systems were stacked into one batched pass: every
state is a (nodes, dim) array of one system, and the residual recomputes uB~
from the backward states.  A block multiplies a level's states as one
product of that flow's rows, ``states @ block.T``, and S dW is summed over
the noise components in order, the solver's arithmetic for a flow solved
alone.  ``level`` and ``terminal`` read one flow of a family the way a
single system's level callbacks gave it: the level's (1, p, q) blocks and
its constants without a flow axis.  The oracle reuses a
``DirectSolver``'s matrix pass (``_E``, ``_Q`` and ``_P``) and the lattice's
``cond_expect``; everything else is its own, so a batched solve can be
compared with it flow by flow.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np


def _flow(const: np.ndarray, b: int) -> np.ndarray:
    """Flow ``b`` of a (nodes, B|1, ...) constant; a flow axis of length 1 is shared."""
    return const[:, b if const.shape[1] > 1 else 0]


def level(system, k: int, b: int = 0) -> SimpleNamespace:
    """Flow ``b``'s level-k blocks, (1, p, q), and constants, (m, ...)."""
    lo, hi = system.lattice.level_range(k)
    const = lambda a: _flow(a[lo:hi], b)
    return SimpleNamespace(Afb=system.Afb[k:k + 1], Bbf=system.Bbf[k:k + 1],
                           af=const(system.af), S=const(system.S), bb=const(system.bb))


def terminal(system, b: int = 0) -> tuple:
    """Flow ``b``'s terminal map: G (1, mb, mf) and g (mK, mb)."""
    return system.G[None], _flow(system.g, b)


def initial(system, b: int = 0) -> np.ndarray:
    """Flow ``b``'s initial forward state, (mf,)."""
    return _flow(system.initial, b)[0]


def _apply(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """A (p, q) or (1, p, q) block x (m, q) -> (m, p): one product of the flow's m rows."""
    return vec @ (mat[0] if mat.ndim == 3 else mat).T


def _noise(lat, k: int, S: np.ndarray) -> np.ndarray:
    """S(v) dW on every child edge of level k, in child layout, summed over dW's components."""
    clo, chi = lat.level_range(k + 1)
    S_child = np.repeat(S, lat.fanout, axis=0)
    dW = lat.dW[clo:chi]
    if lat.d0 == 0:
        return np.zeros(S_child.shape[:-1])
    out = S_child[..., 0] * dW[:, None, 0]
    for c in range(1, lat.d0):
        out = out + S_child[..., c] * dW[:, None, c]
    return out


def _step(lat, uf, ubt, Afb, af, noise):
    """Forward states on the children of one level."""
    drift = _apply(Afb, ubt) + af
    return np.repeat(uf + lat.dt * drift, lat.fanout, axis=0) + noise


def _driver(c, uf):
    return _apply(c.Bbf, uf) + c.bb


def _package(system, uf, ub):
    """The pre-driver values uB~ and the martingale increments."""
    lat = system.lattice
    pre = np.zeros_like(ub)
    dev = np.zeros_like(ub)
    pre[lat.terminal_slice] = ub[lat.terminal_slice]
    for k in range(lat.steps):
        lo, hi = lat.level_range(k)
        clo, chi = lat.level_range(k + 1)
        pre[lo:hi] = lat.cond_expect(ub[clo:chi], k)
        dev[clo:chi] = ub[clo:chi] - np.repeat(pre[lo:hi], lat.fanout, axis=0)
    return pre, dev


def residual(system, uf, ub, b: int = 0) -> tuple[float, float]:
    """Worst violation of every discrete equation row of flow ``b``, and of its terminal rows."""
    lat = system.lattice
    worst = float(np.max(np.abs(uf[0] - initial(system, b)), initial=0.0))
    for k in range(lat.steps):
        lo, hi = lat.level_range(k)
        clo, chi = lat.level_range(k + 1)
        ubt = lat.cond_expect(ub[clo:chi], k)
        c = level(system, k, b)
        fwd_gap = uf[clo:chi] - _step(lat, uf[lo:hi], ubt, c.Afb, c.af, _noise(lat, k, c.S))
        bwd_gap = ub[lo:hi] - ubt - lat.dt * _driver(c, uf[lo:hi])
        worst = max(worst, float(np.max(np.abs(fwd_gap), initial=0.0)),
                    float(np.max(np.abs(bwd_gap), initial=0.0)))
    tsl = lat.terminal_slice
    G, g = terminal(system, b)
    term_gap = ub[tsl] - _apply(G, uf[tsl]) - g
    terminal_mismatch = float(np.max(np.abs(term_gap), initial=0.0))
    return max(worst, terminal_mismatch), terminal_mismatch


def solve(solver, system, b: int = 0) -> dict:
    """Flow ``b`` of a family through ``solver``'s matrix pass, by the per-system vector pass."""
    lat = system.lattice
    dt = lat.dt
    mf, mb = system.mf, system.mb
    K = lat.steps
    # backward vector pass: p(v), and r(v) with uB~ = Q u_F + r
    _, g = terminal(system, b)
    p = np.asarray(g, dtype=float).reshape(-1, mb)
    ps, rs, levels, noises = [None] * K + [p], [None] * K, [None] * K, [None] * K
    for k in range(K - 1, -1, -1):
        c = level(system, k, b)
        noise = _noise(lat, k, c.S)
        pbar = lat.cond_expect(p + _apply(solver._P[k + 1], noise), k)
        r = _apply(solver._E[k], pbar) + dt * _apply(solver._Q[k], c.af)
        p = r + dt * c.bb
        ps[k], rs[k], levels[k], noises[k] = p, r, c, noise
    # forward pass
    uf = np.zeros((lat.num_nodes, mf))
    ub = np.zeros((lat.num_nodes, mb))
    uf[0] = initial(system, b)
    for k in range(K + 1):
        lo, hi = lat.level_range(k)
        ub[lo:hi] = _apply(solver._P[k], uf[lo:hi]) + ps[k]
        if k < K:
            c = levels[k]
            clo, chi = lat.level_range(k + 1)
            ubt = _apply(solver._Q[k], uf[lo:hi]) + rs[k]
            uf[clo:chi] = _step(lat, uf[lo:hi], ubt, c.Afb, c.af, noises[k])
    pre, dev = _package(system, uf, ub)
    worst, terminal_mismatch = residual(system, uf, ub, b)
    return {"forward": uf, "backward": ub, "pre": pre, "deviations": dev,
            "max_equation_residual": worst, "terminal_mismatch": terminal_mismatch}
