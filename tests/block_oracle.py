"""Per-group loop construction of the system builders' matrix blocks.

Each function fills one level's blocks (or the terminal map) entry block by
entry block, looping over agent groups and reading the per-level tables
``ctx.exo.lam_inv[k]``, ``ctx.exo.v0bar[k]``, ``tab.cf[k]`` and ``tab.cg_T``.
It shares no arithmetic with the Kronecker-built blocks of
``marketclear.finite_market`` and ``best_response_oracle``, so the two can
be compared entry for entry.  Layouts follow the builders: the full system
orders its states (x0, X_0..X_{G-1}, R_0..R_{G-1}) forward and
(p0, Y_0.., P_0..) backward; the minor systems hold X_g and Y_g only.
"""

from __future__ import annotations

import numpy as np


def _blk(i: int, n: int) -> slice:
    return slice(i * n, (i + 1) * n)


def full_level(ctx, tabs, w, k):
    """(Afb, Bbf) of the full system on level k."""
    spec = ctx.spec
    n, G = spec.dims.n, len(tabs)
    M = (1 + 2 * G) * n
    x0, X, R = 0, (lambda g: 1 + g), (lambda g: 1 + G + g)
    lam_inv, v0 = ctx.exo.lam_inv[k], ctx.exo.v0bar[k]
    Afb = np.zeros((M, M))
    # b = v0 (-p0~ + sum_h w_h (Y_h~ + P_h~)) enters x0 (+), X_g (-), R_g (+)
    flow = {x0: -v0}
    for h in range(G):
        flow[X(h)] = w[h] * v0
        flow[R(h)] = w[h] * v0
    for col, coef in flow.items():
        Afb[_blk(x0, n), _blk(col, n)] += coef
        for g in range(G):
            Afb[_blk(X(g), n), _blk(col, n)] -= coef
            Afb[_blk(R(g), n), _blk(col, n)] += coef
    for g in range(G):
        for h in range(G):
            dev = ((1.0 if g == h else 0.0) - w[h]) * lam_inv
            Afb[_blk(X(g), n), _blk(X(h), n)] -= dev
            Afb[_blk(R(g), n), _blk(R(h), n)] += dev
    Bbf = np.zeros((M, M))
    for g in range(G):
        Bbf[_blk(X(g), n), _blk(X(g), n)] = tabs[g].cf[k]
        Bbf[_blk(R(g), n), _blk(R(g), n)] = -tabs[g].cf[k]
    Bbf[_blk(x0, n), _blk(x0, n)] = spec.major_cost.c0f
    return Afb, Bbf


def _clearing_terminal_rows(spec, tabs, w, row_of, col_of, M):
    """Y_g rows of the clearing terminal map: own cg_g plus ratio * sum_h w_h cg_h."""
    n, G = spec.dims.n, len(tabs)
    ratio = spec.delta / (1.0 - spec.delta)
    Gm = np.zeros((M, M))
    mean_hg = 0.0
    for h in range(G):
        mean_hg = mean_hg + w[h] * tabs[h].hg_T
    gv = []
    for g in range(G):
        for h in range(G):
            block = ratio * w[h] * tabs[h].cg_T
            if g == h:
                block = block + tabs[g].cg_T
            Gm[_blk(row_of(g), n), _blk(col_of(h), n)] = block
        gv.append(tabs[g].hg_T + ratio * mean_hg)
    return Gm, gv


def full_terminal(ctx, tabs, w):
    """(G, g) of the full system's terminal map."""
    spec, lat = ctx.spec, ctx.lattice
    n, G = spec.dims.n, len(tabs)
    M = (1 + 2 * G) * n
    mK = lat.nodes_at(lat.steps)
    c0T = ctx.exo.c0[lat.terminal_slice]
    if spec.maturity_mode:
        return np.zeros((M, M)), np.hstack([-c0T] * (1 + G) + [np.zeros((mK, n))] * G)
    ratio = spec.delta / (1.0 - spec.delta)
    Gm, gv = _clearing_terminal_rows(spec, tabs, w, lambda g: 1 + g, lambda h: 1 + h, M)
    Gm[:n, :n] = spec.major_cost.c0g
    for g in range(G):
        for h in range(G):
            own = (1.0 if g == h else 0.0) + ratio * w[h]
            Gm[_blk(1 + G + g, n), _blk(1 + G + h, n)] = -own * tabs[g].cg_T
    return Gm, np.hstack([ctx.h0g_T] + gv + [np.zeros((mK, n))] * G)


def clearing_level(ctx, tabs, w, k):
    """(Afb, Bbf) of the clearing system on level k."""
    n, G = ctx.spec.dims.n, len(tabs)
    Afb = np.zeros((G * n, G * n))
    Bbf = np.zeros((G * n, G * n))
    for g in range(G):
        for h in range(G):
            Afb[_blk(g, n), _blk(h, n)] = -((1.0 if g == h else 0.0) - w[h]) * ctx.exo.lam_inv[k]
        Bbf[_blk(g, n), _blk(g, n)] = tabs[g].cf[k]
    return Afb, Bbf


def clearing_terminal(ctx, tabs, w):
    """(G, g) of the clearing system's terminal map."""
    spec, lat = ctx.spec, ctx.lattice
    n, G = spec.dims.n, len(tabs)
    if spec.maturity_mode:
        return np.zeros((G * n, G * n)), np.hstack([-ctx.exo.c0[lat.terminal_slice]] * G)
    Gm, gv = _clearing_terminal_rows(spec, tabs, w, lambda g: g, lambda h: h, G * n)
    return Gm, np.hstack(gv)


def best_response_level(ctx, tabs, k):
    """(Afb, Bbf) of the best-response system on level k."""
    n, G = ctx.spec.dims.n, len(tabs)
    Afb = np.zeros((G * n, G * n))
    Bbf = np.zeros((G * n, G * n))
    for g in range(G):
        Afb[_blk(g, n), _blk(g, n)] = -ctx.exo.lam_inv[k]
        Bbf[_blk(g, n), _blk(g, n)] = tabs[g].cf[k]
    return Afb, Bbf


def best_response_terminal(ctx, tabs, price):
    """(G, g) of the best-response system's terminal map."""
    spec, lat = ctx.spec, ctx.lattice
    n, G = spec.dims.n, len(tabs)
    tsl = lat.terminal_slice
    if spec.maturity_mode:
        return np.zeros((G * n, G * n)), np.hstack([-ctx.exo.c0[tsl]] * G)
    Gm = np.zeros((G * n, G * n))
    for g in range(G):
        Gm[_blk(g, n), _blk(g, n)] = tabs[g].cg_T
    return Gm, np.hstack([t.hg_T - spec.delta * price[tsl] for t in tabs])


def deviation_level(ctx, tab, k):
    """(Afb, Bbf) of an atom's deviation system on level k."""
    return -ctx.exo.lam_inv[k], tab.cf[k]


def deviation_terminal(ctx, tab):
    """Terminal matrix of an atom's deviation system."""
    n = ctx.spec.dims.n
    return np.zeros((n, n)) if ctx.spec.maturity_mode else tab.cg_T
