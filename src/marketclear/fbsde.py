"""Coupled forward-backward solver on a scenario tree.

Systems are described per time level by small dense blocks:

    forward   u_F(child) = u_F(v) + dt*(Aff_k u_F(v) + Afb_k uB~(v) + af(v))
                           + S(v) dW(child-edge)
    backward  u_B(v)     = uB~(v) + dt*(Bbf_k u_F(v) + Bbb_k uB~(v) + bb(v))
    terminal  u_B(leaf)  = G u_F(leaf) + g(leaf)

for every node v of level k.  The matrix blocks (Aff, Afb, Bbf, Bbb, G) are
one per level, as the model's matrix coefficients depend on time only; the
constants (af, S, bb, g) are given per node or shared.

where uB~(v) denotes the conditional expectation of the next-level backward
values (the "pre-driver" value).  Every drift and driver reads backward
states through uB~ and forward states at the current node; this is the exact
first-order-condition structure of the discretized control problems, which is
what lets the clearing identity and the optimality checks hold to round-off.

Two solution paths.  Affine systems are solved exactly by a backward sweep of
their affine decoupling field u_B(v) = P_k u_F(v) + p(v), the discrete
four-step scheme for linear FBSDEs: one matrix pass from the leaves computes
one P per level, and vector passes then carry the constants back and recover
every state forward, batched over each level's nodes (``DirectSolver``).
Sibling systems (same blocks, new constants) share the matrix pass, and a
family of them shares one vector pass: their states are stacked after the
node axis, (nodes, B, dim).  The general case uses a damped fixed-point
iteration of forward/backward sweeps (``solve_picard``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetError, SolverError, ValidationError
from .scenario import NoiseLattice

DEFAULT_DAMPING = 0.5
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 500
# cap on what a DirectSolver stores for one solve, in bytes
FACTOR_BUDGET_BYTES = 2 * 2**30
# absolute gate on every equation row of a direct solve, per flow
DIRECT_RESIDUAL_GATE = 1e-10


@dataclass
class LevelCoeffs:
    """Affine blocks of one time level: one matrix each, constants shared or per node.

    A system's ``coeffs(k)`` gives the constants without a batch axis.  The
    direct solver stacks those of a family of sibling systems right after
    the node axis, so inside a solve ``af`` is (m|1, B|1, mf), ``S`` is
    (m|1, B|1, mf, d0) and ``bb`` is (m|1, B|1, mb); a batch axis of length
    1 is shared by every flow.
    """

    Aff: np.ndarray   # (1, mf, mf)
    Afb: np.ndarray   # (1, mf, mb)
    af: np.ndarray    # (m|1, mf)
    S: np.ndarray     # (m|1, mf, d0)
    Bbf: np.ndarray   # (1, mb, mf)
    Bbb: np.ndarray   # (1, mb, mb)
    bb: np.ndarray    # (m|1, mb)


@dataclass
class FbsdeSystem:
    """A coupled forward-backward system laid out on a noise lattice.

    ``coeffs(k)`` returns the level-k blocks; ``terminal()`` the terminal map
    (G, g) on the leaves, G of shape (1, mb, mf) and g of shape (mK|1, mb).
    ``driver_fn``/``terminal_fn`` override the affine backward parts for
    non-affine models (fixed-point path only); ``affine`` must then be False.
    """

    lattice: NoiseLattice
    forward_slices: dict
    backward_slices: dict
    initial: np.ndarray
    coeffs: Callable[[int], LevelCoeffs]
    terminal: Callable[[], tuple]
    affine: bool = True
    driver_fn: Callable | None = None
    terminal_fn: Callable | None = None

    @property
    def mf(self) -> int:
        return len(self.initial)

    @property
    def mb(self) -> int:
        return max(s.stop for s in self.backward_slices.values())

    def n_unknowns(self) -> int:
        return self.lattice.num_nodes * (self.mf + self.mb)


@dataclass
class SolveDiagnostics:
    method: str
    iterations: int
    max_equation_residual: float
    terminal_mismatch: float
    converged: bool

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "iterations": self.iterations,
            "max_equation_residual": self.max_equation_residual,
            "terminal_mismatch": self.terminal_mismatch,
            "converged": self.converged,
        }


@dataclass
class NodeSolution:
    """All forward/backward node values plus the discrete martingale increments.

    ``backward_pre`` holds uB~ (at terminal nodes it repeats the terminal
    values); ``deviations`` holds, per node, the difference between its
    backward value and its parent's uB~ (zero at the root); the
    probability-weighted sum over siblings vanishes by construction.
    """

    system: FbsdeSystem
    forward: np.ndarray
    backward: np.ndarray
    backward_pre: np.ndarray
    deviations: np.ndarray
    diagnostics: SolveDiagnostics

    def field(self, name: str) -> np.ndarray:
        if name in self.system.forward_slices:
            return self.forward[:, self.system.forward_slices[name]]
        return self.backward[:, self.system.backward_slices[name]]

    def pre(self, name: str) -> np.ndarray:
        """Pre-driver conditional expectation of a backward field."""
        return self.backward_pre[:, self.system.backward_slices[name]]

    def z_projection(self, name: str) -> np.ndarray:
        """Discrete martingale-representation diagnostic E[dev dW^T]/dt per node."""
        lat = self.system.lattice
        sl = self.system.backward_slices[name]
        dim = sl.stop - sl.start
        out = np.zeros((lat.num_nodes, dim, lat.d0))
        for k in range(lat.steps):
            lo, hi = lat.level_range(k)
            clo, chi = lat.level_range(k + 1)
            dev = self.deviations[clo:chi, sl].reshape(hi - lo, lat.fanout, dim)
            dw = lat.dW[clo:chi].reshape(hi - lo, lat.fanout, lat.d0)
            w = lat.child_probs[None, :, None, None]
            out[lo:hi] = (w * dev[..., :, None] * dw[..., None, :]).sum(axis=1) / lat.dt
        return out


# -- families of sibling systems ----------------------------------------------
#
# Every state and constant below carries a batch axis right after the node
# axis, one entry per flow of a family of sibling systems; a single system is
# the family of one.


def _apply(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """(m|1, [B,] p, q) x (m, B, q) -> (m, B, p), broadcasting the leading axes."""
    return np.matmul(mat, vec[..., None])[..., 0]


def _stack(arrays: list) -> np.ndarray:
    """Sibling constants, each (m|1, ...), as one (m|1, B|1, ...) array.

    An array shared by every sibling keeps a batch axis of length 1 and is
    not copied.
    """
    first = arrays[0]
    if all(a is first for a in arrays[1:]):
        return first[:, None]
    return np.stack(np.broadcast_arrays(*arrays), axis=1)


def _require_same(name: str, blocks: list) -> None:
    """Refuse a family whose systems do not share a matrix block."""
    first = blocks[0]
    for block in blocks[1:]:
        if block is not first and not np.array_equal(block, first):
            raise ValidationError(
                f"{name} differs between systems solved together; only sibling "
                f"systems (same blocks, new constants) share a solve")


def _family_level(family: Sequence[FbsdeSystem], k: int) -> LevelCoeffs:
    """Level-k blocks of a family, constants stacked after the node axis."""
    cs = [s.coeffs(k) for s in family]
    for name in ("Aff", "Afb", "Bbf", "Bbb"):
        _require_same(f"level {k} {name}", [getattr(c, name) for c in cs])
    return replace(cs[0], af=_stack([c.af for c in cs]), S=_stack([c.S for c in cs]),
                   bb=_stack([c.bb for c in cs]))


def _family_terminal(family: Sequence[FbsdeSystem]) -> tuple:
    """Terminal map of a family: the shared G and g stacked as (mK|1, B|1, mb)."""
    maps = [s.terminal() for s in family]
    _require_same("terminal G", [G for G, _ in maps])
    return maps[0][0], _stack([np.atleast_2d(np.asarray(g, dtype=float)) for _, g in maps])


def _family_initial(family: Sequence[FbsdeSystem]) -> np.ndarray:
    return np.array([s.initial for s in family], dtype=float)


def _flow_max(gap: np.ndarray) -> np.ndarray:
    """Largest |entry| of each flow of a (m, B, ...) array."""
    return np.max(np.abs(gap), axis=(0,) + tuple(range(2, gap.ndim)), initial=0.0)


def _noise(lat: NoiseLattice, k: int, S: np.ndarray) -> np.ndarray:
    """S(v) dW on every child edge of level k, in child layout."""
    clo, chi = lat.level_range(k + 1)
    m = lat.nodes_at(k)
    S_child = np.repeat(np.broadcast_to(S, (m,) + S.shape[1:]), lat.fanout, axis=0)
    return _apply(S_child, lat.dW[clo:chi, None])


def _step(lat: NoiseLattice, uf: np.ndarray, ubt: np.ndarray, Aff, Afb, af,
          noise: np.ndarray) -> np.ndarray:
    """Forward states on the children of one level."""
    drift = _apply(Aff, uf) + _apply(Afb, ubt) + af
    return lat.repeat_to_children(uf + lat.dt * drift) + noise


def _driver(system: FbsdeSystem, k: int, c: LevelCoeffs | None, uf, ubt) -> np.ndarray:
    """The backward driver on level k; ``c`` is the level's stacked blocks if already at hand."""
    if system.driver_fn is not None:  # non-affine systems are solved alone
        return system.driver_fn(k, uf[:, 0], ubt[:, 0])[:, None]
    c = c if c is not None else _family_level([system], k)
    return _apply(c.Bbf, uf) + _apply(c.Bbb, ubt) + c.bb


def _forward_sweep(system: FbsdeSystem, ub: np.ndarray) -> np.ndarray:
    lat = system.lattice
    uf = np.zeros((lat.num_nodes, 1, system.mf))
    uf[0] = system.initial
    for k in range(lat.steps):
        lo, hi = lat.level_range(k)
        clo, chi = lat.level_range(k + 1)
        ubt = lat.cond_expect(ub[clo:chi], k)
        c = _family_level([system], k)
        uf[clo:chi] = _step(lat, uf[lo:hi], ubt, c.Aff, c.Afb, c.af, _noise(lat, k, c.S))
    return uf


def _backward_sweep(system: FbsdeSystem, uf: np.ndarray) -> np.ndarray:
    lat = system.lattice
    ub = np.zeros((lat.num_nodes, 1, system.mb))
    tsl = lat.terminal_slice
    if system.terminal_fn is not None:
        ub[tsl] = system.terminal_fn(uf[tsl, 0])[:, None]
    else:
        G, g = _family_terminal([system])
        ub[tsl] = _apply(G, uf[tsl]) + g
    for k in range(lat.steps - 1, -1, -1):
        lo, hi = lat.level_range(k)
        clo, chi = lat.level_range(k + 1)
        ubt = lat.cond_expect(ub[clo:chi], k)
        ub[lo:hi] = ubt + lat.dt * _driver(system, k, None, uf[lo:hi], ubt)
    return ub


def _pre_and_deviations(lat: NoiseLattice, ub: np.ndarray) -> tuple:
    """The pre-driver values uB~ and the martingale increments of backward states."""
    pre = np.zeros_like(ub)
    dev = np.zeros_like(ub)
    pre[lat.terminal_slice] = ub[lat.terminal_slice]
    for k in range(lat.steps):
        lo, hi = lat.level_range(k)
        clo, chi = lat.level_range(k + 1)
        pre[lo:hi] = lat.cond_expect(ub[clo:chi], k)
        dev[clo:chi] = ub[clo:chi] - lat.repeat_to_children(pre[lo:hi])
    return pre, dev


def _flow_solution(system: FbsdeSystem, b: int, uf, ub, pre, dev,
                   diagnostics: SolveDiagnostics) -> NodeSolution:
    """Flow ``b`` of stacked states as a solution with contiguous (nodes, dim) arrays.

    States stored flows-first give views; any other layout is copied.
    """
    flow = lambda a: np.ascontiguousarray(a[:, b])
    return NodeSolution(system=system, forward=flow(uf), backward=flow(ub),
                        backward_pre=flow(pre), deviations=flow(dev), diagnostics=diagnostics)


# -- residual ---------------------------------------------------------------


def _equation_gaps(family: Sequence[FbsdeSystem], uf, ub, pre) -> tuple:
    """Worst violation per flow of every discrete equation row, and of the terminal rows.

    Rows are recomputed from the stacked states and the systems' own
    coefficients; uB~ is read from ``pre``.
    """
    system = family[0]
    lat = system.lattice
    worst = _flow_max((uf[0] - _family_initial(family))[None])
    for k in range(lat.steps):
        lo, hi = lat.level_range(k)
        clo, chi = lat.level_range(k + 1)
        ubt = pre[lo:hi]
        c = _family_level(family, k)
        fwd_gap = uf[clo:chi] - _step(lat, uf[lo:hi], ubt, c.Aff, c.Afb, c.af,
                                      _noise(lat, k, c.S))
        bwd_gap = ub[lo:hi] - ubt - lat.dt * _driver(system, k, c, uf[lo:hi], ubt)
        worst = np.maximum(worst, np.maximum(_flow_max(fwd_gap), _flow_max(bwd_gap)))
    tsl = lat.terminal_slice
    if system.terminal_fn is not None:
        term_gap = ub[tsl] - system.terminal_fn(uf[tsl, 0])[:, None]
    else:
        G, g = _family_terminal(family)
        term_gap = ub[tsl] - _apply(G, uf[tsl]) - g
    terminal_mismatch = _flow_max(term_gap)
    return np.maximum(worst, terminal_mismatch), terminal_mismatch


def residual(system: FbsdeSystem, solution: NodeSolution) -> SolveDiagnostics:
    """Recompute every discrete equation row and report the worst violation."""
    worst, terminal_mismatch = _equation_gaps(
        [system], solution.forward[:, None], solution.backward[:, None],
        solution.backward_pre[:, None])
    return replace(solution.diagnostics, max_equation_residual=float(worst[0]),
                   terminal_mismatch=float(terminal_mismatch[0]))


# -- direct (decoupling-field) solve ------------------------------------------


@dataclass
class _LevelFactors:
    """Matrix-pass results of one level, each shared by the level's nodes."""

    E: np.ndarray      # (I - dt Pbar Afb)^-1       (1, mb, mb)
    EPbar: np.ndarray  # E Pbar                      (1, mb, mf)
    Q: np.ndarray      # uB~ = Q u_F + r             (1, mb, mf)
    IBbb: np.ndarray   # I + dt Bbb                  (1, mb, mb)
    Aff: np.ndarray
    Afb: np.ndarray


def sweep_floats(lat: NoiseLattice, mf: int, mb: int, flows: int = 1) -> int:
    """Float64s a ``DirectSolver`` keeps for one solve of ``flows`` sibling systems.

    Per level E, E Pbar, Q, P and Afb; per node and flow p, r, af, S dW and
    the solution's u_F, u_B, uB~ and increments.
    """
    return lat.steps * (mb * mb + 4 * mb * mf) + flows * lat.num_nodes * (3 * mf + 5 * mb)


def check_factor_budget(floats: int) -> None:
    """Raise ``BudgetError`` if ``floats`` stored float64s exceed ``FACTOR_BUDGET_BYTES``."""
    need = floats * 8
    if need > FACTOR_BUDGET_BYTES:
        raise BudgetError(
            f"the decoupling sweep would store about {need / 2**20:.0f} MiB of "
            f"per-level factors and node vectors, budget is "
            f"{FACTOR_BUDGET_BYTES / 2**20:.0f} MiB; lower the steps, the branching "
            f"or the number of agent groups")


def _require_shared(blocks: dict) -> None:
    """Refuse a matrix block that is not one matrix for its whole level."""
    for name, (block, shape) in blocks.items():
        if block.shape != (1,) + shape:
            raise ValidationError(
                f"{name} has shape {block.shape}; the direct solve takes one matrix "
                f"per level, shape {(1,) + shape}")


class DirectSolver:
    """Exact affine solve by a backward sweep of the decoupling field.

    Every affine system on the tree has u_B(v) = P_k u_F(v) + p(v) on level
    k.  The matrix pass in ``__init__`` runs from the leaves (P = G) to the
    root, one set of small matrices per level:

        Pbar = sum_b q_b P_{k+1},   E = (I - dt Pbar Afb)^-1,
        Q    = E Pbar (I + dt Aff),   P_k = (I + dt Bbb) Q + dt Bbf.

    It depends only on the blocks (Aff, Afb, Bbf, Bbb, G) and the tree, and
    takes them level-shared only: any other leading axis raises
    ``ValidationError``.  The constants (af, bb, g, initial, S dW) enter only
    the vector passes of ``solve``, so families of systems differing only in
    those (e.g. the clearing system across candidate major flows) share one
    matrix pass, and ``solve`` takes a whole family in one vector pass.

    A system whose storage (``sweep_floats``: ``K (mb^2 + 4 mb mf)`` floats
    of factors plus ``nodes (3 mf + 5 mb)`` of node vectors per flow) would
    exceed ``FACTOR_BUDGET_BYTES`` raises ``BudgetError`` before any
    coefficient call.
    """

    def __init__(self, system: FbsdeSystem):
        if not system.affine:
            raise SolverError("direct solve requires an affine system")
        self.system = system
        lat = system.lattice
        dt = lat.dt
        mf, mb = system.mf, system.mb
        check_factor_budget(sweep_floats(lat, mf, mb))
        P = np.asarray(system.terminal()[0], dtype=float)
        _require_shared({"G": (P, (mb, mf))})
        self._P = [None] * lat.steps + [P]
        self._levels: list[_LevelFactors] = [None] * lat.steps
        for k in range(lat.steps - 1, -1, -1):
            c = system.coeffs(k)
            _require_shared({"Aff": (c.Aff, (mf, mf)), "Afb": (c.Afb, (mf, mb)),
                             "Bbf": (c.Bbf, (mb, mf)), "Bbb": (c.Bbb, (mb, mb))})
            # sum_b q_b P over one node's children, reduced as cond_expect does
            Pbar = lat.cond_expect(np.broadcast_to(P, (lat.fanout,) + P.shape[1:]), 0)
            try:
                E = np.linalg.inv(np.eye(mb) - dt * (Pbar @ c.Afb))
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    f"level {k} system I - dt*Pbar*Afb is singular ({exc}); this "
                    f"signals violated monotonicity of the discretized model", None)
            EPbar = E @ Pbar
            Q = EPbar @ (np.eye(mf) + dt * c.Aff)
            IBbb = np.eye(mb) + dt * c.Bbb
            P = IBbb @ Q + dt * c.Bbf
            self._levels[k] = _LevelFactors(E=E, EPbar=EPbar, Q=Q, IBbb=IBbb,
                                            Aff=c.Aff, Afb=c.Afb)
            self._P[k] = P

    def solve(self, systems: FbsdeSystem | Sequence[FbsdeSystem] | None = None):
        """Solve by one vector pass on the shared matrix pass.

        ``systems`` is this solver's own system (the default), one sibling
        system (same blocks, new constants), or a sequence of siblings, the
        flows of one batch.  One system gives its ``NodeSolution``; a
        sequence gives a list with one solution per flow, in order.

        Every flow's states are checked to be finite and every equation row
        of every flow is recomputed (``_equation_gaps``) against the absolute
        ``DIRECT_RESIDUAL_GATE``; the first flow that fails raises
        ``SolverError`` naming it.
        """
        single = systems is None or isinstance(systems, FbsdeSystem)
        family = [self.system if systems is None else systems] if single else list(systems)
        if not family:
            raise ValidationError("no system to solve")
        system = family[0]
        lat = system.lattice
        dt = lat.dt
        mf, mb = system.mf, system.mb
        K = lat.steps
        B = len(family)
        check_factor_budget(sweep_floats(lat, mf, mb, B))
        # backward vector pass: p(v), and r(v) with uB~ = Q u_F + r
        p = _family_terminal(family)[1]
        ps, rs, afs, noises = [None] * K + [p], [None] * K, [None] * K, [None] * K
        for k in range(K - 1, -1, -1):
            c = _family_level(family, k)
            lv = self._levels[k]
            noise = _noise(lat, k, c.S)
            pbar = lat.cond_expect(p + _apply(self._P[k + 1], noise), k)
            r = _apply(lv.E, pbar) + dt * _apply(lv.EPbar, c.af)
            p = _apply(lv.IBbb, r) + dt * c.bb
            ps[k], rs[k], afs[k], noises[k] = p, r, c.af, noise
        # forward pass; the states are flows-first in memory, so that each
        # flow's solution (and its uB~ and increments, laid out alike) is a
        # contiguous view
        uf = np.zeros((B, lat.num_nodes, mf)).transpose(1, 0, 2)
        ub = np.zeros((B, lat.num_nodes, mb)).transpose(1, 0, 2)
        uf[0] = _family_initial(family)
        for k in range(K + 1):
            lo, hi = lat.level_range(k)
            ub[lo:hi] = _apply(self._P[k], uf[lo:hi]) + ps[k]
            if k < K:
                lv = self._levels[k]
                clo, chi = lat.level_range(k + 1)
                ubt = _apply(lv.Q, uf[lo:hi]) + rs[k]
                uf[clo:chi] = _step(lat, uf[lo:hi], ubt, lv.Aff, lv.Afb, afs[k], noises[k])
        del ps, rs, afs, noises  # a batch's sweep vectors, freed before the residual's
        finite = np.isfinite(uf).all(axis=(0, 2)) & np.isfinite(ub).all(axis=(0, 2))
        if not finite.all():
            raise SolverError(
                f"direct solve produced non-finite values in flow "
                f"{int(np.flatnonzero(~finite)[0])} (near-singular level system)")
        pre, dev = _pre_and_deviations(lat, ub)
        worst, terminal_mismatch = _equation_gaps(family, uf, ub, pre)
        sols = [_flow_solution(s, b, uf, ub, pre, dev, SolveDiagnostics(
                    "direct", 1, float(worst[b]), float(terminal_mismatch[b]),
                    bool(worst[b] <= DIRECT_RESIDUAL_GATE)))
                for b, s in enumerate(family)]
        for b, sol in enumerate(sols):
            if not sol.diagnostics.converged:
                raise SolverError(
                    f"direct solve residual {worst[b]:.3e} in flow {b} exceeds "
                    f"{DIRECT_RESIDUAL_GATE:g}; the discrete system is ill-conditioned",
                    sol.diagnostics)
        return sols[0] if single else sols


def solve_direct(system: FbsdeSystem) -> NodeSolution:
    """Exact solve of an affine system by one decoupling-field sweep."""
    return DirectSolver(system).solve()


def solve_picard(system: FbsdeSystem, damping: float = DEFAULT_DAMPING,
                 tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> NodeSolution:
    """Damped alternation of forward and backward sweeps.

    Stops when the successive-iterate max-norm distance drops below ``tol``;
    a final plain sweep restores the exact sweep relations before packaging.
    """
    if not 0.0 < damping <= 1.0:
        raise ValidationError("damping must lie in (0, 1]")
    if tol <= 0 or max_iter < 1:
        raise ValidationError("tol must be positive and max_iter at least 1")
    lat = system.lattice
    ub = np.zeros((lat.num_nodes, 1, system.mb))
    uf = _forward_sweep(system, ub)
    dist = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        uf_new = _forward_sweep(system, ub)
        ub_new = _backward_sweep(system, uf_new)
        uf_next = damping * uf_new + (1.0 - damping) * uf
        ub_next = damping * ub_new + (1.0 - damping) * ub
        dist = max(float(np.max(np.abs(uf_next - uf), initial=0.0)),
                   float(np.max(np.abs(ub_next - ub), initial=0.0)))
        uf, ub = uf_next, ub_next
        if dist <= tol:
            break
    converged = dist <= tol
    if not converged:
        raise SolverError(
            f"fixed-point iteration did not converge in {max_iter} sweeps "
            f"(last step {dist:.3e}); shorten the horizon/step or check the "
            f"monotonicity margins",
            SolveDiagnostics("picard", iterations, dist, np.nan, False))
    uf = _forward_sweep(system, ub)
    ub = _backward_sweep(system, uf)
    sol = _flow_solution(system, 0, uf, ub, *_pre_and_deviations(lat, ub),
                         SolveDiagnostics("picard", iterations, dist, 0.0, True))
    sol.diagnostics = residual(system, sol)
    return sol
