"""Coupled forward-backward solver on a scenario tree.

Systems are described per time level by two small dense blocks:

    forward   u_F(child) = u_F(v) + dt*(Afb_k uB~(v) + af(v)) + S(v) dW(child-edge)
    backward  u_B(v)     = uB~(v) + dt*(Bbf_k u_F(v) + bb(v))
    terminal  u_B(leaf)  = G u_F(leaf) + g(leaf)

for every node v of level k, where uB~(v) denotes the conditional expectation
of the next-level backward values (the "pre-driver" value).  Afb and Bbf are
level tables, one matrix per level, as the model's matrix coefficients depend
on time only, and G is one matrix; the constants (af, S, bb, g) are given per
node or shared.  Drifts read backward states only, through uB~, and drivers
forward states only (trading rates are affine in the adjoints, drivers are
cost gradients in the positions), so there are no forward-on-forward or
backward-on-backward blocks.  This is the exact first-order-condition
structure of the discretized control problems, which is what lets the
clearing identity and the optimality checks hold to round-off.

A family of sibling systems (same blocks, new constants) is one system:
every constant carries a flow axis right after its node axis, and a single
system is the family of one.  There is one solution path and one result,
``FamilySolution``, whose per-flow diagnostics ``residual`` builds.  An affine
system is solved exactly by a backward sweep of its affine decoupling field
u_B(v) = P_k u_F(v) + p(v), the discrete four-step scheme for linear FBSDEs:
one matrix pass from the leaves computes one P per level, and a vector pass
then carries every flow's constants back and recovers its states forward,
each level block applied as one GEMM per flow over the level's nodes
(``DirectSolver``).  A non-affine major cost is solved by a sequence of
such affine solves on one matrix pass (``finite_market``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import BudgetError, SolverError, ValidationError
from .scenario import NoiseLattice, apply_block

# cap on what a DirectSolver stores for one solve, in bytes
FACTOR_BUDGET_BYTES = 2 * 2**30
# absolute gate on every equation row of a direct solve, per flow
DIRECT_RESIDUAL_GATE = 1e-10

CONSTANTS = ("initial", "af", "S", "bb", "g")


@dataclass
class FbsdeSystem:
    """A family of B coupled forward-backward systems sharing their matrix blocks.

    The matrix blocks are two level tables, ``Afb`` (K, mf, mb), the
    forward drift's read of uB~, and ``Bbf`` (K, mb, mf), the backward
    driver's read of u_F, plus the terminal matrix ``G`` (mb, mf).  The
    constants are node arrays with a flow axis right after the node axis;
    either axis has length 1 where the value is shared:

        initial (1, B|1, mf)                   on the root
        af (I|1, B|1, mf), S (I|1, B|1, mf, d0),
        bb (I|1, B|1, mb)                      on the I non-terminal nodes
        g (L|1, B|1, mb)                       on the L leaves

    Every shape is checked here (``ValidationError``).
    """

    lattice: NoiseLattice
    forward_slices: dict
    backward_slices: dict
    Afb: np.ndarray
    Bbf: np.ndarray
    G: np.ndarray
    initial: np.ndarray
    af: np.ndarray
    S: np.ndarray
    bb: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        lat = self.lattice
        for name in CONSTANTS:
            if np.ndim(getattr(self, name)) < 3:
                raise ValidationError(f"{name} has shape {np.shape(getattr(self, name))}; "
                                      f"a constant has a node, a flow and a state axis")
        K, mf, mb, B = lat.steps, self.mf, self.mb, self.flows
        I, L = lat.level_range(K)[0], lat.nodes_at(K)
        expected = {
            "Afb": ((K,), (mf,), (mb,)), "Bbf": ((K,), (mb,), (mf,)), "G": ((mb,), (mf,)),
            "initial": ((1,), (B, 1), (mf,)), "af": ((I, 1), (B, 1), (mf,)),
            "S": ((I, 1), (B, 1), (mf,), (lat.d0,)), "bb": ((I, 1), (B, 1), (mb,)),
            "g": ((L, 1), (B, 1), (mb,)),
        }
        for name, axes in expected.items():
            shape = np.shape(getattr(self, name))
            if len(shape) != len(axes) or any(n not in ok for n, ok in zip(shape, axes)):
                want = ", ".join("|".join(map(str, ok)) for ok in axes)
                raise ValidationError(f"{name} has shape {shape}; expected ({want})")

    @property
    def mf(self) -> int:
        return self.initial.shape[-1]

    @property
    def mb(self) -> int:
        return self.g.shape[-1]

    @property
    def flows(self) -> int:
        """The number B of systems in the family."""
        return max(getattr(self, name).shape[1] for name in CONSTANTS)

    def n_unknowns(self) -> int:
        return self.lattice.num_nodes * (self.mf + self.mb)


@dataclass
class SolveDiagnostics:
    method: str
    iterations: int
    max_equation_residual: float
    terminal_mismatch: float
    converged: bool


@dataclass
class FamilySolution:
    """Every flow of a solved family, its states stacked as (nodes, B, dim) arrays.

    A single system's solution is the family of one.  The stacks are
    flows-first in memory, so one flow's states are a contiguous view;
    ``backward_pre`` holds uB~ (at terminal nodes it repeats the terminal
    values).  The readers take a flow index, the first flow by default.
    ``diagnostics`` holds one ``SolveDiagnostics`` per flow (``residual``).
    """

    system: FbsdeSystem
    forward: np.ndarray
    backward: np.ndarray
    backward_pre: np.ndarray
    diagnostics: list[SolveDiagnostics]

    def field(self, name: str, flow: int = 0) -> np.ndarray:
        if name in self.system.forward_slices:
            return self.forward[:, flow, self.system.forward_slices[name]]
        return self.backward[:, flow, self.system.backward_slices[name]]

    def pre(self, name: str, flow: int = 0) -> np.ndarray:
        """Pre-driver conditional expectation of a backward field."""
        return self.backward_pre[:, flow, self.system.backward_slices[name]]

    def deviations(self, flow: int = 0) -> np.ndarray:
        """Per node, its backward value minus its parent's uB~ (zero at the root).

        The probability-weighted sum over siblings vanishes by construction.
        """
        lat = self.system.lattice
        ub = self.backward[:, flow]
        dev = np.zeros_like(ub)
        # the children of nodes 0..I-1 are nodes 1..N-1, in layout order
        I = lat.level_range(lat.steps)[0]
        dev[1:] = ub[1:] - lat.repeat_to_children(self.backward_pre[:I, flow])
        return dev


# -- sweeps -------------------------------------------------------------------
#
# Every state below is a (nodes, B, dim) array, one entry per flow of the
# family right after the node axis, as the system's constants are.  A level
# block enters ``apply_block`` as its (p, q) matrix ``table[k]`` and is applied
# to a level's states as one GEMM per flow, on the flows-first view, so every
# flow's rows go through a product of its own node count: a family equals
# its flows solved alone, byte for byte.


def _rows(const: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Nodes lo:hi of a node array, or the whole array if it is shared by every node."""
    return const if const.shape[0] == 1 else const[lo:hi]


def _flow_max(gap: np.ndarray) -> np.ndarray:
    """Largest |entry| of each flow of a (m, B, ...) array, in any memory layout.

    Each flow is reduced as one flows-first row.  A node-major gap is copied
    to that layout first: reduced in place, its inner loops would run over
    the few entries one flow has at one node.
    """
    flows = np.abs(gap).swapaxes(0, 1)
    return np.max(flows.reshape(len(flows), -1), axis=1, initial=0.0)


def _noise(system: FbsdeSystem, k: int) -> np.ndarray:
    """S(v) dW on every child edge of level k, in child layout."""
    lo, hi = system.lattice.level_range(k)
    return system.lattice.edge_noise(_rows(system.S, lo, hi), k)


def _step(system: FbsdeSystem, k: int, uf: np.ndarray, ubt: np.ndarray,
          noise: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Forward states on the children of level k, written to ``out`` if given."""
    lat = system.lattice
    lo, hi = lat.level_range(k)
    drift = apply_block(system.Afb[k], ubt) + _rows(system.af, lo, hi)
    return np.add(lat.repeat_to_children(uf + lat.dt * drift), noise, out=out)


def _pre(lat: NoiseLattice, ub: np.ndarray) -> np.ndarray:
    """The pre-driver values uB~ of backward states (the terminal values at the leaves)."""
    pre = np.zeros_like(ub)
    I = lat.level_range(lat.steps)[0]
    pre[I:] = ub[I:]
    lat.tree_cond_expect(ub, out=pre[:I])
    return pre


# -- residual ---------------------------------------------------------------


def _equation_gaps(system: FbsdeSystem, uf, ub, pre) -> tuple:
    """Worst violation per flow of every discrete equation row, and of the terminal rows.

    Rows are recomputed from the stacked states and the system's blocks and
    constants; uB~ is read from ``pre``.
    """
    lat = system.lattice
    worst = _flow_max((uf[0] - system.initial[0])[None])
    for k in range(lat.steps):
        lo, hi = lat.level_range(k)
        clo, chi = lat.level_range(k + 1)
        ubt = pre[lo:hi]
        fwd_gap = uf[clo:chi] - _step(system, k, uf[lo:hi], ubt, _noise(system, k))
        bwd_gap = ub[lo:hi] - ubt - lat.dt * (apply_block(system.Bbf[k], uf[lo:hi])
                                               + _rows(system.bb, lo, hi))
        worst = np.maximum(worst, np.maximum(_flow_max(fwd_gap), _flow_max(bwd_gap)))
    tsl = lat.terminal_slice
    term_gap = ub[tsl] - apply_block(system.G, uf[tsl]) - system.g
    terminal_mismatch = _flow_max(term_gap)
    return np.maximum(worst, terminal_mismatch), terminal_mismatch


def residual(system: FbsdeSystem, family: FamilySolution) -> list[SolveDiagnostics]:
    """Per flow of ``family``, the worst violation of ``system``'s equation rows.

    A flow has converged when its worst row is within ``DIRECT_RESIDUAL_GATE``.
    """
    worst, terminal_mismatch = _equation_gaps(system, family.forward, family.backward,
                                              family.backward_pre)
    return [SolveDiagnostics("direct", 1, float(w), float(t), bool(w <= DIRECT_RESIDUAL_GATE))
            for w, t in zip(worst, terminal_mismatch)]


# -- direct (decoupling-field) solve ------------------------------------------


def sweep_floats(lat: NoiseLattice, mf: int, mb: int, flows: int = 1) -> int:
    """Float64s a ``DirectSolver`` keeps for one solve of ``flows`` sibling systems.

    Per level E, Q, P and the system's Afb and Bbf; per node and flow p, r,
    the system's af, S dW and the solution's u_F, u_B and uB~.
    """
    return lat.steps * (mb * mb + 4 * mb * mf) + flows * lat.num_nodes * (3 * mf + 4 * mb)


def check_factor_budget(floats: int) -> None:
    """Raise ``BudgetError`` if ``floats`` stored float64s exceed ``FACTOR_BUDGET_BYTES``."""
    need = floats * 8
    if need > FACTOR_BUDGET_BYTES:
        raise BudgetError(
            f"the decoupling sweep would store about {need / 2**20:.0f} MiB of "
            f"per-level factors and node vectors, budget is "
            f"{FACTOR_BUDGET_BYTES / 2**20:.0f} MiB; lower the steps, the branching "
            f"or the number of agent groups")


class DirectSolver:
    """Exact affine solve by a backward sweep of the decoupling field.

    Every affine system on the tree has u_B(v) = P_k u_F(v) + p(v) on level
    k.  The matrix pass in ``__init__`` runs from the leaves (P = G) to the
    root, one set of small matrices per level:

        Pbar = sum_b q_b P_{k+1},   E = (I - dt Pbar Afb)^-1,
        Q    = E Pbar,                P_k = Q + dt Bbf.

    It reads only the system's level tables (Afb, Bbf), G and the tree.  The
    constants (af, bb, g, initial, S dW) enter only the vector pass of
    ``solve``, r = E pbar + dt Q af and p = r + dt bb, which takes every flow
    of the family at once; a re-solve with new constants (e.g. the clearing
    system across candidate major flows) shares the matrix pass.

    A system whose storage (``sweep_floats``: ``K (mb^2 + 4 mb mf)`` floats
    of factors plus ``nodes (3 mf + 4 mb)`` of node vectors per flow) would
    exceed ``FACTOR_BUDGET_BYTES`` raises ``BudgetError`` before the matrix
    pass.
    """

    def __init__(self, system: FbsdeSystem):
        self.system = system
        lat = system.lattice
        dt = lat.dt
        mf, mb = system.mf, system.mb
        check_factor_budget(sweep_floats(lat, mf, mb))
        # per level, each shared by the level's nodes: E = (I - dt Pbar Afb)^-1
        # (mb, mb), Q = E Pbar (mb, mf) with uB~ = Q u_F + r, and P (mb, mf)
        P = system.G
        self._P = [None] * lat.steps + [P]
        self._E, self._Q = [None] * lat.steps, [None] * lat.steps
        for k in range(lat.steps - 1, -1, -1):
            # sum_b q_b P over one node's children, reduced as cond_expect does
            Pbar = lat.cond_expect(np.broadcast_to(P, (lat.fanout,) + P.shape), 0)[0]
            try:
                E = np.linalg.inv(np.eye(mb) - dt * (Pbar @ system.Afb[k]))
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    f"level {k} system I - dt*Pbar*Afb is singular ({exc}); this "
                    f"signals violated monotonicity of the discretized model", None)
            Q = E @ Pbar
            P = Q + dt * system.Bbf[k]
            self._E[k], self._Q[k], self._P[k] = E, Q, P

    def solve(self, **constants) -> FamilySolution:
        """Solve every flow of the system by one vector pass on the shared matrix pass.

        ``constants`` replaces any of the system's ``initial``, ``af``,
        ``S``, ``bb`` and ``g`` (a sibling family, of any number of flows);
        the blocks stay the solver's own.  Returns the solved family.

        Every flow's states are checked to be finite and every equation row
        of every flow is recomputed (``residual``) against the absolute
        ``DIRECT_RESIDUAL_GATE``; the first flow that fails raises
        ``SolverError`` naming it.
        """
        unknown = set(constants) - set(CONSTANTS)
        if unknown:
            raise ValidationError(f"only the constants {CONSTANTS} change between "
                                  f"solves, not {sorted(unknown)}")
        system = replace(self.system, **constants) if constants else self.system
        lat = system.lattice
        dt = lat.dt
        mf, mb = system.mf, system.mb
        K = lat.steps
        B = system.flows
        check_factor_budget(sweep_floats(lat, mf, mb, B))
        # backward vector pass: p(v), and r(v) with uB~ = Q u_F + r
        p = system.g
        ps, rs, noises = [None] * K + [p], [None] * K, [None] * K
        for k in range(K - 1, -1, -1):
            lo, hi = lat.level_range(k)
            noise = _noise(system, k)
            pbar = lat.cond_expect(p + apply_block(self._P[k + 1], noise), k)
            af = _rows(system.af, lo, hi)
            r = apply_block(self._E[k], pbar) + dt * apply_block(self._Q[k], af)
            p = r + dt * _rows(system.bb, lo, hi)
            ps[k], rs[k], noises[k] = p, r, noise
        # forward pass, written into the states; they are flows-first in
        # memory, so that each flow's solution (and its uB~, laid out
        # alike) is a contiguous view
        uf = np.zeros((B, lat.num_nodes, mf)).transpose(1, 0, 2)
        ub = np.zeros((B, lat.num_nodes, mb)).transpose(1, 0, 2)
        uf[0] = system.initial[0]
        for k in range(K + 1):
            lo, hi = lat.level_range(k)
            apply_block(self._P[k], uf[lo:hi], out=ub[lo:hi])
            ub[lo:hi] += ps[k]
            if k < K:
                clo, chi = lat.level_range(k + 1)
                ubt = apply_block(self._Q[k], uf[lo:hi])
                ubt += rs[k]
                _step(system, k, uf[lo:hi], ubt, noises[k], out=uf[clo:chi])
        del ps, rs, noises  # a batch's sweep vectors, freed before the residual's
        finite = np.isfinite(uf).all(axis=(0, 2)) & np.isfinite(ub).all(axis=(0, 2))
        if not finite.all():
            raise SolverError(
                f"direct solve produced non-finite values in flow "
                f"{int(np.flatnonzero(~finite)[0])} (near-singular level system)")
        family = FamilySolution(system, uf, ub, _pre(lat, ub), [])
        family.diagnostics = residual(system, family)
        for b, diagnostics in enumerate(family.diagnostics):
            if not diagnostics.converged:
                raise SolverError(
                    f"direct solve residual {diagnostics.max_equation_residual:.3e} in flow "
                    f"{b} exceeds {DIRECT_RESIDUAL_GATE:g}; the discrete system is "
                    f"ill-conditioned", diagnostics)
        return family

