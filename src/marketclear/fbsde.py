"""Coupled forward-backward solver on a scenario tree.

Systems are described per time level by small dense blocks:

    forward   u_F(child) = u_F(v) + dt*(Aff(v) u_F(v) + Afb(v) uB~(v) + af(v))
                           + S(v) dW(child-edge)
    backward  u_B(v)     = uB~(v) + dt*(Bbf(v) u_F(v) + Bbb(v) uB~(v) + bb(v))
    terminal  u_B(leaf)  = G(leaf) u_F(leaf) + g(leaf)

where uB~(v) denotes the conditional expectation of the next-level backward
values (the "pre-driver" value).  Every drift and driver reads backward
states through uB~ and forward states at the current node; this is the exact
first-order-condition structure of the discretized control problems, which is
what lets the clearing identity and the optimality checks hold to round-off.

Two solution paths.  Affine systems are solved exactly by a backward sweep of
their affine decoupling field u_B(v) = P(v) u_F(v) + p(v), the discrete
four-step scheme for linear FBSDEs: one matrix pass from the leaves computes
P level by level, batched over each level's nodes, and vector passes then
carry the constants back and recover every state forward (``DirectSolver``).
The general case uses a damped fixed-point iteration of forward/backward
sweeps (``solve_picard``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BudgetError, SolverError, ValidationError
from .scenario import NoiseLattice

DEFAULT_DAMPING = 0.5
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 500
# cap on the per-level factors a DirectSolver stores, in bytes
FACTOR_BUDGET_BYTES = 2 * 2**30


@dataclass
class LevelCoeffs:
    """Affine blocks of one time level; leading axis is 1 (shared) or m (per node)."""

    Aff: np.ndarray   # (m|1, mf, mf)
    Afb: np.ndarray   # (m|1, mf, mb)
    af: np.ndarray    # (m|1, mf)
    S: np.ndarray     # (m|1, mf, d0)
    Bbf: np.ndarray   # (m|1, mb, mf)
    Bbb: np.ndarray   # (m|1, mb, mb)
    bb: np.ndarray    # (m|1, mb)


@dataclass
class FbsdeSystem:
    """A coupled forward-backward system laid out on a noise lattice.

    ``coeffs(k)`` returns the level-k blocks; ``terminal()`` the terminal map
    (G, g) on the leaves.  ``driver_fn``/``terminal_fn`` override the affine
    backward parts for non-affine models (fixed-point path only); ``affine``
    must then be False.
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


def _apply(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """(m|1, p, q) x (m, q) -> (m, p), broadcasting the leading axis."""
    return np.matmul(mat, vec[..., None])[..., 0]


def _noise(lat: NoiseLattice, k: int, S: np.ndarray) -> np.ndarray:
    """S(v) dW on every child edge of level k, in child layout."""
    clo, chi = lat.level_range(k + 1)
    m = lat.nodes_at(k)
    S_child = np.repeat(np.broadcast_to(S, (m,) + S.shape[1:]), lat.fanout, axis=0)
    return _apply(S_child, lat.dW[clo:chi])


def _step(lat: NoiseLattice, uf: np.ndarray, ubt: np.ndarray, Aff, Afb, af,
          noise: np.ndarray) -> np.ndarray:
    """Forward states on the children of one level."""
    drift = _apply(Aff, uf) + _apply(Afb, ubt) + af
    return lat.repeat_to_children(uf + lat.dt * drift) + noise


def _forward_sweep(system: FbsdeSystem, ub: np.ndarray) -> np.ndarray:
    lat = system.lattice
    uf = np.zeros((lat.num_nodes, system.mf))
    uf[0] = system.initial
    for k in range(lat.steps):
        lo, hi = lat.level_range(k)
        clo, chi = lat.level_range(k + 1)
        ubt = lat.cond_expect(ub[clo:chi], k)
        c = system.coeffs(k)
        uf[clo:chi] = _step(lat, uf[lo:hi], ubt, c.Aff, c.Afb, c.af, _noise(lat, k, c.S))
    return uf


def _backward_sweep(system: FbsdeSystem, uf: np.ndarray) -> np.ndarray:
    lat = system.lattice
    ub = np.zeros((lat.num_nodes, system.mb))
    tsl = lat.terminal_slice
    if system.terminal_fn is not None:
        ub[tsl] = system.terminal_fn(uf[tsl])
    else:
        G, g = system.terminal()
        ub[tsl] = _apply(G, uf[tsl]) + g
    for k in range(lat.steps - 1, -1, -1):
        lo, hi = lat.level_range(k)
        clo, chi = lat.level_range(k + 1)
        ubt = lat.cond_expect(ub[clo:chi], k)
        if system.driver_fn is not None:
            driver = system.driver_fn(k, uf[lo:hi], ubt)
        else:
            c = system.coeffs(k)
            driver = _apply(c.Bbf, uf[lo:hi]) + _apply(c.Bbb, ubt) + c.bb
        ub[lo:hi] = ubt + lat.dt * driver
    return ub


def _package(system: FbsdeSystem, uf, ub, diagnostics) -> NodeSolution:
    """Attach the pre-driver values uB~ and the martingale increments."""
    lat = system.lattice
    pre = np.zeros_like(ub)
    dev = np.zeros_like(ub)
    pre[lat.terminal_slice] = ub[lat.terminal_slice]
    for k in range(lat.steps):
        lo, hi = lat.level_range(k)
        clo, chi = lat.level_range(k + 1)
        pre[lo:hi] = lat.cond_expect(ub[clo:chi], k)
        dev[clo:chi] = ub[clo:chi] - lat.repeat_to_children(pre[lo:hi])
    return NodeSolution(system=system, forward=uf, backward=ub,
                        backward_pre=pre, deviations=dev, diagnostics=diagnostics)


# -- residual ---------------------------------------------------------------


def residual(system: FbsdeSystem, solution: NodeSolution) -> SolveDiagnostics:
    """Recompute every discrete equation row and report the worst violation."""
    lat = system.lattice
    uf, ub = solution.forward, solution.backward
    worst = float(np.max(np.abs(uf[0] - system.initial), initial=0.0))
    for k in range(lat.steps):
        lo, hi = lat.level_range(k)
        clo, chi = lat.level_range(k + 1)
        ubt = lat.cond_expect(ub[clo:chi], k)
        c = system.coeffs(k)
        fwd_gap = uf[clo:chi] - _step(lat, uf[lo:hi], ubt, c.Aff, c.Afb, c.af,
                                      _noise(lat, k, c.S))
        if system.driver_fn is not None:
            driver = system.driver_fn(k, uf[lo:hi], ubt)
        else:
            driver = _apply(c.Bbf, uf[lo:hi]) + _apply(c.Bbb, ubt) + c.bb
        bwd_gap = ub[lo:hi] - ubt - lat.dt * driver
        worst = max(worst, float(np.max(np.abs(fwd_gap), initial=0.0)),
                    float(np.max(np.abs(bwd_gap), initial=0.0)))
    tsl = lat.terminal_slice
    if system.terminal_fn is not None:
        term_gap = ub[tsl] - system.terminal_fn(uf[tsl])
    else:
        G, g = system.terminal()
        term_gap = ub[tsl] - _apply(G, uf[tsl]) - g
    terminal_mismatch = float(np.max(np.abs(term_gap), initial=0.0))
    worst = max(worst, terminal_mismatch)
    diag = solution.diagnostics
    return SolveDiagnostics(method=diag.method, iterations=diag.iterations,
                            max_equation_residual=worst,
                            terminal_mismatch=terminal_mismatch,
                            converged=diag.converged and worst <= max(DEFAULT_TOL, 1e-9))


# -- direct (decoupling-field) solve ------------------------------------------


@dataclass
class _LevelFactors:
    """Matrix-pass results of one level; leading axis 1 (shared) or m (per node)."""

    E: np.ndarray      # (I - dt Pbar Afb)^-1       (m|1, mb, mb)
    EPbar: np.ndarray  # E Pbar                      (m|1, mb, mf)
    Q: np.ndarray      # uB~ = Q u_F + r             (m|1, mb, mf)
    IBbb: np.ndarray   # I + dt Bbb                  (m|1, mb, mb)
    Aff: np.ndarray
    Afb: np.ndarray


def check_factor_budget(floats: int) -> None:
    """Raise ``BudgetError`` if ``floats`` stored float64s exceed ``FACTOR_BUDGET_BYTES``."""
    need = floats * 8
    if need > FACTOR_BUDGET_BYTES:
        raise BudgetError(
            f"the decoupling sweep would store about {need / 2**20:.0f} MiB of "
            f"per-level factors, budget is {FACTOR_BUDGET_BYTES / 2**20:.0f} MiB; "
            f"lower the steps, the branching or the number of agent groups")


class DirectSolver:
    """Exact affine solve by a backward sweep of the decoupling field.

    Every affine system on the tree has u_B(v) = P(v) u_F(v) + p(v).  The
    matrix pass in ``__init__`` runs from the leaves (P = G) to the root,
    batched over each level's nodes:

        Pbar = sum_b q_b P(child_b),   E = (I - dt Pbar Afb)^-1,
        Q    = E Pbar (I + dt Aff),    P(v) = (I + dt Bbb) Q + dt Bbf.

    It depends only on the blocks (Aff, Afb, Bbf, Bbb, G) and the tree.  The
    constants (af, bb, g, initial, S dW) enter only the vector passes of
    ``solve``, so families of systems differing only in those (e.g. the
    clearing system across candidate major flows) share one matrix pass.
    Blocks shared by a whole level keep P shared too.

    What it stores takes up to ``nodes * (mb^2 + 4 mb mf) * 8`` bytes
    (``E``, ``E Pbar``, ``Q``, ``P`` and the kept ``Afb`` per node; level-shared
    ``Aff`` and ``Bbb`` are not counted); a system whose estimate exceeds
    ``FACTOR_BUDGET_BYTES`` raises ``BudgetError`` before any coefficient call.
    """

    def __init__(self, system: FbsdeSystem):
        if not system.affine:
            raise SolverError("direct solve requires an affine system")
        self.system = system
        lat = system.lattice
        dt = lat.dt
        mf, mb = system.mf, system.mb
        check_factor_budget(lat.num_nodes * (mb * mb + 4 * mb * mf))
        G, _ = system.terminal()
        P = np.asarray(G, dtype=float).reshape(-1, mb, mf)
        self._P = [None] * lat.steps + [P]
        self._levels: list[_LevelFactors] = [None] * lat.steps
        for k in range(lat.steps - 1, -1, -1):
            c = system.coeffs(k)
            Pbar = P if P.shape[0] == 1 else lat.cond_expect(P, k)
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

    def solve(self, system: FbsdeSystem | None = None) -> NodeSolution:
        """Solve; pass a sibling system (same blocks, new constants) to reuse the matrix pass."""
        system = system if system is not None else self.system
        lat = system.lattice
        dt = lat.dt
        mf, mb = system.mf, system.mb
        K = lat.steps
        # backward vector pass: p(v), and r(v) with uB~ = Q u_F + r
        _, g = system.terminal()
        p = np.asarray(g, dtype=float).reshape(-1, mb)
        ps, rs, afs, noises = [None] * K + [p], [None] * K, [None] * K, [None] * K
        for k in range(K - 1, -1, -1):
            c = system.coeffs(k)
            lv = self._levels[k]
            noise = _noise(lat, k, c.S)
            pbar = lat.cond_expect(p + _apply(self._P[k + 1], noise), k)
            r = _apply(lv.E, pbar) + dt * _apply(lv.EPbar, c.af)
            p = _apply(lv.IBbb, r) + dt * c.bb
            ps[k], rs[k], afs[k], noises[k] = p, r, c.af, noise
        # forward pass
        uf = np.zeros((lat.num_nodes, mf))
        ub = np.zeros((lat.num_nodes, mb))
        uf[0] = system.initial
        for k in range(K + 1):
            lo, hi = lat.level_range(k)
            ub[lo:hi] = _apply(self._P[k], uf[lo:hi]) + ps[k]
            if k < K:
                lv = self._levels[k]
                clo, chi = lat.level_range(k + 1)
                ubt = _apply(lv.Q, uf[lo:hi]) + rs[k]
                uf[clo:chi] = _step(lat, uf[lo:hi], ubt, lv.Aff, lv.Afb, afs[k], noises[k])
        if not (np.all(np.isfinite(uf)) and np.all(np.isfinite(ub))):
            raise SolverError("direct solve produced non-finite values (near-singular level system)")
        diag = SolveDiagnostics(method="direct", iterations=1,
                                max_equation_residual=0.0, terminal_mismatch=0.0,
                                converged=True)
        sol = _package(system, uf, ub, diag)
        check = residual(system, sol)
        sol.diagnostics = SolveDiagnostics(method="direct", iterations=1,
                                           max_equation_residual=check.max_equation_residual,
                                           terminal_mismatch=check.terminal_mismatch,
                                           converged=check.max_equation_residual <= 1e-10)
        if not sol.diagnostics.converged:
            raise SolverError(
                f"direct solve residual {check.max_equation_residual:.3e} exceeds 1e-10; "
                f"the discrete system is ill-conditioned", sol.diagnostics)
        return sol


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
    ub = np.zeros((lat.num_nodes, system.mb))
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
    diag = SolveDiagnostics(method="picard", iterations=iterations,
                            max_equation_residual=dist, terminal_mismatch=0.0,
                            converged=True)
    sol = _package(system, uf, ub, diag)
    check = residual(system, sol)
    sol.diagnostics = SolveDiagnostics(method="picard", iterations=iterations,
                                       max_equation_residual=check.max_equation_residual,
                                       terminal_mismatch=check.terminal_mismatch,
                                       converged=True)
    return sol
