"""Finite-population market systems: best response, clearing, full equilibrium.

Internally every quantity is normalized: the major state is x0 = X0/N and the
major flow is b = beta/N, so the population-size limit needs no rescaling.
Identical minor agents are collapsed into weighted groups; the collapse is
exact because agents with the same coefficients and the same atom draw
satisfy identical equations.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
import numpy as np

from .errors import AssumptionViolationError, UnsupportedModelError, ValidationError
from .fbsde import (DirectSolver, FbsdeSystem, LevelCoeffs, NodeSolution,
                    check_factor_budget, solve_direct, solve_picard, sweep_floats)
from .model import ModelSpec, check_all_assumptions
from .scenario import (ExogenousFields, IdiosyncraticAtoms, NodeField,
                       NoiseLattice, evaluate_exogenous, idiosyncratic_atoms,
                       level_table, sample_idiosyncratic)


@dataclass(frozen=True)
class AgentGroup:
    """A maximal set of identical minor agents: bundle, atom draw, multiplicity."""

    bundle_index: int
    atom_index: int
    count: int


@dataclass
class AgentPopulation:
    """Realized minor-agent population: groups plus the agent-to-group map."""

    groups: list[AgentGroup]
    agent_group: np.ndarray  # (N,) indices into groups

    @property
    def N(self) -> int:
        return sum(g.count for g in self.groups)

    @property
    def weights(self) -> np.ndarray:
        N = self.N
        return np.array([g.count / N for g in self.groups])

    @property
    def size(self) -> int:
        return len(self.groups)


def make_population(spec: ModelSpec, atoms: IdiosyncraticAtoms, N: int | None = None,
                    seed: int = 0, assignments: np.ndarray | None = None) -> AgentPopulation:
    """Draw (or accept) atom assignments and collapse identical agents.

    Homogeneous specs collapse agents by atom; heterogeneous specs keep one
    group per agent since their coefficient bundles differ.
    """
    N = N if N is not None else spec.dims.N
    if assignments is None:
        assignments = sample_idiosyncratic(atoms, N, seed)
    assignments = np.asarray(assignments, dtype=np.int64)
    if len(assignments) != N:
        raise ValidationError("one atom assignment per agent is required")
    if spec.homogeneous:
        order = []
        counts: dict[int, int] = {}
        for a in assignments:
            a = int(a)
            if a not in counts:
                order.append(a)
                counts[a] = 0
            counts[a] += 1
        groups = [AgentGroup(0, a, counts[a]) for a in order]
        index = {a: i for i, a in enumerate(order)}
        agent_group = np.array([index[int(a)] for a in assignments], dtype=np.int64)
    else:
        groups = [AgentGroup(i, int(assignments[i]), 1) for i in range(N)]
        agent_group = np.arange(N, dtype=np.int64)
    return AgentPopulation(groups=groups, agent_group=agent_group)


# -- coefficient tables -----------------------------------------------------


@dataclass
class MinorTables:
    """One group's coefficients: vectors per node, matrices per time level."""

    l: np.ndarray       # (num_nodes, n)
    sig0: np.ndarray    # (num_nodes, n, d0)
    cf: np.ndarray      # (K+1, n, n)
    hf: np.ndarray      # (num_nodes, n)
    cg_T: np.ndarray    # (n, n)
    hg_T: np.ndarray    # (terminal_nodes, n)
    xi: np.ndarray      # (n,) initial position


class MarketContext:
    """Model coefficients materialized on one lattice, cached per (bundle, atom)."""

    def __init__(self, spec: ModelSpec, lattice: NoiseLattice,
                 atoms: IdiosyncraticAtoms | None = None,
                 exo: ExogenousFields | None = None):
        spec.require_no_idiosyncratic_brownian()
        self.spec = spec
        self.lattice = lattice
        self.atoms = atoms if atoms is not None else idiosyncratic_atoms(spec, lattice.grid)
        self.exo = exo if exo is not None else evaluate_exogenous(lattice, spec)
        self._minor_cache: dict[tuple[int, int], MinorTables] = {}
        n, d0 = spec.dims.n, lattice.d0
        self.l0 = self._eval_levels(spec.major_flow.l0, None, (n,))
        self.s0 = self._eval_levels(spec.major_flow.s0, None, (n, d0))
        if spec.major_cost.affine:
            self.h0f = self._eval_levels(spec.major_cost.h0f, None, (n,))
            tsl = lattice.terminal_slice
            self.h0g_T = spec.major_cost.h0g.eval_nodes(lattice.grid.horizon,
                                                        self.exo.c0[tsl], np.zeros(n))
        else:
            self.h0f = None
            self.h0g_T = None

    def _eval_levels(self, coefficient, atom_index, shape) -> np.ndarray:
        lat, n = self.lattice, self.spec.dims.n
        out = np.zeros((lat.num_nodes,) + shape)
        for k in range(lat.steps + 1):
            sl = lat.level_slice(k)
            ci = (np.zeros(n) if atom_index is None
                  else self.atoms.ci[atom_index, k])
            vals = coefficient.eval_nodes(k * lat.dt, self.exo.c0[sl], ci)
            out[sl] = vals.reshape((sl.stop - sl.start,) + shape)
        return out

    def minor_tables(self, bundle_index: int, atom_index: int) -> MinorTables:
        key = (bundle_index, atom_index)
        if key not in self._minor_cache:
            spec, lat = self.spec, self.lattice
            n, d0 = spec.dims.n, lat.d0
            b = spec.minor[bundle_index]
            tsl = lat.terminal_slice
            T = lat.grid.horizon
            ci_T = self.atoms.ci[atom_index, lat.steps]
            self._minor_cache[key] = MinorTables(
                l=self._eval_levels(b.l, atom_index, (n,)),
                sig0=self._eval_levels(b.sigma0, atom_index, (n, d0)),
                cf=level_table(lat, b.cf),
                hf=self._eval_levels(b.hf, atom_index, (n,)),
                cg_T=np.array(b.cg.value_at_time(T), dtype=float),
                hg_T=b.hg.eval_nodes(T, self.exo.c0[tsl], ci_T).reshape(-1, n),
                xi=self.atoms.xi[atom_index],
            )
        return self._minor_cache[key]

    def group_tables(self, pop: AgentPopulation) -> list[MinorTables]:
        return [self.minor_tables(g.bundle_index, g.atom_index) for g in pop.groups]


# -- system builders --------------------------------------------------------


def _slices(names_dims: list[tuple[str, int]]) -> dict:
    out, off = {}, 0
    for name, dim in names_dims:
        out[name] = slice(off, off + dim)
        off += dim
    return out


def _kron(a: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Per-level Kronecker products: (A, B) x (L, n, n) -> (L, A n, B n)."""
    L, n, _ = blocks.shape
    return (a[None, :, None, :, None] * blocks[:, None, :, None, :]).reshape(L, len(a) * n, -1)


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    """Group blocks (..., G, n, n) -> block-diagonal matrices (..., G n, G n)."""
    *lead, G, n, _ = blocks.shape
    out = np.zeros((*lead, G, n, G, n))
    for g in range(G):
        out[..., g, :, g, :] = blocks[..., g, :, :]
    return out.reshape(*lead, G * n, G * n)


def _terminal_coupling(tabs: list[MinorTables], w: np.ndarray, ratio: float):
    """The clearing terminal map of the Y_g rows: cg_g X_g + ratio m(cg X) + hg_g + ratio m(hg).

    Returns its (G n, G n) block on the X columns and its constants on the leaves.
    """
    G = len(tabs)
    cg = np.stack([t.cg_T for t in tabs])
    n = cg.shape[1]
    block = np.zeros((G, n, G, n))
    block += ((ratio * w)[:, None, None] * cg).transpose(1, 0, 2)
    block = block.reshape(G * n, G * n)
    block += _block_diag(cg)
    mean_hg = ratio * sum(w[h] * t.hg_T for h, t in enumerate(tabs))
    return block, np.concatenate([t.hg_T + mean_hg for t in tabs], axis=1)


def _level_coeffs(Afb: np.ndarray, Bbf: np.ndarray, af, S, bb) -> LevelCoeffs:
    """One level's blocks with zero Aff and Bbb."""
    mf, mb = Afb.shape[1], Afb.shape[2]
    return LevelCoeffs(Aff=np.zeros((1, mf, mf)), Afb=Afb, af=af, S=S,
                       Bbf=Bbf, Bbb=np.zeros((1, mb, mb)), bb=bb)


def build_full_system(ctx: MarketContext, tabs: list[MinorTables],
                      w: np.ndarray) -> FbsdeSystem:
    """The six-block equilibrium system with the major flow eliminated inline.

    States per node: forward (x0, X_g, R_g), backward (p0, Y_g, P_g) for each
    agent group g with coefficient tables ``tabs[g]`` and population weight
    ``w[g]``.  The flow rule b = V0bar(-p0~ + m(Y~) + m(P~)) and the
    cross-group means are folded into the level-shared matrix blocks: b
    enters x0, X_g and R_g with signs (1, -1, 1), so

        Afb = kron(outer([1, -1_G, 1_G], [-1, w, w]), V0bar)
              -/+ kron(I - 1 w^T, lam^{-1})   on the X/Y and R/P blocks.
    """
    spec, lat = ctx.spec, ctx.lattice
    n = spec.dims.n
    G = len(tabs)
    K = lat.steps

    fsl = _slices([("x0", n)] + [(f"X{g}", n) for g in range(G)]
                  + [(f"R{g}", n) for g in range(G)])
    bsl = _slices([("p0", n)] + [(f"Y{g}", n) for g in range(G)]
                  + [(f"P{g}", n) for g in range(G)])
    mf = mb = (1 + 2 * G) * n
    # the X_g / Y_g and R_g / P_g states share their offsets
    XY, RP, top = slice(n, (1 + G) * n), slice((1 + G) * n, mf), slice(0, n)

    initial = np.zeros(mf)
    initial[top] = spec.chi0
    initial[XY] = np.concatenate([t.xi for t in tabs])

    affine_cost = spec.major_cost.affine

    signs = np.concatenate([[1.0], -np.ones(G), np.ones(G)])
    means = np.concatenate([[-1.0], w, w])
    Afb = np.zeros((K, mf, mb))  # summing onto +0.0 keeps zero entries unsigned
    Afb += _kron(np.outer(signs, means), ctx.exo.v0bar[:K])
    dev = _kron(np.eye(G) - w[None, :], ctx.exo.lam_inv[:K])
    Afb[:, XY, XY] -= dev
    Afb[:, RP, RP] += dev
    cf = np.stack([t.cf[:K] for t in tabs], axis=1)
    Bbf = np.zeros((K, mb, mf))
    Bbf[:, XY, XY] = _block_diag(cf)
    Bbf[:, RP, RP] = _block_diag(-cf)
    if affine_cost:
        Bbf[:, top, top] = spec.major_cost.c0f

    def coeffs(k: int) -> LevelCoeffs:
        sl = lat.level_slice(k)
        m = sl.stop - sl.start
        zero = np.zeros((m, G * n))
        af = np.concatenate([ctx.l0[sl], *(t.l[sl] for t in tabs), zero], axis=1)
        S = np.concatenate([ctx.s0[sl], *(t.sig0[sl] for t in tabs),
                            np.zeros((m, G * n, lat.d0))], axis=1)
        h0f = ctx.h0f[sl] if affine_cost else np.zeros((m, n))
        bb = np.concatenate([h0f, *(t.hf[sl] for t in tabs), zero], axis=1)
        return _level_coeffs(Afb[k:k + 1], Bbf[k:k + 1], af, S, bb)

    def terminal():
        tsl = lat.terminal_slice
        Gm = np.zeros((1, mb, mf))
        gv = np.zeros((lat.nodes_at(K), mb))
        if spec.maturity_mode:
            gv[:, top] = -ctx.exo.c0[tsl]
            gv[:, XY] = np.tile(-ctx.exo.c0[tsl], G)
            return Gm, gv
        ratio = spec.delta / (1.0 - spec.delta)
        if affine_cost:
            Gm[0, top, top] = spec.major_cost.c0g
            gv[:, top] = ctx.h0g_T
        Gm[0, XY, XY], gv[:, XY] = _terminal_coupling(tabs, w, ratio)
        cg = np.stack([t.cg_T for t in tabs])
        own = np.eye(G) + ratio * w[None, :]
        Gm[0, RP, RP] -= (own[:, None, :, None] * cg[:, :, None, :]).reshape(G * n, G * n)
        return Gm, gv

    driver_fn = terminal_fn = None
    if not affine_cost:
        def driver_fn(k, uf, ubt):
            sl = lat.level_slice(k)
            m = sl.stop - sl.start
            c = coeffs(k)
            base = (np.matmul(c.Bbf, uf[..., None])[..., 0]
                    + np.matmul(c.Bbb, ubt[..., None])[..., 0] + c.bb)
            t = k * lat.dt
            x0 = uf[:, top]
            grad = np.stack([spec.major_cost.dfdx(t, x0[i], ctx.exo.c0[sl][i])
                             for i in range(m)])
            base[:, top] = grad
            return base

        def terminal_fn(ufK):
            Gm, gv = terminal()
            out = np.matmul(Gm, ufK[..., None])[..., 0] + gv
            tsl = lat.terminal_slice
            x0 = ufK[:, top]
            out[:, top] = np.stack([
                spec.major_cost.dgdx(x0[i], ctx.exo.c0[tsl][i])
                for i in range(x0.shape[0])])
            return out

    return FbsdeSystem(lattice=lat, forward_slices=fsl, backward_slices=bsl,
                       initial=initial, coeffs=coeffs, terminal=terminal,
                       affine=affine_cost, driver_fn=driver_fn, terminal_fn=terminal_fn)


def _minor_system(ctx: MarketContext, tabs: list[MinorTables], Afb: np.ndarray,
                  af, terminal) -> FbsdeSystem:
    """A system of the groups' minor states (X_g forward, Y_g backward).

    ``Afb`` holds the level-shared fee blocks, ``af(sl)`` the forward drift on
    nodes ``sl`` and ``terminal()`` the terminal map outside maturity mode,
    where Y_g(T) = -c0(T); the running cost blocks cf_g sit on the Bbf diagonal.
    """
    lat, n = ctx.lattice, ctx.spec.dims.n
    G = len(tabs)
    Bbf = _block_diag(np.stack([t.cf[:lat.steps] for t in tabs], axis=1))

    def coeffs(k: int) -> LevelCoeffs:
        sl = lat.level_slice(k)
        S = np.concatenate([t.sig0[sl] for t in tabs], axis=1)
        bb = np.concatenate([t.hf[sl] for t in tabs], axis=1)
        return _level_coeffs(Afb[k:k + 1], Bbf[k:k + 1], af(sl), S, bb)

    def terminal_map():
        if ctx.spec.maturity_mode:
            return np.zeros((1, G * n, G * n)), np.tile(-ctx.exo.c0[lat.terminal_slice], G)
        return terminal()

    return FbsdeSystem(lattice=lat, forward_slices=_slices([(f"X{g}", n) for g in range(G)]),
                       backward_slices=_slices([(f"Y{g}", n) for g in range(G)]),
                       initial=np.concatenate([t.xi for t in tabs]),
                       coeffs=coeffs, terminal=terminal_map, affine=True)


def build_clearing_system(ctx: MarketContext, tabs: list[MinorTables], w: np.ndarray,
                          beta_norm: np.ndarray) -> FbsdeSystem:
    """The minor-clearing system with a given per-capita major flow b = beta/N.

    The flow enters only the constant drift terms, so systems for different
    flows share their matrix blocks (and hence one solver matrix pass).  The
    fee block is kron(I - 1 w^T, -lam^{-1}).
    """
    spec, lat = ctx.spec, ctx.lattice
    G = len(tabs)
    Afb = _kron(np.eye(G) - w[None, :], -ctx.exo.lam_inv[:lat.steps])

    def terminal():
        block, gv = _terminal_coupling(tabs, w, spec.delta / (1.0 - spec.delta))
        return block[None], gv

    return _minor_system(ctx, tabs, Afb, lambda sl: _clearing_drift(tabs, beta_norm, sl),
                         terminal)


def _clearing_drift(tabs: list[MinorTables], beta_norm: np.ndarray, sl) -> np.ndarray:
    """The clearing system's constant forward drift on nodes ``sl``: l_g - b per group."""
    return np.concatenate([t.l[sl] - beta_norm[sl] for t in tabs], axis=1)


def build_best_response_system(ctx: MarketContext, tabs: list[MinorTables],
                               price: np.ndarray) -> FbsdeSystem:
    """Independent per-group best responses to an exogenous adapted price field."""
    spec, lat = ctx.spec, ctx.lattice
    n = spec.dims.n
    G = len(tabs)
    K = lat.steps
    Afb = _block_diag(np.broadcast_to(-ctx.exo.lam_inv[:K, None], (K, G, n, n)))
    lam_phi = np.matmul(ctx.exo.lam_inv[lat.level_of], price[..., None])[..., 0]

    def af(sl):
        return np.concatenate([t.l[sl] - lam_phi[sl] for t in tabs], axis=1)

    def terminal():
        tsl = lat.terminal_slice
        return (_block_diag(np.stack([t.cg_T for t in tabs]))[None],
                np.concatenate([t.hg_T - spec.delta * price[tsl] for t in tabs], axis=1))

    return _minor_system(ctx, tabs, Afb, af, terminal)


# -- solution containers ----------------------------------------------------


@dataclass
class EquilibriumSolution:
    """Solved market: node fields, controls, the clearing price, diagnostics."""

    spec: ModelSpec
    lattice: NoiseLattice
    population: AgentPopulation
    solution: NodeSolution
    price: NodeField
    beta_hat: NodeField          # unnormalized major flow N*b, zero on terminal nodes
    beta_norm: NodeField         # per-capita flow b
    alpha_hat: list[np.ndarray]  # one (num_nodes, n) array per agent group
    clearing_residual: float
    x0: np.ndarray | None = None  # normalized major position when not part of the system

    @property
    def diagnostics(self):
        return self.solution.diagnostics

    def group_field(self, name: str, g: int) -> np.ndarray:
        return self.solution.field(f"{name}{g}")

    def major_field(self, name: str) -> np.ndarray:
        if name == "x0" and self.x0 is not None:
            return self.x0
        return self.solution.field(name)

    def major_position_raw(self) -> np.ndarray:
        """Unnormalized major position N * x0."""
        return self.population.N * self.major_field("x0")

    def has_major(self) -> bool:
        return "p0" in self.solution.system.backward_slices


def _group_means(sol: NodeSolution, w: np.ndarray, prefix: str,
                 pre: bool = False) -> np.ndarray:
    acc = None
    for g in range(len(w)):
        vals = sol.pre(f"{prefix}{g}") if pre else sol.field(f"{prefix}{g}")
        acc = w[g] * vals if acc is None else acc + w[g] * vals
    return acc


def _price_from_clearing(ctx: MarketContext, w: np.ndarray, sol: NodeSolution,
                         beta_norm: np.ndarray) -> np.ndarray:
    lat = ctx.lattice
    mean_pre = _group_means(sol, w, "Y", pre=True)
    phi = -mean_pre + np.matmul(ctx.exo.lam[lat.level_of], beta_norm[..., None])[..., 0]
    tsl = lat.terminal_slice
    phi[tsl] = -_group_means(sol, w, "Y")[tsl]
    return phi


def _flow_and_price(ctx: MarketContext, w: np.ndarray, sol: NodeSolution):
    """Per-capita optimal flow b and clearing price of a solved full system.

    See ``solve_full_equilibrium`` for the read-off formulas.
    """
    mean_y_pre = _group_means(sol, w, "Y", pre=True)
    mean_p_pre = _group_means(sol, w, "P", pre=True)
    v0bar = ctx.exo.v0bar[ctx.lattice.level_of]
    b = np.matmul(v0bar, (-sol.pre("p0") + mean_y_pre + mean_p_pre)[..., None])[..., 0]
    b[ctx.lattice.terminal_slice] = 0.0
    return b, _price_from_clearing(ctx, w, sol, b)


def _alpha_hats(ctx: MarketContext, pop: AgentPopulation, sol: NodeSolution,
                phi: np.ndarray) -> list[np.ndarray]:
    lat = ctx.lattice
    lam_inv = ctx.exo.lam_inv[lat.level_of]
    out = []
    for g in range(pop.size):
        ypre = sol.pre(f"Y{g}").copy()
        tsl = lat.terminal_slice
        ypre[tsl] = sol.field(f"Y{g}")[tsl]
        out.append(-np.matmul(lam_inv, (ypre + phi)[..., None])[..., 0])
    return out


def clearing_residual(solution: EquilibriumSolution) -> float:
    """Max over non-terminal nodes of |sum_i alpha_i + beta|."""
    lat = solution.lattice
    total = sum(grp.count * solution.alpha_hat[g]
                for g, grp in enumerate(solution.population.groups))
    gap = total + solution.beta_hat.values
    interior = gap[:lat.level_range(lat.steps)[0]]
    return float(np.max(np.abs(interior), initial=0.0))


def integrate_forward(lattice: NoiseLattice, x0, drift: np.ndarray,
                      loading: np.ndarray) -> np.ndarray:
    """Forward-integrate a position from ``x0`` under a given drift and noise loading."""
    x = np.zeros((lattice.num_nodes, len(x0)))
    x[0] = x0
    for k in range(lattice.steps):
        sl = lattice.level_slice(k)
        csl = lattice.level_slice(k + 1)
        base = lattice.repeat_to_children(x[sl] + lattice.dt * drift[sl])
        S_child = np.repeat(loading[sl], lattice.fanout, axis=0)
        x[csl] = base + np.matmul(S_child, lattice.dW[csl][..., None])[..., 0]
    return x


def _run_checks(spec, force, minor_only=False):
    from .model import check_minor_assumptions
    report = (check_minor_assumptions(spec) if minor_only
              else check_all_assumptions(spec))
    if not report.all_passed and not force:
        raise AssumptionViolationError(
            "standing assumptions fail: " + "; ".join(report.failures))
    return report


def _solve_system(system: FbsdeSystem, method: str, **solver_kw) -> NodeSolution:
    if method == "direct":
        if not system.affine:
            raise UnsupportedModelError(
                "general (non-affine) major cost gradients need method='picard'")
        return solve_direct(system)
    return solve_picard(system, **solver_kw)


def _validate_beta(spec: ModelSpec, lattice: NoiseLattice, beta: NodeField):
    if beta.values.shape != (lattice.num_nodes, spec.dims.n):
        raise ValidationError("beta must be an n-vector node field on this lattice")
    if not spec.maturity_mode:
        term = beta.values[lattice.terminal_slice]
        if np.max(np.abs(term), initial=0.0) > 1e-14:
            raise ValidationError("beta must vanish on terminal nodes (no last-instant flow)")


def minor_best_response(spec: ModelSpec, lattice: NoiseLattice, price: NodeField,
                        population: AgentPopulation | None = None, *,
                        ctx: MarketContext | None = None, method: str = "direct",
                        **solver_kw):
    """Per-agent optimal responses to an exogenous adapted price field.

    Returns the solved node system together with the trading rates
    alpha_g = -lam^{-1}(Y~_g + price).
    """
    ctx = ctx if ctx is not None else MarketContext(spec, lattice)
    pop = population if population is not None else make_population(spec, ctx.atoms)
    system = build_best_response_system(ctx, ctx.group_tables(pop), price.values)
    sol = _solve_system(system, method, **solver_kw)
    alpha = _alpha_hats(ctx, pop, sol, price.values)
    return BestResponse(spec=spec, lattice=lattice, population=pop, solution=sol,
                        price=price, alpha_hat=alpha)


@dataclass
class BestResponse:
    spec: ModelSpec
    lattice: NoiseLattice
    population: AgentPopulation
    solution: NodeSolution
    price: NodeField
    alpha_hat: list[np.ndarray]

    def group_field(self, name: str, g: int) -> np.ndarray:
        return self.solution.field(f"{name}{g}")


def solve_minor_clearing(spec: ModelSpec, lattice: NoiseLattice, beta: NodeField,
                         population: AgentPopulation | None = None, *,
                         ctx: MarketContext | None = None, method: str = "direct",
                         check: bool = True, force: bool = False,
                         **solver_kw) -> EquilibriumSolution:
    """Clear the market for a given major flow (no major optimization).

    ``beta`` is the unnormalized flow of the major trader; the induced price
    is  -m(Y~) + lam * beta/N  on interior nodes and -m(Y) at the horizon.
    """
    ctx = ctx if ctx is not None else MarketContext(spec, lattice)
    pop = population if population is not None else make_population(spec, ctx.atoms)
    _validate_beta(spec, lattice, beta)
    if check:
        _run_checks(spec, force, minor_only=True)
    beta_norm = beta.values / pop.N
    system = build_clearing_system(ctx, ctx.group_tables(pop), pop.weights, beta_norm)
    sol = _solve_system(system, method, **solver_kw)
    phi = _price_from_clearing(ctx, pop.weights, sol, beta_norm)
    alpha = _alpha_hats(ctx, pop, sol, phi)
    eq = EquilibriumSolution(
        spec=spec, lattice=lattice, population=pop, solution=sol,
        price=NodeField(lattice, phi),
        beta_hat=NodeField(lattice, beta.values.copy()),
        beta_norm=NodeField(lattice, beta_norm.copy()),
        alpha_hat=alpha, clearing_residual=0.0,
        x0=integrate_forward(lattice, spec.chi0, beta_norm + ctx.l0, ctx.s0))
    eq.clearing_residual = clearing_residual(eq)
    return eq


def solve_full_equilibrium(spec: ModelSpec, lattice: NoiseLattice,
                           population: AgentPopulation | None = None, *,
                           ctx: MarketContext | None = None, method: str = "direct",
                           check: bool = True, force: bool = False,
                           **solver_kw) -> EquilibriumSolution:
    """Solve the coupled market with the major trader's flow chosen optimally.

    The optimal flow and the clearing price are read off the solved node
    fields through the pre-driver conditional expectations:

        b   = V0bar (-p0~ + m(Y~) + m(P~)),     beta = N b,  beta(T) = 0
        phi = -m(Y~) + lam b                     (and -m(Y) at the horizon).
    """
    ctx = ctx if ctx is not None else MarketContext(spec, lattice)
    pop = population if population is not None else make_population(spec, ctx.atoms)
    if check:
        _run_checks(spec, force)
    sol = _solve_system(build_full_system(ctx, ctx.group_tables(pop), pop.weights),
                        method, **solver_kw)
    b, phi = _flow_and_price(ctx, pop.weights, sol)
    alpha = _alpha_hats(ctx, pop, sol, phi)
    eq = EquilibriumSolution(
        spec=spec, lattice=lattice, population=pop, solution=sol,
        price=NodeField(lattice, phi),
        beta_hat=NodeField(lattice, pop.N * b),
        beta_norm=NodeField(lattice, b),
        alpha_hat=alpha, clearing_residual=0.0)
    eq.clearing_residual = clearing_residual(eq)
    return eq


class ClearingOperator:
    """Re-solves the minor clearing system across candidate major flows.

    The groups are given by their coefficient tables and population weights,
    as for ``build_clearing_system``.  The flow enters the clearing system
    only through its forward drift ``af = l - b``, so the other level blocks
    and the terminal map are built once, made read-only, and shared by every
    flow, as is the solver's matrix pass; each call makes only the new ``af``,
    integrates it by vector passes (residual check included) and returns the
    induced price field alongside the solved minor states.
    """

    def __init__(self, ctx: MarketContext, tabs: list[MinorTables], w: np.ndarray):
        self.ctx, self.tabs, self.w = ctx, tabs, w
        lat = ctx.lattice
        base = build_clearing_system(ctx, tabs, w, np.zeros((lat.num_nodes, ctx.spec.dims.n)))
        mf, mb = base.mf, base.mb
        # the sweep's storage plus the kept level Bbf and node S and bb, before any level is built
        check_factor_budget(sweep_floats(lat, mf, mb) + lat.steps * mb * mf
                            + lat.num_nodes * (mf * lat.d0 + mb))
        levels = [base.coeffs(k) for k in range(lat.steps)]
        terminal = base.terminal()
        for arr in (*terminal, *(getattr(c, f.name) for c in levels for f in fields(c))):
            arr.flags.writeable = False
        self._base = replace(base, coeffs=levels.__getitem__, terminal=lambda: terminal)
        self._levels = levels
        self._solver = DirectSolver(self._base)

    def system(self, beta_norm: np.ndarray) -> FbsdeSystem:
        """The clearing system for flow ``beta_norm`` on the shared blocks."""
        lat = self.ctx.lattice
        af = _clearing_drift(self.tabs, beta_norm, slice(None))
        levels = [replace(c, af=af[lat.level_slice(k)]) for k, c in enumerate(self._levels)]
        return replace(self._base, coeffs=levels.__getitem__)

    def solve(self, beta_norm: np.ndarray):
        sol = self._solver.solve(self.system(beta_norm))
        phi = _price_from_clearing(self.ctx, self.w, sol, beta_norm)
        return sol, phi
