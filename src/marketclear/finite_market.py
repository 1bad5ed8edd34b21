"""Finite-population markets on cost classes: best response, clearing, full equilibrium.

Internally every quantity is normalized: the major state is x0 = X0/N and the
major flow is b = beta/N, so the population-size limit needs no rescaling.
Identical minor agents are collapsed into weighted groups; the collapse is
exact because agents with the same coefficients and the same atom draw
satisfy identical equations.

Every market is solved on cost classes, the groups with equal cf and cg
(``cost_classes``).  Groups couple only through the price, the major flow
and the terminal map's mean term, which read group means only, so the class
means solve the system of the classes: the coupled one, or the best response
to a given price.  A group's deviation from its class mean has no price or
flow term (``build_deviation_system``), so each class's groups are one
family; their R/P deviations have no source and vanish.  ``ClassSolution``
holds the class solve, its families and the price, and reads a group's
fields and the lattice off them.  An equilibrium is the best response to its
clearing price plus the major flow.  The population limit (``mean_field``)
is the same path on the atoms.

A market is one ``MarketContext``: the model's coefficients on one lattice.
``make_population`` and every solver take it first, and read the model and
the lattice from it alone; a price or flow handed to a solver must be an
(nodes, n) field of its lattice (``ValidationError`` otherwise).  Building
the context runs the standing-assumption checks, so no solver runs them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import numpy as np

from .errors import AssumptionViolationError, SolverError, ValidationError
from .fbsde import (DirectSolver, FamilySolution, FbsdeSystem, SolveDiagnostics,
                    check_factor_budget, residual, sweep_floats)
from .model import ModelSpec, check_all_assumptions, secant_curvatures
from .scenario import (NodeField, NoiseLattice, apply_block, evaluate_exogenous,
                       idiosyncratic_atoms, level_table, sample_idiosyncratic)


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


def make_population(ctx: MarketContext, N: int | None = None, seed: int = 0,
                    assignments: np.ndarray | None = None) -> AgentPopulation:
    """Draw (or accept) the agents' atom assignments in ``ctx`` and collapse identical agents.

    Homogeneous specs collapse agents by atom; heterogeneous specs keep one
    group per agent since their coefficient bundles differ.
    """
    spec, A = ctx.spec, ctx.atoms.count
    N = N if N is not None else spec.dims.N
    if N < 1:
        raise ValidationError(f"a market needs at least one agent, got {N}")
    if not spec.homogeneous and N != len(spec.minor):
        raise ValidationError(
            f"the model gives each of its {len(spec.minor)} agents its own coefficient "
            f"bundle, so its market has {len(spec.minor)} agents, not {N}")
    if assignments is None:
        assignments = sample_idiosyncratic(ctx.atoms, N, seed)
    assignments = np.asarray(assignments, dtype=np.int64)
    if len(assignments) != N:
        raise ValidationError("one atom assignment per agent is required")
    if not 0 <= assignments.min() <= assignments.max() < A:
        i = int(np.argmax((assignments < 0) | (assignments >= A)))
        raise ValidationError(f"agent {i} is assigned atom {assignments[i]}, outside [0, {A})")
    if spec.homogeneous:
        drawn, first, inverse, counts = np.unique(assignments, return_index=True,
                                                  return_inverse=True, return_counts=True)
        order = np.argsort(first)  # groups in order of first appearance
        groups = [AgentGroup(0, int(drawn[i]), int(counts[i])) for i in order]
        agent_group = np.argsort(order)[inverse].astype(np.int64)
    else:
        groups = [AgentGroup(i, int(assignments[i]), 1) for i in range(N)]
        agent_group = np.arange(N, dtype=np.int64)
    return AgentPopulation(groups=groups, agent_group=agent_group)


# -- coefficient tables -----------------------------------------------------


@dataclass
class MinorTables:
    """One group's coefficients: vectors per node, matrices per time level.

    ``cg_T`` and ``hg_T`` are the terminal cost's curvature and gradient
    offset on the leaves as ``MarketContext`` decides them: zero and -c0(T)
    in maturity mode.  ``stack_tables`` makes the tables of a group across
    several flows: its node tables carry a flow axis after the node axis and
    ``xi`` is (B, n).
    """

    l: np.ndarray       # (num_nodes, n)
    sig0: np.ndarray    # (num_nodes, n, d0)
    cf: np.ndarray      # (K+1, n, n)
    hf: np.ndarray      # (num_nodes, n)
    cg_T: np.ndarray    # (n, n)
    hg_T: np.ndarray    # (terminal_nodes, n)
    xi: np.ndarray      # (n,) initial position


class MarketContext:
    """Model coefficients materialized on one lattice, cached per (bundle, atom).

    Unless ``force``, building one runs ``check_all_assumptions`` and raises a
    failure as ``AssumptionViolationError`` with the report as ``report``.

    The terminal regime and the major cost's form are decided here, once;
    the system builders and the cost functionals read these tables only.

    - ``delta`` is the terminal price discount of the minor terminal costs.
    - ``c0f`` and ``c0g`` are the major cost's running and terminal
      curvatures, ``h0f`` (nodes, n) and ``h0g_T`` (leaves, n) its gradient
      offsets.  A ``CallableMajorCost`` holds its affine twin: curvatures
      ``secant_curvatures`` times I and zero offsets, which the solve of the
      full market sets from its iterates.
    - In maturity mode every security pays c0(T) at the horizon, so every
      terminal cost is -<c0(T), x_T>: ``delta``, ``c0g`` and every group's
      ``cg_T`` are zero, and ``h0g_T`` and every group's ``hg_T`` are -c0(T).
    """

    def __init__(self, spec: ModelSpec, lattice: NoiseLattice, *, force: bool = False):
        if not force:
            report = check_all_assumptions(spec)
            if not report.all_passed:
                raise AssumptionViolationError(
                    "standing assumptions fail: " + "; ".join(report.failures), report)
        spec.require_no_idiosyncratic_brownian()
        self.spec = spec
        self.lattice = lattice
        self.atoms = idiosyncratic_atoms(spec)
        self.exo = evaluate_exogenous(lattice, spec)
        self._minor_cache: dict[tuple[int, int], MinorTables] = {}
        n, d0 = spec.dims.n, lattice.d0
        tsl = lattice.terminal_slice
        self.l0 = self._eval_levels(spec.major_flow.l0, None, (n,))
        self.s0 = self._eval_levels(spec.major_flow.s0, None, (n, d0))
        cost = spec.major_cost
        if cost.affine:
            self.c0f, self.c0g = cost.c0f, cost.c0g
            self.h0f = self._eval_levels(cost.h0f, None, (n,))
            self.h0g_T = cost.h0g.eval_nodes(lattice.grid.horizon, self.exo.c0[tsl], np.zeros(n))
        else:
            cbar, gbar = secant_curvatures(spec)
            self.c0f, self.c0g = cbar * np.eye(n), gbar * np.eye(n)
            self.h0f = np.zeros((lattice.num_nodes, n))
            self.h0g_T = np.zeros((lattice.nodes_at(lattice.steps), n))
        self.delta = spec.delta
        if spec.maturity_mode:
            self.delta, self.c0g, self.h0g_T = 0.0, np.zeros((n, n)), -self.exo.c0[tsl]

    def _eval_levels(self, coefficient, atom_index, shape) -> np.ndarray:
        lat, n = self.lattice, self.spec.dims.n
        if coefficient.kind != "affine":  # one value per level, whatever the node and atom
            return level_table(lat, coefficient)[lat.level_of]
        out = np.zeros((lat.num_nodes,) + shape)
        ci = np.zeros(n) if atom_index is None else self.atoms.ci[atom_index]
        for k in range(lat.steps + 1):
            sl = lat.level_slice(k)
            vals = coefficient.eval_nodes(k * lat.dt, self.exo.c0[sl], ci)
            out[sl] = vals.reshape((sl.stop - sl.start,) + shape)
        return out

    def minor_tables(self, bundle_index: int, atom_index: int) -> MinorTables:
        """Bundle ``bundle_index``'s tables at atom ``atom_index``; a bad index is refused."""
        key = (bundle_index, atom_index)
        if key not in self._minor_cache:
            spec, lat = self.spec, self.lattice
            for name, index, count in (("bundle", bundle_index, len(spec.minor)),
                                       ("atom", atom_index, self.atoms.count)):
                if not 0 <= index < count:
                    raise ValidationError(f"{name} index {index} is outside [0, {count})")
            n, d0 = spec.dims.n, lat.d0
            b = spec.minor[bundle_index]
            T = lat.grid.horizon
            if spec.maturity_mode:  # every group shares the major's -c0(T)
                cg_T, hg_T = np.zeros((n, n)), self.h0g_T
            else:
                cg_T = np.array(b.cg.value_at_time(T), dtype=float)
                hg_T = b.hg.eval_nodes(T, self.exo.c0[lat.terminal_slice],
                                       self.atoms.ci[atom_index]).reshape(-1, n)
            self._minor_cache[key] = MinorTables(
                l=self._eval_levels(b.l, atom_index, (n,)),
                sig0=self._eval_levels(b.sigma0, atom_index, (n, d0)),
                cf=level_table(lat, b.cf), hf=self._eval_levels(b.hf, atom_index, (n,)),
                cg_T=cg_T, hg_T=hg_T, xi=self.atoms.xi[atom_index])
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

    ``ratio`` is delta / (1 - delta).  Returns the map's (G n, G n) block on
    the X columns and its constants on the leaves, (L, B|1, G n).
    """
    G = len(tabs)
    cg = np.stack([t.cg_T for t in tabs])
    n = cg.shape[1]
    block = np.zeros((G, n, G, n))
    block += ((ratio * w)[:, None, None] * cg).transpose(1, 0, 2)
    block = block.reshape(G * n, G * n)
    block += _block_diag(cg)
    mean_hg = ratio * sum(w[h] * t.hg_T for h, t in enumerate(tabs))
    return block, _columns([t.hg_T + mean_hg for t in tabs])


def _columns(parts: list, trailing: tuple = ()) -> np.ndarray:
    """Node-array parts side by side on the state axis, with a flow axis after the node axis.

    Each part is (nodes, d, *trailing), shared by every flow, or
    (nodes, B, d, *trailing); the result is (nodes, B|1, sum d, *trailing).
    """
    parts = [p[:, None] if p.ndim == 2 + len(trailing) else p for p in parts]
    B = max(p.shape[1] for p in parts)
    return np.concatenate([np.broadcast_to(p, p.shape[:1] + (B,) + p.shape[2:])
                           for p in parts], axis=2)


def stack_tables(tabs: list[MinorTables]) -> MinorTables:
    """One group's tables across B flows, one flow per entry of ``tabs``, for a family.

    The node tables gain a flow axis after the node axis and ``xi`` becomes
    (B, n); ``cf`` and ``cg_T`` are the first entry's, so the entries must
    share them, as the groups of one cost class do.
    """
    stack = lambda pick: np.stack([pick(t) for t in tabs], axis=1)
    return MinorTables(l=stack(lambda t: t.l), sig0=stack(lambda t: t.sig0), cf=tabs[0].cf,
                       hf=stack(lambda t: t.hf), cg_T=tabs[0].cg_T,
                       hg_T=stack(lambda t: t.hg_T), xi=np.stack([t.xi for t in tabs]))


@dataclass
class CostClasses:
    """Agent groups partitioned into cost classes: groups with equal cf tables and cg_T."""

    groups: list[MinorTables]
    tables: list[MinorTables]      # per class: the weight-averaged tables of its groups
    weights: np.ndarray            # per class: its population weight
    members: list[list[int]]       # per class: its groups, in population order
    place: list[tuple[int, int]]   # per group: its class and its index among the members


def cost_classes(tabs: list[MinorTables], w: np.ndarray) -> CostClasses:
    """The cost classes of groups with tables ``tabs`` and population weights ``w``, in order."""
    index: dict[bytes, list[int]] = {}
    for g, t in enumerate(tabs):
        index.setdefault(t.cf.tobytes() + t.cg_T.tobytes(), []).append(g)
    members = list(index.values())
    place = sorted((g, (c, j)) for c, group in enumerate(members) for j, g in enumerate(group))
    tables, weights = [], np.array([w[group].sum() for group in members])
    for group, W in zip(members, weights):
        v = w[group] / W

        def mix(pick):
            parts = [pick(tabs[g]) for g in group]
            if all(np.array_equal(p, parts[0]) for p in parts[1:]):  # equal: kept exactly
                return parts[0]
            return sum(v[i] * p for i, p in enumerate(parts))

        tables.append(tabs[group[0]] if len(group) == 1 else replace(  # one group: its own
            tabs[group[0]], l=mix(lambda t: t.l), sig0=mix(lambda t: t.sig0),
            hf=mix(lambda t: t.hf), hg_T=mix(lambda t: t.hg_T),
            xi=(v[:, None] * np.stack([tabs[g].xi for g in group])).sum(axis=0)))
    return CostClasses(groups=tabs, tables=tables, weights=weights, members=members,
                       place=[cj for _, cj in place])


def build_full_system(ctx: MarketContext, tabs: list[MinorTables],
                      w: np.ndarray) -> FbsdeSystem:
    """The six-block equilibrium system with the major flow eliminated inline.

    States per node: forward (x0, X_g, R_g), backward (p0, Y_g, P_g) for each
    agent group g with coefficient tables ``tabs[g]`` and population weight
    ``w[g]``.  The flow rule b = V0bar(-p0~ + m(Y~) + m(P~)) and the
    cross-group means are folded into the level tables: b enters x0, X_g
    and R_g with signs (1, -1, 1), so

        Afb = kron(outer([1, -1_G, 1_G], [-1, w, w]), V0bar)
              -/+ kron(I - 1 w^T, lam^{-1})   on the X/Y and R/P blocks.

    Groups whose tables carry a flow axis (``stack_tables``) make a family.
    The major cost's rows read ``ctx``'s tables (a ``CallableMajorCost``'s
    affine twin, whose intercepts ``_solve_full_system`` sets from its
    iterates).
    """
    spec, lat = ctx.spec, ctx.lattice
    n = spec.dims.n
    G = len(tabs)
    K = lat.steps
    I, L = lat.level_range(K)[0], lat.nodes_at(K)

    fsl = _slices([("x0", n)] + [(f"X{g}", n) for g in range(G)]
                  + [(f"R{g}", n) for g in range(G)])
    bsl = _slices([("p0", n)] + [(f"Y{g}", n) for g in range(G)]
                  + [(f"P{g}", n) for g in range(G)])
    mf = mb = (1 + 2 * G) * n
    # the X_g / Y_g and R_g / P_g states share their offsets
    XY, RP, top = slice(n, (1 + G) * n), slice((1 + G) * n, mf), slice(0, n)

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
    Bbf[:, top, top] = ctx.c0f

    zero = np.zeros((I, G * n))
    af = _columns([ctx.l0[:I], *(t.l[:I] for t in tabs), zero])
    S = _columns([ctx.s0[:I], *(t.sig0[:I] for t in tabs), np.zeros((I, G * n, lat.d0))],
                 (lat.d0,))
    bb = _columns([ctx.h0f[:I], *(t.hf[:I] for t in tabs), zero])
    initial = _columns([spec.chi0[None], *(t.xi[None] for t in tabs), np.zeros((1, G * n))])

    ratio = ctx.delta / (1.0 - ctx.delta)
    Gm = np.zeros((mb, mf))
    Gm[top, top] = ctx.c0g
    Gm[XY, XY], g_XY = _terminal_coupling(tabs, w, ratio)
    cg = np.stack([t.cg_T for t in tabs])
    own = np.eye(G) + ratio * w[None, :]
    Gm[RP, RP] -= (own[:, None, :, None] * cg[:, :, None, :]).reshape(G * n, G * n)
    gv = _columns([ctx.h0g_T, g_XY, np.zeros((L, G * n))])

    return FbsdeSystem(lattice=lat, forward_slices=fsl, backward_slices=bsl,
                       Afb=Afb, Bbf=Bbf, G=Gm,
                       initial=initial, af=af, S=S, bb=bb, g=gv)


def _minor_system(ctx: MarketContext, tabs: list[MinorTables], Afb: np.ndarray,
                  af: np.ndarray, Gm: np.ndarray, gv: np.ndarray) -> FbsdeSystem:
    """A system of the groups' minor states (X_g forward, Y_g backward).

    ``Afb`` holds the fee blocks per level, ``af`` the forward drift on the
    non-terminal nodes, and ``Gm`` (G n, G n) and ``gv`` (leaves, B|1, G n)
    the terminal map Y(T) = Gm X(T) + gv; the running cost blocks cf_g sit
    on the Bbf diagonal.
    """
    lat, n = ctx.lattice, ctx.spec.dims.n
    G = len(tabs)
    K = lat.steps
    I = lat.level_range(K)[0]
    return FbsdeSystem(lattice=lat, forward_slices=_slices([(f"X{g}", n) for g in range(G)]),
                       backward_slices=_slices([(f"Y{g}", n) for g in range(G)]),
                       Afb=Afb, Bbf=_block_diag(np.stack([t.cf[:K] for t in tabs], axis=1)),
                       G=Gm, initial=_columns([t.xi[None] for t in tabs]), af=af,
                       S=_columns([t.sig0[:I] for t in tabs], (lat.d0,)),
                       bb=_columns([t.hf[:I] for t in tabs]), g=gv)


def build_clearing_system(ctx: MarketContext, tabs: list[MinorTables], w: np.ndarray,
                          beta_norm: np.ndarray) -> FbsdeSystem:
    """The minor-clearing system with a given per-capita major flow b = beta/N.

    ``beta_norm`` is one (nodes, n) flow or a (B, nodes, n) stack, which
    makes a family of B systems.  The flow enters only the forward drift
    l_g - b, so the flows share every block (and hence one solver matrix
    pass).  The fee block is kron(I - 1 w^T, -lam^{-1}).
    """
    lat = ctx.lattice
    G = len(tabs)
    I = lat.level_range(lat.steps)[0]
    Afb = _kron(np.eye(G) - w[None, :], -ctx.exo.lam_inv[:lat.steps])
    l = _columns([t.l[:I] for t in tabs])
    return _minor_system(ctx, tabs, Afb, _minus_flow(l, beta_norm),
                         *_terminal_coupling(tabs, w, ctx.delta / (1.0 - ctx.delta)))


def _minus_flow(l: np.ndarray, beta_norm: np.ndarray) -> np.ndarray:
    """The clearing drift l_g - b of every group and flow, in one broadcast.

    ``l`` is the groups' (I, 1, G n) drift on the I non-terminal nodes and
    ``beta_norm`` one (nodes, n) flow or a (B, nodes, n) stack; the result
    is (I, B, G n).
    """
    I, _, Gn = l.shape
    n = beta_norm.shape[-1]
    b = np.moveaxis(beta_norm.reshape((-1,) + beta_norm.shape[-2:])[:, :I], 0, 1)
    return (l.reshape(I, 1, Gn // n, n) - b[:, :, None, :]).reshape(I, b.shape[1], Gn)


def build_best_response_system(ctx: MarketContext, tabs: list[MinorTables],
                               price: np.ndarray) -> FbsdeSystem:
    """Independent best responses of groups or cost classes to an adapted price field."""
    lat = ctx.lattice
    n = ctx.spec.dims.n
    G = len(tabs)
    K = lat.steps
    I, tsl = lat.level_range(K)[0], lat.terminal_slice
    Afb = _block_diag(np.broadcast_to(-ctx.exo.lam_inv[:K, None], (K, G, n, n)))
    lam_phi = lat.apply_levels(ctx.exo.lam_inv, price)
    return _minor_system(ctx, tabs, Afb, _columns([t.l[:I] - lam_phi[:I] for t in tabs]),
                         _block_diag(np.stack([t.cg_T for t in tabs])),
                         _columns([t.hg_T - ctx.delta * price[tsl] for t in tabs]))


def build_deviation_system(ctx: MarketContext, tabs: list[MinorTables],
                           mean: MinorTables) -> FbsdeSystem:
    """Deviations (dx, dy) = (X_g - Xbar, Y_g - Ybar) of one class's groups, one flow each.

    The drift is -lam^{-1} dy~ + dl and the terminal map cg dx + dhg, d
    marking a coefficient's deviation from ``mean``'s.  The blocks
    (-lam^{-1}, cf, cg) are the class's, so the groups are one family.
    """
    lat, n = ctx.lattice, ctx.spec.dims.n
    K = lat.steps
    I = lat.level_range(K)[0]
    tab = stack_tables(tabs)
    return FbsdeSystem(lattice=lat, forward_slices={"dx": slice(0, n)},
                       backward_slices={"dy": slice(0, n)},
                       Afb=-ctx.exo.lam_inv[:K], Bbf=tab.cf[:K], G=tab.cg_T,
                       initial=(tab.xi - mean.xi)[None],
                       af=tab.l[:I] - mean.l[:I, None], S=tab.sig0[:I] - mean.sig0[:I, None],
                       bb=tab.hf[:I] - mean.hf[:I, None], g=tab.hg_T - mean.hg_T[:, None])


# -- solution containers ----------------------------------------------------


def solve_deviations(ctx: MarketContext, classes: CostClasses) -> list[FamilySolution | None]:
    """Per class: its groups' solved deviation family, or None for a class of one group."""
    return [DirectSolver(build_deviation_system(ctx, [classes.groups[g] for g in group],
                                                classes.tables[c])).solve()
            if len(group) > 1 else None
            for c, group in enumerate(classes.members)]


@dataclass
class ClassSolution:
    """A market solved on cost classes: the classes' system, their deviation families, the price.

    A group's X and Y are its class's mean plus its deviation; its R and P
    are the class's, their deviations having no source.
    """

    solution: FamilySolution                 # system of the cost classes, one flow
    classes: CostClasses
    deviations: list[FamilySolution | None]  # per class, as ``solve_deviations``
    price: NodeField

    @property
    def lattice(self) -> NoiseLattice:
        return self.solution.system.lattice

    @property
    def diagnostics(self) -> SolveDiagnostics:
        """The class solve's diagnostics, its residuals the worst of it and every family."""
        every = [d for f in (self.solution, *self.deviations) if f is not None
                 for d in f.diagnostics]
        return replace(self.solution.diagnostics[0], **{
            key: max(getattr(d, key) for d in every)
            for key in ("max_equation_residual", "terminal_mismatch")})

    def group_field(self, name: str, g: int) -> np.ndarray:
        """Group g's field X, Y, R or P."""
        return self._member(FamilySolution.field, name, g)

    def group_pre(self, name: str, g: int) -> np.ndarray:
        """Group g's pre-driver values of Y or P (the values themselves on the leaves)."""
        return self._member(FamilySolution.pre, name, g)

    def _member(self, read, name: str, g: int) -> np.ndarray:
        c, j = self.classes.place[g]
        mean = read(self.solution, f"{name}{c}")
        if self.deviations[c] is None or name not in ("X", "Y"):
            return mean
        return mean + read(self.deviations[c], "d" + name.lower(), j)


@dataclass
class BestResponse(ClassSolution):
    """Price-taking responses: the cost classes' solve, the price and the trading rates."""

    population: AgentPopulation
    alpha_hat: list[np.ndarray]  # one (num_nodes, n) array per agent group


@dataclass
class EquilibriumSolution(BestResponse):
    """Solved market: every group's best response to the clearing price, and the major flow."""

    beta_hat: NodeField          # unnormalized major flow N*b, zero on terminal nodes
    beta_norm: NodeField         # per-capita flow b
    clearing_residual: float
    x0: np.ndarray               # normalized major position

    def major_field(self, name: str) -> np.ndarray:
        return self.x0 if name == "x0" else self.solution.field(name)

    def has_major(self) -> bool:
        return "p0" in self.solution.system.backward_slices


def _group_means(family: FamilySolution, w: np.ndarray, prefix: str, pre: bool = False,
                 rows: slice = slice(None)) -> np.ndarray:
    """sum_g w_g field_g over the family's agent groups, on ``rows``: (nodes, B, n)."""
    states = family.backward_pre if pre else family.backward
    slices = family.system.backward_slices
    acc = None
    for g in range(len(w)):
        vals = states[rows, :, slices[f"{prefix}{g}"]]
        acc = w[g] * vals if acc is None else acc + w[g] * vals
    return acc


def _price_from_clearing(ctx: MarketContext, w: np.ndarray, family: FamilySolution,
                         beta_norm: np.ndarray) -> np.ndarray:
    """Clearing prices of a family's B solutions under its (nodes, B, n) flows: (nodes, B, n)."""
    lat = ctx.lattice
    phi = lat.apply_levels(ctx.exo.lam, beta_norm)
    phi -= _group_means(family, w, "Y", pre=True)
    tsl = lat.terminal_slice
    phi[tsl] = -_group_means(family, w, "Y", rows=tsl)
    return phi


def _flow_and_price(ctx: MarketContext, w: np.ndarray, family: FamilySolution):
    """Per-capita optimal flows b and clearing prices of a solved full family, (nodes, B, n) each.

    See ``solve_full_equilibrium`` for the read-off formulas.
    """
    mean_y_pre = _group_means(family, w, "Y", pre=True)
    mean_p_pre = _group_means(family, w, "P", pre=True)
    p0_pre = family.backward_pre[:, :, family.system.backward_slices["p0"]]
    b = ctx.lattice.apply_levels(ctx.exo.v0bar, -p0_pre + mean_y_pre + mean_p_pre)
    b[ctx.lattice.terminal_slice] = 0.0
    return b, _price_from_clearing(ctx, w, family, b)


def _alpha_hats(ctx: MarketContext, ypres: list[np.ndarray],
                phi: np.ndarray) -> list[np.ndarray]:
    """alpha_g = -lam^{-1}(Y~_g + phi) per group from its pre-driver Y (Y on the leaves)."""
    return [-ctx.lattice.apply_levels(ctx.exo.lam_inv, ypre + phi) for ypre in ypres]


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
    """Forward-integrate a position from ``x0`` under a given drift and noise loading.

    ``drift`` is (nodes, n), or (nodes, B, n) for B flows sharing ``x0`` and
    the (nodes, n, d0) ``loading``; the result has the drift's shape.
    """
    x = np.zeros(drift.shape)
    x[0] = x0
    for k in range(lattice.steps):
        sl = lattice.level_slice(k)
        csl = lattice.level_slice(k + 1)
        base = lattice.repeat_to_children(x[sl] + lattice.dt * drift[sl])
        noise = lattice.edge_noise(loading[sl], k)
        x[csl] = base + noise.reshape(noise.shape[:1] + (1,) * (drift.ndim - 2)
                                      + noise.shape[1:])
    return x


# successive step of the major position below which the affine iteration may stop
STEP_TOL = 1e-10


def _major_intercepts(ctx: MarketContext, system: FbsdeSystem, sol: FamilySolution) -> dict:
    """A callable cost's affine twin's p0-row constants at the major position x0 of ``sol``.

    ``bb`` reads dfdx(t, x0, c0) - cbar x0 on the non-terminal nodes and,
    outside maturity mode (major terminal row -c0), ``g`` dgdx(x0, c0) - gbar x0.
    """
    spec, lat = ctx.spec, ctx.lattice
    cost = spec.major_cost
    row, col = system.backward_slices["p0"], system.forward_slices["x0"]
    x0, c0 = sol.field("x0"), ctx.exo.c0
    bb = system.bb.copy()
    for k in range(lat.steps):
        lo, hi = lat.level_range(k)
        grads = np.stack([cost.dfdx(k * lat.dt, x0[v], c0[v]) for v in range(lo, hi)])
        bb[lo:hi, 0, row] = grads - apply_block(system.Bbf[k, row, col], x0[lo:hi])
    if spec.maturity_mode:
        return {"bb": bb}
    g = system.g.copy()
    tsl = lat.terminal_slice
    grads = np.stack([cost.dgdx(x, c) for x, c in zip(x0[tsl], c0[tsl])])
    g[:, 0, row] = grads - apply_block(system.G[row, col], x0[tsl])
    return {"bb": bb, "g": g}


def _solve_full_system(ctx: MarketContext, system: FbsdeSystem) -> FamilySolution:
    """Solve a full market system of one flow (``build_full_system``).

    A callable major cost is solved on its affine twin by exact affine
    solves (one vector pass each, one shared matrix pass), each with the
    intercepts of the last solve's major position: a fixed point solves the
    callable cost's equations; the twin's curvatures only set the rate.  It
    stops once x0 moves by at most ``STEP_TOL`` and those equations hold to
    ``DIRECT_RESIDUAL_GATE`` (the diagnostics report them and count the
    solves), and raises ``SolverError`` as soon as the step stops shrinking.
    """
    if ctx.spec.major_cost.affine:
        return DirectSolver(system).solve()
    solver = DirectSolver(system)
    family = solver.solve()
    solves, last = 1, np.inf
    while True:
        intercepts = _major_intercepts(ctx, system, family)
        if last <= STEP_TOL:
            (diagnostics,) = residual(replace(system, **intercepts), family)
            if diagnostics.converged:
                break
        nxt = solver.solve(**intercepts)
        solves += 1
        step = float(np.max(np.abs(nxt.field("x0") - family.field("x0"))))
        if step >= last:
            raise SolverError(
                f"the affine iteration of the callable major cost stopped contracting "
                f"at solve {solves} (step {step:.3e} after {last:.3e}); the cost's "
                f"curvature range is too wide", nxt.diagnostics[0])
        family, last = nxt, step
    family.diagnostics = [replace(diagnostics, iterations=solves)]
    return family


def _check_node_field(ctx: MarketContext, name: str, values: np.ndarray,
                      lattice: NoiseLattice | None = None):
    """Refuse ``values`` unless they are (nodes, n) on ``ctx``'s lattice.

    ``lattice`` is the one a ``NodeField`` lives on; it must have the
    signature of ``ctx.lattice``.
    """
    lat = ctx.lattice
    if ((lattice is not None and lattice.signature() != lat.signature())
            or np.shape(values) != (lat.num_nodes, ctx.spec.dims.n)):
        raise ValidationError(f"{name} must be an n-vector node field on this lattice")


def _validate_beta(ctx: MarketContext, beta: NodeField):
    """Refuse a major flow that is not a node field of ``ctx`` vanishing on the leaves.

    In maturity mode the flow may take any value on the leaves.
    """
    _check_node_field(ctx, "beta", beta.values, beta.lattice)
    if not ctx.spec.maturity_mode:
        term = beta.values[ctx.lattice.terminal_slice]
        if np.max(np.abs(term), initial=0.0) > 1e-14:
            raise ValidationError("beta must vanish on terminal nodes (no last-instant flow)")


def minor_best_response(ctx: MarketContext, price: NodeField,
                        population: AgentPopulation | None = None) -> BestResponse:
    """Per-agent optimal responses to an exogenous adapted price field.

    The class means respond to the price and each class's groups deviate from
    their mean as in every market (the price enters every group alike, so
    the deviations do not see it); the trading rates are
    alpha_g = -lam^{-1}(Y~_g + price).
    """
    _check_node_field(ctx, "the price", price.values, price.lattice)
    pop = population if population is not None else make_population(ctx)
    classes = cost_classes(ctx.group_tables(pop), pop.weights)
    br = BestResponse(
        solution=DirectSolver(build_best_response_system(ctx, classes.tables,
                                                         price.values)).solve(),
        classes=classes, deviations=solve_deviations(ctx, classes), price=price,
        population=pop, alpha_hat=[])
    br.alpha_hat = _alpha_hats(ctx, [br.group_pre("Y", g) for g in range(pop.size)],
                               price.values)
    return br


def _equilibrium(ctx: MarketContext, pop: AgentPopulation, classes: CostClasses,
                 sol: FamilySolution, phi: np.ndarray, beta: np.ndarray,
                 beta_norm: np.ndarray, x0: np.ndarray) -> EquilibriumSolution:
    """The market solved on its classes' solution ``sol``: deviations, rates, residual."""
    eq = EquilibriumSolution(
        solution=sol, classes=classes, deviations=solve_deviations(ctx, classes),
        price=NodeField(ctx.lattice, phi), population=pop,
        beta_hat=NodeField(ctx.lattice, beta), beta_norm=NodeField(ctx.lattice, beta_norm),
        alpha_hat=[], clearing_residual=0.0, x0=x0)
    eq.alpha_hat = _alpha_hats(ctx, [eq.group_pre("Y", g) for g in range(pop.size)], phi)
    eq.clearing_residual = clearing_residual(eq)
    return eq


def solve_minor_clearing(ctx: MarketContext, beta: NodeField,
                         population: AgentPopulation | None = None) -> EquilibriumSolution:
    """Clear the market for a given major flow (no major optimization).

    ``beta`` is the unnormalized flow of the major trader; the induced price
    is  -m(Y~) + lam * beta/N  on interior nodes and -m(Y) at the horizon.
    """
    pop = population if population is not None else make_population(ctx)
    _validate_beta(ctx, beta)
    beta_norm = beta.values / pop.N
    classes = cost_classes(ctx.group_tables(pop), pop.weights)
    sol, (phi,) = ClearingOperator(ctx, classes.tables, classes.weights).solve(beta_norm[None])
    return _equilibrium(ctx, pop, classes, sol, phi, beta.values.copy(), beta_norm,
                        integrate_forward(ctx.lattice, ctx.spec.chi0, beta_norm + ctx.l0,
                                          ctx.s0))


def solve_class_system(ctx: MarketContext,
                       classes: CostClasses) -> tuple[FamilySolution, np.ndarray, np.ndarray]:
    """The cost classes' coupled system solved, with its (nodes, n) flow b and price phi."""
    family = _solve_full_system(ctx, build_full_system(ctx, classes.tables, classes.weights))
    b, phi = _flow_and_price(ctx, classes.weights, family)
    return family, b[:, 0], phi[:, 0]


def solve_full_equilibrium(ctx: MarketContext,
                           population: AgentPopulation | None = None) -> EquilibriumSolution:
    """Solve the coupled market with the major trader's flow chosen optimally.

    The optimal flow and the clearing price are read off the solved node
    fields of the cost classes through the pre-driver conditional
    expectations (m, the mean over the groups, is that over the classes):

        b   = V0bar (-p0~ + m(Y~) + m(P~)),     beta = N b,  beta(T) = 0
        phi = -m(Y~) + lam b                     (and -m(Y) at the horizon).
    """
    pop = population if population is not None else make_population(ctx)
    classes = cost_classes(ctx.group_tables(pop), pop.weights)
    family, b, phi = solve_class_system(ctx, classes)
    return _equilibrium(ctx, pop, classes, family, phi, pop.N * b, b, family.field("x0"))


class ClearingOperator:
    """Re-solves the minor clearing system across candidate major flows.

    The groups are given by their coefficient tables and population weights,
    as for ``build_clearing_system``; a market's cost classes give its prices
    at the least cost.  The flow enters the clearing system only through its
    forward drift ``af = l - b``, so the system at zero flow gives every
    flow's blocks, other constants and matrix pass.  ``solve`` forms the
    drifts of a stack of flows in one broadcast and clears them in one batched
    vector pass (residual check included, per flow).
    """

    def __init__(self, ctx: MarketContext, tabs: list[MinorTables], w: np.ndarray):
        self.ctx, self.w = ctx, w
        lat = ctx.lattice
        m = len(tabs) * ctx.spec.dims.n
        # the sweep's storage plus the level Bbf and node S and bb, before any of it is built
        check_factor_budget(sweep_floats(lat, m, m) + lat.steps * m * m
                            + lat.num_nodes * (m * lat.d0 + m))
        self._solver = DirectSolver(build_clearing_system(
            ctx, tabs, w, np.zeros((lat.num_nodes, ctx.spec.dims.n))))

    def solve(self, beta_norms: np.ndarray) -> tuple[FamilySolution, np.ndarray]:
        """Clear a (B, nodes, n) stack of per-capita flows in one vector pass.

        Returns the B solved clearing systems and the (B, nodes, n) stack of
        induced prices.  If any flow fails, the ``SolverError`` names it.
        """
        family = self._solver.solve(af=_minus_flow(self._solver.system.af, beta_norms))
        phi = _price_from_clearing(self.ctx, self.w, family, np.moveaxis(beta_norms, 0, 1))
        return family, np.moveaxis(phi, 1, 0)
