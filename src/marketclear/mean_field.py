"""Conditional mean-field equilibrium on the common lattice.

The population limit of the homogeneous market closes into an affine system
for the conditional means (x0, xbar, rbar, p0, ybar, pbar) on the common
tree, because the minor cost gradients are affine in the state.  That system
is the finite market's own: one agent group of weight 1 carrying the
atom-averaged coefficient tables, built by ``build_full_system`` and, for a
given flow, cleared by ``ClearingOperator``.  Per-atom idiosyncratic
deviations then solve small linear side systems whose drift and terminal
conditions lose every mean coupling.  The flow costate pair (rbar, pbar) has
no idiosyncratic source, so its deviations vanish identically and the
per-atom flow fields equal the means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import UnsupportedModelError, ValidationError
from .fbsde import DirectSolver, FamilySolution, FbsdeSystem, NodeSolution
from .finite_market import (MarketContext, MinorTables, _flow_and_price, _run_checks,
                            _solve_full_system, build_full_system, stack_tables)
from .model import ModelSpec
from .scenario import NodeField, NoiseLattice, apply_block


def _require_closure(spec: ModelSpec):
    """The means close for a homogeneous population: ``ModelSpec`` keeps cf, cg atom-free."""
    if not spec.homogeneous:
        raise UnsupportedModelError(
            "conditional-mean reduction needs a homogeneous minor population")


def _mean_tables(ctx: MarketContext) -> MinorTables:
    """Atom-weighted means of the minor coefficient tables and initial positions."""
    atoms = ctx.atoms
    w = atoms.weights
    tabs = [ctx.minor_tables(0, a) for a in range(atoms.count)]
    mix = lambda pick: sum(w[a] * pick(tabs[a]) for a in range(atoms.count))
    return MinorTables(
        l=mix(lambda t: t.l), sig0=mix(lambda t: t.sig0),
        cf=tabs[0].cf, hf=mix(lambda t: t.hf),
        cg_T=tabs[0].cg_T, hg_T=mix(lambda t: t.hg_T),
        xi=(w[:, None] * atoms.xi).sum(axis=0))


def mean_group(ctx: MarketContext) -> tuple[list[MinorTables], np.ndarray]:
    """The population limit as one agent group of weight 1 with the mean tables.

    The finite-market builders and ``ClearingOperator`` take it in place of a
    population's group tables and weights.
    """
    _require_closure(ctx.spec)
    return [_mean_tables(ctx)], np.ones(1)


def reduce_conditional_means(spec: ModelSpec, lattice: NoiseLattice,
                             ctx: MarketContext | None = None) -> FbsdeSystem:
    """Close the population limit into the affine mean system on the common tree.

    This is the full market system of the mean group: forward (x0, X0, R0)
    and backward (p0, Y0, P0) hold the means (x0, xbar, rbar) and
    (p0, ybar, pbar).  With one group of weight 1 the fee-inverse deviation
    blocks vanish, and the terminal means carry the 1/(1-delta)
    amplification of the terminal coupling.
    """
    ctx = ctx if ctx is not None else MarketContext(spec, lattice)
    return build_full_system(ctx, *mean_group(ctx))


def build_deviation_system(ctx: MarketContext, atoms: Iterable[int],
                           mean: MinorTables | None = None) -> FbsdeSystem:
    """Linear deviation systems of the given atoms, one flow each.

    Atom a's deviation from the mean has drift -lam^{-1} dy~ + dl and
    terminal map cg dx + dhg.  The matrix blocks (-lam^{-1}, cf, cg) are the
    same for every atom, so the atoms are one family: one ``DirectSolver``
    matrix pass and one batched vector pass solve them all.  Not a
    best-response system: in maturity mode its terminal map is zero, where
    the best response pins y(T) = -c0.
    """
    spec, lat = ctx.spec, ctx.lattice
    n, K = spec.dims.n, lat.steps
    I = lat.level_range(K)[0]
    mean = mean if mean is not None else _mean_tables(ctx)
    tab = stack_tables([ctx.minor_tables(0, a) for a in atoms])
    if spec.maturity_mode:
        G, g = np.zeros((n, n)), np.zeros((1, 1, n))
    else:
        G, g = tab.cg_T, tab.hg_T - mean.hg_T[:, None]
    return FbsdeSystem(lattice=lat, forward_slices={"dx": slice(0, n)},
                       backward_slices={"dy": slice(0, n)},
                       Afb=-ctx.exo.lam_inv[:K], Bbf=tab.cf[:K], G=G,
                       initial=(tab.xi - mean.xi)[None],
                       af=tab.l[:I] - mean.l[:I, None], S=tab.sig0[:I] - mean.sig0[:I, None],
                       bb=tab.hf[:I] - mean.hf[:I, None], g=g)


# population-limit names of the mean group's fields in the full system
_MEAN_FIELDS = {"x0": "x0", "p0": "p0", "xbar": "X0", "ybar": "Y0",
                "pbar": "P0", "rbar": "R0"}


@dataclass
class MfgSolution:
    """Mean-field equilibrium: common mean fields plus per-atom deviations."""

    spec: ModelSpec
    lattice: NoiseLattice
    ctx: MarketContext
    solution: NodeSolution                 # full system of the mean group
    deviations: FamilySolution             # one flow per (xi, ci) atom
    beta_hat: NodeField                    # per-capita flow, zero on terminal nodes
    price_mfg: NodeField

    @property
    def diagnostics(self):
        return self.solution.diagnostics

    @property
    def atom_weights(self) -> np.ndarray:
        return self.ctx.atoms.weights

    def common_field(self, name: str) -> np.ndarray:
        """A mean field by its population-limit name (x0, p0, xbar, ybar, pbar, rbar)."""
        return self.solution.field(_MEAN_FIELDS[name])

    def atom_field(self, name: str, a: int) -> np.ndarray:
        """Per-atom field: mean plus deviation for x/y, the mean itself for r/p."""
        if name == "x":
            return self.common_field("xbar") + self.deviations[a].field("dx")
        if name == "y":
            return self.common_field("ybar") + self.deviations[a].field("dy")
        if name == "r":
            return self.common_field("rbar")
        if name == "p":
            return self.common_field("pbar")
        raise ValidationError(f"unknown per-atom field {name!r}")

    def terminal_gain_samples(self) -> np.ndarray:
        """Per-atom terminal cost gradients cg x_T + hg on each leaf: (A, mK, n)."""
        lat = self.lattice
        tsl = lat.terminal_slice
        out = []
        for a in range(self.ctx.atoms.count):
            tab = self.ctx.minor_tables(0, a)
            xT = self.atom_field("x", a)[tsl]
            out.append(apply_block(tab.cg_T, xT) + tab.hg_T)
        return np.stack(out)


def _solve_means(ctx: MarketContext) -> tuple[NodeSolution, np.ndarray, np.ndarray]:
    """The mean system solved, with its flow b and price phi, (nodes, n) each."""
    family = _solve_full_system(ctx, reduce_conditional_means(ctx.spec, ctx.lattice, ctx))
    b, phi = _flow_and_price(ctx, np.ones(1), family)
    return family[0], b[:, 0], phi[:, 0]


def solve_mfg(spec: ModelSpec, lattice: NoiseLattice, *,
              ctx: MarketContext | None = None,
              check: bool = True, force: bool = False) -> MfgSolution:
    """Solve the population-limit equilibrium: means first, then atom deviations.

    The flow and the price are those of the full market system on the mean
    group, common-lattice fields

        b   = V0bar (-p0~ + ybar~ + pbar~),        b(T) = 0
        phi = -ybar~ + lam b                        (and -ybar at the horizon),

    and every idiosyncratic deviation field has atom-weighted mean zero.
    """
    ctx = ctx if ctx is not None else MarketContext(spec, lattice)
    if check:
        _run_checks(spec, force)
    sol, b, phi = _solve_means(ctx)
    (mean,), _ = mean_group(ctx)
    devs = DirectSolver(build_deviation_system(ctx, range(ctx.atoms.count), mean)).solve()
    return MfgSolution(spec=spec, lattice=lattice, ctx=ctx, solution=sol,
                       deviations=devs,
                       beta_hat=NodeField(lattice, b),
                       price_mfg=NodeField(lattice, phi))
