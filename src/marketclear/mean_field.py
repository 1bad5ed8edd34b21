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

import numpy as np

from .errors import UnsupportedModelError, ValidationError
from .fbsde import DirectSolver, FbsdeSystem, LevelCoeffs, NodeSolution
from .finite_market import (MarketContext, MinorTables, _flow_and_price, _run_checks,
                            _solve_system, build_full_system)
from .model import ModelSpec
from .scenario import NodeField, NoiseLattice


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


def build_deviation_system(ctx: MarketContext, atom_index: int,
                           mean: MinorTables | None = None) -> FbsdeSystem:
    """Linear per-atom deviation system: drift -lam^{-1} dy~ + dl, terminal cg dx + dhg.

    Its matrix blocks (-lam^{-1}, cf, cg) are the same for every atom, so one
    ``DirectSolver`` matrix pass serves all atoms.  Not a best-response
    system: in maturity mode its terminal map is zero, where the best
    response pins y(T) = -c0.
    """
    spec, lat = ctx.spec, ctx.lattice
    n = spec.dims.n
    mean = mean if mean is not None else _mean_tables(ctx)
    tab = ctx.minor_tables(0, atom_index)
    fsl = {"dx": slice(0, n)}
    bsl = {"dy": slice(0, n)}
    initial = tab.xi - mean.xi

    def coeffs(k: int) -> LevelCoeffs:
        sl = lat.level_slice(k)
        return LevelCoeffs(Aff=np.zeros((1, n, n)), Afb=-ctx.exo.lam_inv[k:k + 1],
                           af=tab.l[sl] - mean.l[sl], S=tab.sig0[sl] - mean.sig0[sl],
                           Bbf=tab.cf[k:k + 1], Bbb=np.zeros((1, n, n)),
                           bb=tab.hf[sl] - mean.hf[sl])

    def terminal():
        if spec.maturity_mode:
            return np.zeros((1, n, n)), np.zeros((lat.nodes_at(lat.steps), n))
        return tab.cg_T[None], tab.hg_T - mean.hg_T

    return FbsdeSystem(lattice=lat, forward_slices=fsl, backward_slices=bsl,
                       initial=initial, coeffs=coeffs, terminal=terminal, affine=True)


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
    deviations: list[NodeSolution]         # one per (xi, ci) atom
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
            cg = np.tile(tab.cg_T, (len(xT), 1, 1))
            out.append(np.matmul(cg, xT[..., None])[..., 0] + tab.hg_T)
        return np.stack(out)


def solve_mfg(spec: ModelSpec, lattice: NoiseLattice, *,
              ctx: MarketContext | None = None, method: str = "direct",
              check: bool = True, force: bool = False, **solver_kw) -> MfgSolution:
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
    sol = _solve_system(reduce_conditional_means(spec, lattice, ctx), method, **solver_kw)
    (mean,), w = mean_group(ctx)
    solver = DirectSolver(build_deviation_system(ctx, 0, mean))
    devs = [solver.solve(build_deviation_system(ctx, a, mean))
            for a in range(ctx.atoms.count)]
    b, phi = _flow_and_price(ctx, w, sol)
    return MfgSolution(spec=spec, lattice=lattice, ctx=ctx, solution=sol,
                       deviations=devs,
                       beta_hat=NodeField(lattice, b),
                       price_mfg=NodeField(lattice, phi))
