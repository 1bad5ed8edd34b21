"""Conditional mean-field equilibrium on the common lattice.

The population limit of the homogeneous market closes into an affine system
for the conditional means (x0, xbar, rbar, p0, ybar, pbar) on the common
tree, because the minor cost gradients are affine in the state.  Per-atom
idiosyncratic deviations then solve small linear side systems whose drift and
terminal conditions lose every mean coupling.  The flow costate pair
(rbar, pbar) has no idiosyncratic source, so its deviations vanish
identically and the per-atom flow fields equal the means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedModelError, ValidationError
from .fbsde import (DirectSolver, FbsdeSystem, LevelCoeffs, NodeSolution,
                    solve_direct, solve_picard)
from .finite_market import MarketContext, _run_checks, _slices
from .model import ModelSpec
from .scenario import NodeField, NoiseLattice


def _require_closure(spec: ModelSpec):
    if not spec.homogeneous:
        raise UnsupportedModelError(
            "conditional-mean reduction needs a homogeneous minor population")
    bundle = spec.minor[0]
    for name in ("cf", "cg"):
        if getattr(bundle, name).depends_on_ci():
            raise UnsupportedModelError(
                f"minor coefficient {name} depends on the idiosyncratic state, so the "
                f"conditional means do not close; use the exhaustive tiny-tree oracle "
                f"for such models")


@dataclass
class MeanTables:
    """Atom-weighted means of the minor coefficient tables."""

    l: np.ndarray
    sig0: np.ndarray
    cf: np.ndarray
    hf: np.ndarray
    cg_T: np.ndarray
    hg_T: np.ndarray
    xi: np.ndarray


def _mean_tables(ctx: MarketContext) -> MeanTables:
    atoms = ctx.atoms
    w = atoms.weights
    tabs = [ctx.minor_tables(0, a) for a in range(atoms.count)]
    mix = lambda pick: sum(w[a] * pick(tabs[a]) for a in range(atoms.count))
    return MeanTables(
        l=mix(lambda t: t.l), sig0=mix(lambda t: t.sig0),
        cf=tabs[0].cf, hf=mix(lambda t: t.hf),
        cg_T=tabs[0].cg_T, hg_T=mix(lambda t: t.hg_T),
        xi=(w[:, None] * atoms.xi).sum(axis=0))


def reduce_conditional_means(spec: ModelSpec, lattice: NoiseLattice,
                             ctx: MarketContext | None = None) -> FbsdeSystem:
    """Close the population limit into the affine mean system on the common tree.

    Six n-dimensional blocks per node: forward (x0, xbar, rbar) and backward
    (p0, ybar, pbar), with the flow rule b = V0bar(-p0~ + ybar~ + pbar~)
    eliminated into the drift blocks and the terminal means carrying the
    1/(1-delta) amplification of the terminal coupling.
    """
    _require_closure(spec)
    ctx = ctx if ctx is not None else MarketContext(spec, lattice)
    lat = lattice
    n = spec.dims.n
    mean = _mean_tables(ctx)
    fsl = _slices([("x0", n), ("xbar", n), ("rbar", n)])
    bsl = _slices([("p0", n), ("ybar", n), ("pbar", n)])
    mf = mb = 3 * n
    initial = np.zeros(mf)
    initial[fsl["x0"]] = spec.chi0
    initial[fsl["xbar"]] = mean.xi
    affine_cost = spec.major_cost.affine

    def coeffs(k: int) -> LevelCoeffs:
        sl = lat.level_slice(k)
        m = sl.stop - sl.start
        v0 = ctx.exo.v0bar[sl]
        Afb = np.zeros((m, mf, mb))
        af = np.zeros((m, mf))
        S = np.zeros((m, mf, lat.d0))
        for name, sign in (("x0", 1.0), ("xbar", -1.0), ("rbar", 1.0)):
            Afb[:, fsl[name], bsl["p0"]] = -sign * v0
            Afb[:, fsl[name], bsl["ybar"]] = sign * v0
            Afb[:, fsl[name], bsl["pbar"]] = sign * v0
        af[:, fsl["x0"]] = ctx.l0[sl]
        af[:, fsl["xbar"]] = mean.l[sl]
        S[:, fsl["x0"], :] = ctx.s0[sl]
        S[:, fsl["xbar"], :] = mean.sig0[sl]
        Bbf = np.zeros((m, mb, mf))
        bb = np.zeros((m, mb))
        Bbf[:, bsl["ybar"], fsl["xbar"]] = mean.cf[sl]
        bb[:, bsl["ybar"]] = mean.hf[sl]
        Bbf[:, bsl["pbar"], fsl["rbar"]] = -mean.cf[sl]
        if affine_cost:
            Bbf[:, bsl["p0"], fsl["x0"]] = spec.major_cost.c0f
            bb[:, bsl["p0"]] = ctx.h0f[sl]
        return LevelCoeffs(Aff=np.zeros((1, mf, mf)), Afb=Afb, af=af, S=S,
                           Bbf=Bbf, Bbb=np.zeros((1, mb, mb)), bb=bb)

    def terminal():
        tsl = lat.terminal_slice
        mK = lat.nodes_at(lat.steps)
        Gm = np.zeros((mK, mb, mf))
        gv = np.zeros((mK, mb))
        if spec.maturity_mode:
            gv[:, bsl["p0"]] = -ctx.exo.c0[tsl]
            gv[:, bsl["ybar"]] = -ctx.exo.c0[tsl]
            return Gm, gv
        amp = 1.0 / (1.0 - spec.delta)
        if affine_cost:
            Gm[:, bsl["p0"], fsl["x0"]] = spec.major_cost.c0g
            gv[:, bsl["p0"]] = ctx.h0g_T
        Gm[:, bsl["ybar"], fsl["xbar"]] = amp * mean.cg_T
        gv[:, bsl["ybar"]] = amp * mean.hg_T
        Gm[:, bsl["pbar"], fsl["rbar"]] = -amp * mean.cg_T
        return Gm, gv

    driver_fn = terminal_fn = None
    if not affine_cost:
        def driver_fn(k, uf, ubt):
            c = coeffs(k)
            base = (np.matmul(c.Bbf, uf[..., None])[..., 0]
                    + np.matmul(c.Bbb, ubt[..., None])[..., 0] + c.bb)
            sl = lat.level_slice(k)
            x0 = uf[:, fsl["x0"]]
            base[:, bsl["p0"]] = np.stack([
                spec.major_cost.dfdx(k * lat.dt, x0[i], ctx.exo.c0[sl][i])
                for i in range(x0.shape[0])])
            return base

        def terminal_fn(ufK):
            Gm, gv = terminal()
            out = np.matmul(Gm, ufK[..., None])[..., 0] + gv
            tsl = lat.terminal_slice
            x0 = ufK[:, fsl["x0"]]
            out[:, bsl["p0"]] = np.stack([
                spec.major_cost.dgdx(x0[i], ctx.exo.c0[tsl][i])
                for i in range(x0.shape[0])])
            return out

    return FbsdeSystem(lattice=lat, forward_slices=fsl, backward_slices=bsl,
                       initial=initial, coeffs=coeffs, terminal=terminal,
                       affine=affine_cost, driver_fn=driver_fn, terminal_fn=terminal_fn)


def build_deviation_system(ctx: MarketContext, atom_index: int,
                           mean: MeanTables | None = None) -> FbsdeSystem:
    """Linear per-atom deviation system: drift -lam^{-1} dy~ + dl, terminal cg dx + dhg."""
    spec, lat = ctx.spec, ctx.lattice
    n = spec.dims.n
    mean = mean if mean is not None else _mean_tables(ctx)
    tab = ctx.minor_tables(0, atom_index)
    fsl = {"dx": slice(0, n)}
    bsl = {"dy": slice(0, n)}
    initial = ctx.atoms.xi[atom_index] - mean.xi

    def coeffs(k: int) -> LevelCoeffs:
        sl = lat.level_slice(k)
        m = sl.stop - sl.start
        Afb = -ctx.exo.lam_inv[sl]
        af = tab.l[sl] - mean.l[sl]
        S = tab.sig0[sl] - mean.sig0[sl]
        Bbf = tab.cf[sl]
        bb = tab.hf[sl] - mean.hf[sl]
        return LevelCoeffs(Aff=np.zeros((1, n, n)), Afb=Afb, af=af, S=S,
                           Bbf=Bbf, Bbb=np.zeros((1, n, n)), bb=bb)

    def terminal():
        mK = lat.nodes_at(lat.steps)
        if spec.maturity_mode:
            return np.zeros((mK, n, n)), np.zeros((mK, n))
        return tab.cg_T, tab.hg_T - mean.hg_T

    return FbsdeSystem(lattice=lat, forward_slices=fsl, backward_slices=bsl,
                       initial=initial, coeffs=coeffs, terminal=terminal, affine=True)


def mfg_maturity_override(spec: ModelSpec, lattice: NoiseLattice,
                          ctx: MarketContext | None = None):
    """Terminal blocks of the reduced system when the securities pay c0 at T.

    The backward means are pinned to (p0, ybar, pbar)(T) = (-c0, -c0, 0), so
    the horizon price -ybar(T) equals the payoff exactly.
    """
    if not spec.maturity_mode:
        raise ValidationError("maturity override applies to maturity-mode specs only")
    ctx = ctx if ctx is not None else MarketContext(spec, lattice)
    n = spec.dims.n
    tsl = lattice.terminal_slice
    mK = lattice.nodes_at(lattice.steps)
    Gm = np.zeros((mK, 3 * n, 3 * n))
    gv = np.zeros((mK, 3 * n))
    gv[:, 0:n] = -ctx.exo.c0[tsl]
    gv[:, n:2 * n] = -ctx.exo.c0[tsl]
    return Gm, gv


@dataclass
class MfgSolution:
    """Mean-field equilibrium: common mean fields plus per-atom deviations."""

    spec: ModelSpec
    lattice: NoiseLattice
    ctx: MarketContext
    solution: NodeSolution                 # reduced mean system
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
        return self.solution.field(name)

    def atom_field(self, name: str, a: int) -> np.ndarray:
        """Per-atom field: mean plus deviation for x/y, the mean itself for r/p."""
        if name == "x":
            return self.solution.field("xbar") + self.deviations[a].field("dx")
        if name == "y":
            return self.solution.field("ybar") + self.deviations[a].field("dy")
        if name == "r":
            return self.solution.field("rbar")
        if name == "p":
            return self.solution.field("pbar")
        raise ValidationError(f"unknown per-atom field {name!r}")

    def terminal_gain_samples(self) -> np.ndarray:
        """Per-atom terminal cost gradients cg x_T + hg on each leaf: (A, mK, n)."""
        lat = self.lattice
        tsl = lat.terminal_slice
        out = []
        for a in range(self.ctx.atoms.count):
            tab = self.ctx.minor_tables(0, a)
            xT = self.atom_field("x", a)[tsl]
            out.append(np.matmul(tab.cg_T, xT[..., None])[..., 0] + tab.hg_T)
        return np.stack(out)


def solve_mfg(spec: ModelSpec, lattice: NoiseLattice, *,
              ctx: MarketContext | None = None, method: str = "direct",
              check: bool = True, force: bool = False, **solver_kw) -> MfgSolution:
    """Solve the population-limit equilibrium: means first, then atom deviations.

    The flow and the price are common-lattice fields,

        b   = V0bar (-p0~ + ybar~ + pbar~),        b(T) = 0
        phi = -ybar~ + lam b                        (and -ybar at the horizon),

    and every idiosyncratic deviation field has atom-weighted mean zero.
    """
    ctx = ctx if ctx is not None else MarketContext(spec, lattice)
    if check:
        _run_checks(spec, force)
    system = reduce_conditional_means(spec, lattice, ctx)
    if method == "direct":
        if not system.affine:
            raise UnsupportedModelError(
                "general (non-affine) major cost gradients need method='picard'")
        sol = solve_direct(system)
    else:
        sol = solve_picard(system, **solver_kw)
    mean = _mean_tables(ctx)
    devs = [solve_direct(build_deviation_system(ctx, a, mean))
            for a in range(ctx.atoms.count)]
    lat = lattice
    b = np.matmul(ctx.exo.v0bar,
                  (-sol.pre("p0") + sol.pre("ybar") + sol.pre("pbar"))[..., None])[..., 0]
    b[lat.terminal_slice] = 0.0
    phi = -sol.pre("ybar") + np.matmul(ctx.exo.lam, b[..., None])[..., 0]
    phi[lat.terminal_slice] = -sol.field("ybar")[lat.terminal_slice]
    return MfgSolution(spec=spec, lattice=lattice, ctx=ctx, solution=sol,
                       deviations=devs,
                       beta_hat=NodeField(lattice, b),
                       price_mfg=NodeField(lattice, phi))


class MeanClearingOperator:
    """Mean minor blocks (xbar, ybar) for a given per-capita flow, matrix pass shared.

    Used by the population-limit cost functional: for each candidate flow the
    induced price is -ybar~ + lam b with ybar from this small system.
    """

    def __init__(self, spec: ModelSpec, lattice: NoiseLattice,
                 ctx: MarketContext | None = None):
        _require_closure(spec)
        self.ctx = ctx if ctx is not None else MarketContext(spec, lattice)
        self.spec, self.lattice = spec, lattice
        self.mean = _mean_tables(self.ctx)
        zero = np.zeros((lattice.num_nodes, spec.dims.n))
        self._solver = DirectSolver(self._system(zero))

    def _system(self, beta: np.ndarray) -> FbsdeSystem:
        spec, lat, mean = self.spec, self.lattice, self.mean
        n = spec.dims.n
        fsl = {"xbar": slice(0, n)}
        bsl = {"ybar": slice(0, n)}

        def coeffs(k: int) -> LevelCoeffs:
            sl = lat.level_slice(k)
            m = sl.stop - sl.start
            return LevelCoeffs(
                Aff=np.zeros((1, n, n)), Afb=np.zeros((1, n, n)),
                af=mean.l[sl] - beta[sl], S=mean.sig0[sl],
                Bbf=mean.cf[sl], Bbb=np.zeros((1, n, n)), bb=mean.hf[sl])

        def terminal():
            mK = lat.nodes_at(lat.steps)
            if spec.maturity_mode:
                return np.zeros((mK, n, n)), -self.ctx.exo.c0[lat.terminal_slice]
            amp = 1.0 / (1.0 - spec.delta)
            return amp * mean.cg_T, amp * mean.hg_T

        return FbsdeSystem(lattice=lat, forward_slices=fsl, backward_slices=bsl,
                           initial=mean.xi.copy(), coeffs=coeffs, terminal=terminal,
                           affine=True)

    def solve(self, beta: np.ndarray):
        sol = self._solver.solve(self._system(beta))
        lat = self.lattice
        phi = -sol.pre("ybar") + np.matmul(self.ctx.exo.lam[...], beta[..., None])[..., 0]
        phi[lat.terminal_slice] = -sol.field("ybar")[lat.terminal_slice]
        return sol, phi
