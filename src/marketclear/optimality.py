"""Cost functionals, Hamiltonians, and perturbation checks of optimality.

The solved controls are verified empirically: random adapted directions with
zero terminal value are added to the candidate optimum over a grid of
amplitudes, the induced cost change is measured with the clearing feedback
re-solved inside the functional, and the fitted first-order coefficient and
the worst cost change are reported.  At a true optimum of these quadratic
discrete functionals the first-order coefficient vanishes to round-off and
every cost change is nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (AssumptionViolationError, MarketClearError, UnsupportedModelError,
                     ValidationError)
from .finite_market import (AgentPopulation, ClearingOperator, MarketContext,
                            integrate_forward, make_population,
                            solve_full_equilibrium)
from .mean_field import mean_group, solve_mfg
from .model import ModelSpec
from .scenario import NodeField, NoiseLattice, stream_rng

DEFAULT_EPS_GRID = (-0.2, -0.1, -0.05, 0.0, 0.05, 0.1, 0.2)


def _quad(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    return 0.5 * np.einsum("...i,...ij,...j->...", x, mat, x)


def cost_minor(spec: ModelSpec, lattice: NoiseLattice, price: NodeField,
               alpha: np.ndarray, *, bundle_index: int = 0, atom_index: int = 0,
               ctx: MarketContext | None = None) -> float:
    """Expected cost of one minor agent trading at rate ``alpha`` against ``price``.

    Running cost <phi, a> + .5 <a, lam a> + .5 <x, cf x> + <hf, x>; terminal
    cost -delta <phi_T, x> + .5 <x, cg x> + <hg, x>, or -<c0_T, x> when the
    securities mature.  The position is integrated forward under ``alpha``.
    """
    ctx = ctx if ctx is not None else MarketContext(spec, lattice)
    tab = ctx.minor_tables(bundle_index, atom_index)
    lat = lattice
    alpha = np.asarray(alpha, dtype=float)
    x = integrate_forward(lat, tab.xi, alpha + tab.l, tab.sig0)
    phi = price.values
    running = (np.einsum("vi,vi->v", phi, alpha)
               + _quad(alpha, ctx.exo.lam[lat.level_of])
               + _quad(x, tab.cf[lat.level_of])
               + np.einsum("vi,vi->v", tab.hf, x))
    tsl = lat.terminal_slice
    if spec.maturity_mode:
        terminal = -np.einsum("vi,vi->v", ctx.exo.c0[tsl], x[tsl])
    else:
        terminal = (-spec.delta * np.einsum("vi,vi->v", phi[tsl], x[tsl])
                    + _quad(x[tsl], np.tile(tab.cg_T, (lat.nodes_at(lat.steps), 1, 1)))
                    + np.einsum("vi,vi->v", tab.hg_T, x[tsl]))
    return lat.running_expectation(running) + lat.terminal_expectation(terminal)


def _major_running_terminal(spec, ctx, lattice, b, phi):
    """Normalized major integrands given the per-capita flow and induced price."""
    if not spec.major_cost.affine:
        raise UnsupportedModelError(
            "cost evaluation needs the quadratic major cost primitives")
    lat = lattice
    x0 = integrate_forward(lat, spec.chi0, b + ctx.l0, ctx.s0)
    fbar = _quad(x0, np.broadcast_to(spec.major_cost.c0f,
                                     (lat.num_nodes,) + spec.major_cost.c0f.shape)) \
        + np.einsum("vi,vi->v", ctx.h0f, x0)
    running = (np.einsum("vi,vi->v", b, phi)
               + _quad(b, ctx.exo.lam0[lat.level_of])
               + fbar)
    tsl = lat.terminal_slice
    if spec.maturity_mode:
        terminal = -np.einsum("vi,vi->v", ctx.exo.c0[tsl], x0[tsl])
    else:
        terminal = _quad(x0[tsl], np.broadcast_to(
            spec.major_cost.c0g, (tsl.stop - tsl.start,) + spec.major_cost.c0g.shape)) \
            + np.einsum("vi,vi->v", ctx.h0g_T, x0[tsl])
    return lat.running_expectation(running) + lat.terminal_expectation(terminal)


def cost_major(spec: ModelSpec, lattice: NoiseLattice, population: AgentPopulation,
               beta: NodeField, *, operator: ClearingOperator | None = None,
               ctx: MarketContext | None = None) -> float:
    """Major trader's expected cost in per-capita units, price feedback inside.

    The minor clearing system is re-solved under ``beta`` and the induced
    price enters the running cost <b, phi(b)> + .5 <b, lam0 b> + fbar0(x0).
    """
    ctx = ctx if ctx is not None else MarketContext(spec, lattice)
    op = operator if operator is not None else ClearingOperator(
        ctx, ctx.group_tables(population), population.weights)
    b = beta.values / population.N
    _, phi = op.solve(b)
    return _major_running_terminal(spec, ctx, lattice, b, phi)


def cost_mfg(spec: ModelSpec, lattice: NoiseLattice, beta: NodeField, *,
             operator: ClearingOperator | None = None,
             ctx: MarketContext | None = None) -> float:
    """Population-limit major cost for a per-capita flow, clearing re-solved.

    The clearing feedback is that of the mean group (``mean_group``).
    """
    ctx = ctx if ctx is not None else MarketContext(spec, lattice)
    op = operator if operator is not None else ClearingOperator(ctx, *mean_group(ctx))
    b = beta.values
    _, phi = op.solve(b)
    return _major_running_terminal(spec, ctx, lattice, b, phi)


# -- perturbation verification ----------------------------------------------


def perturbation_directions(lattice: NoiseLattice, n: int, count: int,
                            seed: int) -> list[np.ndarray]:
    """Adapted i.i.d.-node directions, terminal values zeroed, unit lattice-L2 norm."""
    out = []
    for d in range(count):
        rng = stream_rng(seed, d)
        eta = rng.standard_normal((lattice.num_nodes, n))
        eta[lattice.terminal_slice] = 0.0
        norm2 = lattice.running_expectation(np.einsum("vi,vi->v", eta, eta))
        if norm2 <= 0:
            raise ValidationError("degenerate perturbation direction")
        out.append(eta / np.sqrt(norm2))
    return out


@dataclass
class PerturbationReport:
    """Cost changes over (direction, amplitude) with per-direction quadratic fits."""

    level: str
    eps_grid: list[float]
    directions: int
    delta_j: np.ndarray          # (directions, len(eps_grid)); nan for failed rows
    quadratic_fit: np.ndarray    # (directions, 3): a0, a1, a2 of dJ ~ a1 e + a2 e^2
    failed: list[int] = field(default_factory=list)

    @property
    def min_delta_j(self) -> float:
        ok = np.delete(self.delta_j, self.failed, axis=0) if self.failed else self.delta_j
        return float(np.nanmin(ok)) if ok.size else float("nan")

    @property
    def gradient_norm(self) -> float:
        ok = np.delete(self.quadratic_fit, self.failed, axis=0) if self.failed else self.quadratic_fit
        return float(np.nanmax(np.abs(ok[:, 1]))) if ok.size else float("nan")

    @property
    def min_curvature(self) -> float:
        ok = np.delete(self.quadratic_fit, self.failed, axis=0) if self.failed else self.quadratic_fit
        return float(np.nanmin(ok[:, 2])) if ok.size else float("nan")

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "eps_grid": list(self.eps_grid),
            "directions": self.directions,
            "directions_note": ("adapted i.i.d.-node fields, terminal values "
                                "zeroed, unit lattice-L2 norm"),
            "min_delta_j": self.min_delta_j,
            "gradient_norm": self.gradient_norm,
            "min_curvature": self.min_curvature,
            "failed_directions": self.failed,
            "quadratic_fit": self.quadratic_fit.tolist(),
        }


def _fit_quadratics(eps: np.ndarray, dj: np.ndarray) -> np.ndarray:
    design = np.stack([np.ones_like(eps), eps, eps**2], axis=1)
    coef, *_ = np.linalg.lstsq(design, dj.T, rcond=None)
    return coef.T


def perturbation_test(spec: ModelSpec, lattice: NoiseLattice, level: str,
                      directions: int = 20, eps_grid=DEFAULT_EPS_GRID, seed: int = 0,
                      population: AgentPopulation | None = None,
                      ctx: MarketContext | None = None) -> PerturbationReport:
    """Probe a solved optimum along random admissible directions.

    level:
      "minor"     perturb one agent's trading rate, price held fixed;
      "major-N"   perturb the major flow, finite-population clearing feedback;
      "major-mfg" perturb the major flow in the population limit.
    """
    eps = np.asarray(sorted(set(float(e) for e in eps_grid)))
    if 0.0 not in eps:
        raise ValidationError("eps grid must include 0")
    for e in eps:
        if e != 0.0 and -e not in eps:
            raise ValidationError("eps grid must come in +/- pairs")
    ctx = ctx if ctx is not None else MarketContext(spec, lattice)
    n = spec.dims.n

    if level == "minor":
        pop = population if population is not None else make_population(spec, ctx.atoms)
        eq = solve_full_equilibrium(spec, lattice, pop, ctx=ctx, check=False)
        grp = pop.groups[0]
        base_ctrl = eq.alpha_hat[0]
        price = eq.price

        def evaluate(ctrl):
            return cost_minor(spec, lattice, price, ctrl,
                              bundle_index=grp.bundle_index,
                              atom_index=grp.atom_index, ctx=ctx)
    elif level == "major-N":
        pop = population if population is not None else make_population(spec, ctx.atoms)
        eq = solve_full_equilibrium(spec, lattice, pop, ctx=ctx, check=False)
        base_ctrl = eq.beta_hat.values
        op = ClearingOperator(ctx, ctx.group_tables(pop), pop.weights)

        def evaluate(ctrl):
            return cost_major(spec, lattice, pop, NodeField(lattice, ctrl),
                              operator=op, ctx=ctx)
    elif level == "major-mfg":
        mf = solve_mfg(spec, lattice, ctx=ctx, check=False)
        base_ctrl = mf.beta_hat.values
        op = ClearingOperator(ctx, *mean_group(ctx))

        def evaluate(ctrl):
            return cost_mfg(spec, lattice, NodeField(lattice, ctrl),
                            operator=op, ctx=ctx)
    else:
        raise ValidationError(f"unknown perturbation level {level!r}")

    base_j = evaluate(base_ctrl)
    etas = perturbation_directions(lattice, n, directions, seed)
    dj = np.zeros((directions, len(eps)))
    failed = []
    for d, eta in enumerate(etas):
        try:
            for j, e in enumerate(eps):
                dj[d, j] = 0.0 if e == 0.0 else evaluate(base_ctrl + e * eta) - base_j
        except (MarketClearError, np.linalg.LinAlgError):
            dj[d, :] = np.nan
            failed.append(d)
    fits = np.full((directions, 3), np.nan)
    ok = [d for d in range(directions) if d not in failed]
    if ok:
        fits[ok] = _fit_quadratics(eps, dj[ok])
    return PerturbationReport(level=level, eps_grid=[float(e) for e in eps],
                              directions=directions, delta_j=dj,
                              quadratic_fit=fits, failed=failed)


# -- Hamiltonians and their minimizers ---------------------------------------


def _solve_spd(mat: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        raise AssumptionViolationError(f"{what} is singular")


def minimizer_alpha(y, price, lam):
    """Pointwise optimal minor trading rate -lam^{-1}(y + price)."""
    scalar = np.ndim(y) == 0
    y, price = np.atleast_1d(np.asarray(y, dtype=float)), np.atleast_1d(
        np.asarray(price, dtype=float))
    out = -_solve_spd(np.atleast_2d(np.asarray(lam, dtype=float)), y + price,
                      "minor fee matrix")
    return float(out[0]) if scalar else out


def minimizer_beta(p0, mean_y, mean_p, lam0, lam, N: int = 1):
    """Optimal unnormalized major flow N (lam0+2 lam)^{-1}(-p0 + m(y) + m(p))."""
    scalar = np.ndim(p0) == 0
    p0, mean_y, mean_p = (np.atleast_1d(np.asarray(a, dtype=float))
                          for a in (p0, mean_y, mean_p))
    combo = np.atleast_2d(np.asarray(lam0, dtype=float)) + 2.0 * np.atleast_2d(
        np.asarray(lam, dtype=float))
    out = N * _solve_spd(combo, -p0 + mean_y + mean_p, "lam0 + 2 lam")
    return float(out[0]) if scalar else out


def minimizer_beta_mfg(p0, ybar, pbar, lam0, lam) -> np.ndarray:
    """Optimal per-capita major flow in the population limit."""
    return minimizer_beta(p0, ybar, pbar, lam0, lam, N=1)


def hamiltonian_minor(y, alpha, price, lam, l=None, fbar: float = 0.0) -> float:
    """Reduced minor Hamiltonian <y, a + l> + <phi, a> + .5<a, lam a> + fbar."""
    y, alpha, price = (np.atleast_1d(np.asarray(a, dtype=float))
                       for a in (y, alpha, price))
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    l = np.zeros_like(y) if l is None else np.atleast_1d(np.asarray(l, dtype=float))
    return float(y @ (alpha + l) + price @ alpha + 0.5 * alpha @ lam @ alpha + fbar)


def hamiltonian_system(spec: ModelSpec, t: float, x0, xs, ys, p0, ps, rs, beta,
                       c0=None, cis=None) -> float:
    """Finite-population system Hamiltonian at one evaluation point.

    States are unnormalized (x0 is the raw major position); ``xs, ys, ps, rs``
    list one n-vector per minor agent.
    """
    n = spec.dims.n
    N = len(xs)
    c0 = np.zeros(n) if c0 is None else np.asarray(c0, dtype=float)
    cis = [np.zeros(n)] * N if cis is None else cis
    lam = spec.lambda_minor.eval_point(t, c0, cis[0]).reshape(n, n)
    lam0 = spec.lambda_major.eval_point(t, c0, cis[0]).reshape(n, n)
    lam_inv = np.linalg.inv(lam)
    beta = np.asarray(beta, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    mean_y = sum(np.asarray(y, dtype=float) for y in ys) / N
    l0N = N * spec.major_flow.l0.eval_point(t, c0, None)
    total = float(p0 @ (beta + l0N))
    for i in range(N):
        bundle = spec.bundle(i)
        xi, yi, pi, ri = (np.asarray(a, dtype=float) for a in (xs[i], ys[i], ps[i], rs[i]))
        li = bundle.l.eval_point(t, c0, cis[i])
        drift = -lam_inv @ (yi - mean_y) - beta / N + li
        total += float(pi @ drift)
        grad = bundle.cf.eval_point(t, c0, cis[i]).reshape(n, n) @ xi \
            + bundle.hf.eval_point(t, c0, cis[i])
        total += float(ri @ (-grad))
    total += float(beta @ (-mean_y + lam @ beta / N))
    total += 0.5 * float(beta @ lam0 @ beta) / N
    if spec.major_cost.affine:
        xn = x0 / N
        total += N * (0.5 * float(xn @ spec.major_cost.c0f @ xn)
                      + float(spec.major_cost.h0f.eval_point(t, c0, None) @ xn))
    else:
        raise UnsupportedModelError("system Hamiltonian needs the quadratic major cost")
    return total


def hamiltonian_mfg(spec: ModelSpec, t: float, x0, x1, y1, ybar, p0, p1, pbar, r1,
                    beta, c0=None, ci=None) -> float:
    """Population-limit Hamiltonian at one evaluation point (per-capita units)."""
    n = spec.dims.n
    c0 = np.zeros(n) if c0 is None else np.asarray(c0, dtype=float)
    ci = np.zeros(n) if ci is None else np.asarray(ci, dtype=float)
    bundle = spec.minor[0]
    lam = spec.lambda_minor.eval_point(t, c0, ci).reshape(n, n)
    lam0 = spec.lambda_major.eval_point(t, c0, ci).reshape(n, n)
    lam_inv = np.linalg.inv(lam)
    x0, x1, y1, ybar, p0, p1, pbar, r1, beta = (
        np.atleast_1d(np.asarray(a, dtype=float))
        for a in (x0, x1, y1, ybar, p0, p1, pbar, r1, beta))
    total = float(p0 @ (beta + spec.major_flow.l0.eval_point(t, c0, None)))
    total += float(p1 @ (-lam_inv @ (y1 - ybar) + bundle.l.eval_point(t, c0, ci)))
    total += float(pbar @ (-beta))
    grad = bundle.cf.eval_point(t, c0, ci).reshape(n, n) @ x1 + bundle.hf.eval_point(t, c0, ci)
    total += float(r1 @ (-grad))
    total += float(beta @ (-ybar + lam @ beta))
    total += 0.5 * float(beta @ lam0 @ beta)
    if spec.major_cost.affine:
        total += 0.5 * float(x0 @ spec.major_cost.c0f @ x0) \
            + float(spec.major_cost.h0f.eval_point(t, c0, None) @ x0)
    else:
        raise UnsupportedModelError("population-limit Hamiltonian needs the quadratic major cost")
    return total
