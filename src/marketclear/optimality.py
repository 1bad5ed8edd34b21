"""Perturbation checks of optimality and the batched cost functionals they read.

The solved controls are verified empirically: random adapted directions with
zero terminal value are added to the candidate optimum over a grid of
amplitudes, the induced cost change is measured with the clearing feedback
inside the functional, and the fitted first-order coefficient and the worst
cost change are reported.  At a true optimum of these quadratic discrete
functionals the first-order coefficient vanishes to round-off and every
cost change is nonnegative.

The check (``perturbation_tests``) solves and costs little: the clearing
price is an affine function of the major flow (the flow enters the affine
clearing system only through its forward drift, and the price is read off
linearly) and a position is an affine function of the trading rate, so
along one direction both lie on a line, and the cost, quadratic in the
control and the responses, is a quadratic in the amplitude.  It solves the
base control and each direction's end point once, takes the cost at the
grid's two outer amplitudes on that line, and reads every inner amplitude
off the quadratic through those two and zero; both steps are exact up to
round-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MarketClearError, UnsupportedModelError, ValidationError
from .finite_market import (AgentPopulation, ClearingOperator, CostClasses,
                            EquilibriumSolution, MarketContext, MinorTables, integrate_forward,
                            limit_classes, solve_class_system, solve_full_equilibrium)
from .scenario import NoiseLattice, squared_norms, stream_rng

# the perturbation amplitudes: sorted, with 0 and each nonzero amplitude in a +/- pair
EPS_GRID = (-0.2, -0.1, -0.05, 0.0, 0.05, 0.1, 0.2)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> over the last axis, as a sum of component products in index order."""
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out = out + a[..., i] * b[..., i]
    return out


def _quad(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """0.5 <x, mat x> over the last axis, ``mat`` (..., n, n) broadcast against ``x`` (..., n)."""
    out = x[..., 0] * _dot(mat[..., 0, :], x)
    for i in range(1, x.shape[-1]):
        out = out + x[..., i] * _dot(mat[..., i, :], x)
    return 0.5 * out


def _expected_costs(lat: NoiseLattice, running: np.ndarray, terminal: np.ndarray) -> np.ndarray:
    """Expected cost of each flow from (B, nodes) running and (B, leaves) terminal integrands."""
    return np.array([lat.running_expectation(r) + lat.terminal_expectation(t)
                     for r, t in zip(running, terminal)])


def _flows_first(x: np.ndarray) -> np.ndarray:
    """(nodes, B, n) -> (B, nodes, n)."""
    return np.ascontiguousarray(np.moveaxis(x, 1, 0))


def _positions(ctx: MarketContext, x0, rates: np.ndarray, offset: np.ndarray,
               loading: np.ndarray) -> np.ndarray:
    """(B, nodes, n) positions from ``x0`` under a (B, nodes, n) stack of trading rates.

    The drift is ``rates + offset``; the noise loading is shared by the flows.
    """
    return _flows_first(integrate_forward(ctx.lattice, x0, np.moveaxis(rates + offset, 0, 1),
                                          loading))


def _minor_costs(ctx: MarketContext, price: np.ndarray, alphas: np.ndarray, x: np.ndarray,
                 tab: MinorTables) -> np.ndarray:
    """Expected minor costs of a (B, nodes, n) stack of trading rates and their positions ``x``.

    Running cost <phi, a> + .5 <a, lam a> + .5 <x, cf x> + <hf, x>; terminal
    cost -delta <phi_T, x> + .5 <x, cg x> + <hg, x>, which ``MarketContext``
    makes -<c0_T, x> when the securities mature.
    """
    lat = ctx.lattice
    running = (_dot(price, alphas)
               + _quad(alphas, ctx.exo.lam[lat.level_of])
               + _quad(x, tab.cf[lat.level_of])
               + _dot(tab.hf, x))
    tsl = lat.terminal_slice
    xT = x[:, tsl]
    terminal = (-ctx.delta * _dot(price[tsl], xT)
                + _quad(xT, tab.cg_T)
                + _dot(tab.hg_T, xT))
    return _expected_costs(lat, running, terminal)


def _major_response(ctx: MarketContext, operator: ClearingOperator,
                    b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clearing prices and major positions of a (B, nodes, n) stack of per-capita flows.

    The flows are cleared in one batched re-solve of ``operator``.
    """
    if not ctx.spec.major_cost.affine:
        raise UnsupportedModelError(
            "cost evaluation needs the quadratic major cost primitives")
    _, phi = operator.solve(b)
    return phi, _positions(ctx, ctx.spec.chi0, b, ctx.l0, ctx.s0)


def _major_costs(ctx: MarketContext, b: np.ndarray, phi: np.ndarray,
                 x0: np.ndarray) -> np.ndarray:
    """Normalized major costs of a (B, nodes, n) stack of per-capita flows.

    ``phi`` and ``x0`` are each flow's induced prices and major positions
    (``_major_response``); the price enters the flow's running cost
    <b, phi(b)> + .5 <b, lam0 b> + fbar0(x0).
    """
    lat = ctx.lattice
    fbar = _quad(x0, ctx.c0f) + _dot(ctx.h0f, x0)
    running = (_dot(b, phi)
               + _quad(b, ctx.exo.lam0[lat.level_of])
               + fbar)
    xT = x0[:, lat.terminal_slice]
    terminal = _quad(xT, ctx.c0g) + _dot(ctx.h0g_T, xT)
    return _expected_costs(lat, running, terminal)


# -- perturbation verification ----------------------------------------------


def perturbation_directions(lattice: NoiseLattice, n: int, count: int,
                            seed: int) -> list[np.ndarray]:
    """Adapted i.i.d.-node directions, terminal values zeroed, unit lattice-L2 norm."""
    out = []
    for d in range(count):
        rng = stream_rng(seed, d)
        eta = rng.standard_normal((lattice.num_nodes, n))
        eta[lattice.terminal_slice] = 0.0
        norm2 = lattice.running_expectation(squared_norms(eta))
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


LEVELS = ("minor", "major-N", "major-mfg")
_FINITE_LEVELS = ("minor", "major-N")


def _check_request(levels, directions: int) -> None:
    """Refuse unknown levels or a direction count below one, before any solve."""
    for level in levels:
        if level not in LEVELS:
            raise ValidationError(f"unknown perturbation level {level!r}")
    if directions < 1:
        raise ValidationError("at least one perturbation direction is required")


def perturbation_tests(ctx: MarketContext, levels, directions: int = 20, seed: int = 0,
                       population: AgentPopulation | None = None) -> dict[str, PerturbationReport]:
    """Probe the solved optima of ``ctx``'s market along random admissible directions.

    Returns one report per entry of ``levels``, keyed by level:
      "minor"     perturb one agent's trading rate, price held fixed;
      "major-N"   perturb the major flow, finite-population clearing feedback;
      "major-mfg" perturb the major flow in the population limit.

    The finite levels share one finite solve (``solve_full_equilibrium``) of
    ``population``, by default ``make_population(ctx)``, and every level the
    directions ``perturbation_directions(ctx.lattice, n, directions, seed)``.
    A level's report does not depend on the other levels asked for.  An
    unknown level, no direction, or "major-mfg" on a market with no
    population limit (``limit_classes``) is refused before any solve.

    Each direction is evaluated at the amplitudes ``EPS_GRID``, along its
    exact line.  The responses to a control, the clearing price (major
    levels) and the position, are affine in it: the clearing system is an
    affine FBSDE whose forward drift is ``l - b``, and the position
    integrates the rate.  So the base control ``u`` is solved once and each
    direction's end point ``u + eta`` once.
    The cost is taken at the grid's outer amplitudes ``-m`` and ``+m`` only,
    at the control ``u +- m eta`` with the responses
    ``r(u) +- m (r(u + eta) - r(u))``; this equals a solve at ``u +- m eta``
    up to round-off.  The cost is quadratic in the control and the responses
    affine, so the cost change along the line is exactly the quadratic
    ``dJ(eps) = a1 eps + a2 eps^2`` through ``(-m, 0, +m)``:
    ``a1 = (dJ(m) - dJ(-m)) / 2m`` and ``a2 = (dJ(m) + dJ(-m)) / 2m^2``.
    The inner amplitudes of the grid read it off.  The end points are
    cleared in batches of at most as many directions as the grid has
    nonzero amplitudes, and the outer pairs are costed in stacks of at most
    as many flows.  A direction fails, and its row of ``delta_j`` and its
    fit read NaN, iff its end point raises a market or linear-algebra error;
    a failing batch is solved again one direction at a time.  If the base
    control fails, the error propagates, as no direction has a line without
    it.
    """
    levels = list(levels)
    _check_request(levels, directions)
    limit = limit_classes(ctx) if "major-mfg" in levels else None
    eq = (solve_full_equilibrium(ctx, population)
          if any(level in _FINITE_LEVELS for level in levels) else None)
    etas = perturbation_directions(ctx.lattice, ctx.spec.dims.n, directions, seed)
    return {level: _level_report(ctx, level, etas, eq, limit) for level in levels}


def _responses(respond, ctrls: np.ndarray) -> list:
    """``respond`` per flow of a (B, nodes, n) stack: one tuple of arrays, or None if it fails.

    The stack is solved as one batch.  If the batch raises a market or
    linear-algebra error, its flows are solved again one at a time, so that
    exactly the failing flows read None.
    """
    try:
        out = respond(ctrls)
    except (MarketClearError, np.linalg.LinAlgError):
        if len(ctrls) == 1:
            return [None]
        return [_responses(respond, c[None])[0] for c in ctrls]
    return [tuple(r[i] for r in out) for i in range(len(ctrls))]


def _level_report(ctx: MarketContext, level: str, etas: list[np.ndarray],
                  equilibrium: EquilibriumSolution | None,
                  limit: CostClasses | None) -> PerturbationReport:
    """One level of ``perturbation_tests``, on ``EPS_GRID`` along directions ``etas``.

    The finite levels read ``equilibrium``, the limit's level its classes ``limit``.
    """
    control = lambda ctrls: ctrls
    if level == "minor":
        eq = equilibrium
        base_ctrl, tab = eq.alpha_hat[0], eq.classes.groups[0]

        def respond(alphas):
            return (_positions(ctx, tab.xi, alphas, tab.l, tab.sig0),)

        def costs(alphas, x):
            return _minor_costs(ctx, eq.price.values, alphas, x, tab)
    else:
        if level == "major-N":
            pop, classes = equilibrium.population, equilibrium.classes
            base_ctrl = equilibrium.beta_hat.values
            control = lambda ctrls: ctrls / pop.N
        else:
            classes = limit
            base_ctrl = solve_class_system(ctx, classes)[1]  # no deviations needed
        op = ClearingOperator(ctx, classes.tables, classes.weights)

        def respond(b):
            return _major_response(ctx, op, b)

        def costs(b, phi, x0):
            return _major_costs(ctx, b, phi, x0)

    directions = len(etas)
    base = control(base_ctrl[None])
    base_resp = respond(base)
    base_j = costs(base, *base_resp)[0]
    eps = np.asarray(EPS_GRID)
    nonzero = eps != 0.0
    m = eps[-1]
    outer = np.array([-m, m])[:, None, None]
    inner = nonzero & (np.abs(eps) != m)
    inner_eps = eps[inner]
    batch = int(nonzero.sum())

    def outer_pairs(lo: int) -> tuple[list, list, np.ndarray]:
        """Clear the batch of directions from ``lo``; cost each solved one at -m and +m.

        Returns the failed and the solved directions and the (2, solved) cost
        changes.  The outer pairs are costed in stacks of at most ``batch``
        flows, as many as a clearing solve takes.  Every array of the batch
        is freed on return, before the next solve.
        """
        ends = _responses(respond, control(base_ctrl + np.stack(etas[lo:lo + batch])))
        lost = [d for d, end in enumerate(ends, start=lo) if end is None]
        solved = [(d, end) for d, end in enumerate(ends, start=lo) if end is not None]
        pairs = [np.empty((2, 0))]
        for c in range(0, len(solved), batch // 2):
            stack = solved[c:c + batch // 2]
            ctrls = np.concatenate([base_ctrl + outer * etas[d] for d, _ in stack])
            lines = [np.concatenate([r0 + outer * (end[i] - r0) for _, end in stack])
                     for i, r0 in enumerate(base_resp)]
            pairs.append((costs(control(ctrls), *lines) - base_j).reshape(-1, 2).T)
        return lost, [d for d, _ in solved], np.concatenate(pairs, axis=1)

    dj = np.zeros((directions, len(eps)))
    failed = []
    for lo in range(0, directions, batch) if batch else ():
        lost, rows, (dj_minus, dj_plus) = outer_pairs(lo)
        failed += lost
        a1 = (dj_plus - dj_minus) / (2 * m)
        a2 = (dj_plus + dj_minus) / (2 * m**2)
        dj[rows, 0], dj[rows, -1] = dj_minus, dj_plus
        dj[np.ix_(rows, inner)] = inner_eps * a1[:, None] + inner_eps**2 * a2[:, None]
    dj[failed] = np.nan
    fits = np.full((directions, 3), np.nan)
    ok = [d for d in range(directions) if d not in failed]
    if ok:
        fits[ok] = _fit_quadratics(eps, dj[ok])
    return PerturbationReport(level=level, eps_grid=[float(e) for e in eps],
                              directions=directions, delta_j=dj,
                              quadratic_fit=fits, failed=failed)
