"""Price-taking best responses of a market's agents to an exogenous price field.

No command solves a best response: an equilibrium's rates are every group's
best response to its clearing price, read off its own solve.  This oracle
solves that response on its own, as every market is solved: the cost
classes' means respond to the price (``build_best_response_system`` on the
class tables) and each class's groups deviate from their mean
(``finite_market.solve_deviations``); the price enters every group alike,
so the deviations do not see it.  ``build_best_response_system`` on the
group tables is the one block-diagonal system of every group that the
class path is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from marketclear.fbsde import DirectSolver, FbsdeSystem
from marketclear.finite_market import (AgentPopulation, ClassSolution, MarketContext,
                                       MinorTables, _alpha_hats, _block_diag,
                                       _check_node_field, _columns, _slices, cost_classes,
                                       make_population, solve_deviations)
from marketclear.scenario import NodeField


@dataclass
class BestResponse(ClassSolution):
    """Price-taking responses: the cost classes' solve, the price and the trading rates."""

    population: AgentPopulation
    alpha_hat: list[np.ndarray]  # one (num_nodes, n) array per agent group


def build_best_response_system(ctx: MarketContext, tabs: list[MinorTables],
                               price: np.ndarray) -> FbsdeSystem:
    """Independent best responses of groups or cost classes to an adapted price field.

    States per node: X_g forward and Y_g backward for each group g, with the
    fee block -lam^{-1} and the running cost block cf_g on the diagonals.
    The price enters the drift as -lam^{-1} price and the terminal map as
    -delta price.
    """
    lat, n = ctx.lattice, ctx.spec.dims.n
    G = len(tabs)
    K = lat.steps
    I, tsl = lat.level_range(K)[0], lat.terminal_slice
    lam_phi = lat.apply_levels(ctx.exo.lam_inv, price)
    return FbsdeSystem(
        lattice=lat, forward_slices=_slices([(f"X{g}", n) for g in range(G)]),
        backward_slices=_slices([(f"Y{g}", n) for g in range(G)]),
        Afb=_block_diag(np.broadcast_to(-ctx.exo.lam_inv[:K, None], (K, G, n, n))),
        Bbf=_block_diag(np.stack([t.cf[:K] for t in tabs], axis=1)),
        G=_block_diag(np.stack([t.cg_T for t in tabs])),
        initial=_columns([t.xi[None] for t in tabs]),
        af=_columns([t.l[:I] - lam_phi[:I] for t in tabs]),
        S=_columns([t.sig0[:I] for t in tabs], (lat.d0,)),
        bb=_columns([t.hf[:I] for t in tabs]),
        g=_columns([t.hg_T - ctx.delta * price[tsl] for t in tabs]))


def minor_best_response(ctx: MarketContext, price: NodeField,
                        population: AgentPopulation | None = None) -> BestResponse:
    """Per-agent optimal responses to an exogenous adapted price field.

    The class means respond to the price and each class's groups deviate from
    their mean as in every market; the trading rates are
    alpha_g = -lam^{-1}(Y~_g + price).  A price that is not an (nodes, n)
    field of ``ctx.lattice`` is refused (``ValidationError``).
    """
    _check_node_field(ctx, "the price", price.values, price.lattice)
    pop = population if population is not None else make_population(ctx)
    classes = cost_classes(ctx.group_tables(pop), pop.weights)
    br = BestResponse(
        solution=DirectSolver(build_best_response_system(ctx, classes.tables,
                                                         price.values)).solve(),
        classes=classes, deviations=solve_deviations(ctx, classes), price=price,
        population=pop, alpha_hat=[])
    br.alpha_hat = _alpha_hats(ctx, br.group_pres("Y"), price.values)
    return br
